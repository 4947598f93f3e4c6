"""Threaded engine execution must be bit-identical to the serial path.

The parallel layer (:mod:`repro.nn.parallel`) chunks engine ops along
batch/model axes whose slices numpy already computes independently, so a
threaded run is the *same* arithmetic in the same order — every comparison
in this module is ``array_equal`` / ``==``, never ``allclose``.  The suite
covers the pool mechanics (chunking, error propagation, laziness,
concurrent submitters), the debug aliasing audit, forward/backward/stacked
/interpretation bit-identity across the Table 3 ablation grid in both
dtypes, and the propagation seams (pool workers, CLI flag).
"""

import re
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.core.batched import StackedCausalFormerTrainer
from repro.core.config import CausalFormerConfig
from repro.core.detector import (DecompositionCausalityDetector,
                                 compute_scores_group)
from repro.core.relevance import StackedRelevancePropagation
from repro.core.training import Trainer
from repro.core.transformer import CausalityAwareTransformer
from repro.nn import parallel
from repro.nn.inference import InferenceEngine, StackedInferenceEngine
from repro.nn.parallel import (EngineThreadPool, engine_threads,
                               get_engine_threads, parallel_for,
                               run_branches, set_engine_threads,
                               set_parallel_debug, slice_axis)
from repro.nn.tensor import default_dtype
from repro.nn.training_engine import StackedTrainingEngine, TrainingEngine


def make_config(**overrides):
    base = dict(n_series=4, window=10, d_model=14, d_qk=14, d_ffn=14,
                n_heads=3, seed=0, max_epochs=3, batch_size=8,
                window_stride=2, patience=3)
    base.update(overrides)
    return CausalFormerConfig(**base)


#: the training-relevant Table 3 ablation grid (see test_training_engine)
ABLATION_GRID = [
    {},
    {"single_kernel": True},
    {"lambda_kernel": 0.0},
    {"lambda_mask": 0.0},
    {"lambda_kernel": 0.0, "lambda_mask": 0.0},
    {"n_heads": 1},
    {"single_kernel": True, "n_heads": 1},
    {"temperature": 2.5},
]


def training_series(seed, n_series=4, length=120):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n_series, length)).cumsum(axis=1)
    values -= values.mean(axis=1, keepdims=True)
    values /= values.std(axis=1, keepdims=True) + 1e-9
    return values


@pytest.fixture(autouse=True)
def _serial_default():
    """Every test starts serial and restores the process-wide setting."""
    with engine_threads(1):
        yield


@pytest.fixture
def short_switch_interval():
    """Switch Python threads as often as possible, to surface races."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


@pytest.fixture
def debug_audit():
    """Run the body with the chunk-aliasing audit enabled."""
    set_parallel_debug(True)
    yield
    set_parallel_debug(False)


# ---------------------------------------------------------------------- #
# Pool mechanics
# ---------------------------------------------------------------------- #
class TestChunking:
    def test_chunk_bounds_cover_range_exactly(self):
        for n_items in (1, 2, 3, 7, 16, 100):
            for n_chunks in (1, 2, 3, 5, 32):
                bounds = parallel._chunk_bounds(n_items, n_chunks)
                assert bounds[0][0] == 0
                assert bounds[-1][1] == n_items
                for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
                    assert hi == lo
                assert len(bounds) == min(n_chunks, n_items)
                sizes = [hi - lo for lo, hi in bounds]
                assert max(sizes) - min(sizes) <= 1

    def test_slice_axis_views(self):
        array = np.arange(24.0).reshape(2, 3, 4)
        assert np.shares_memory(slice_axis(array, 0, 0, 1), array)
        assert np.array_equal(slice_axis(array, 1, 1, 3), array[:, 1:3])
        assert np.array_equal(slice_axis(array, 2, 0, 2), array[:, :, :2])

    def test_serial_path_is_one_full_range_call(self):
        calls = []
        parallel_for(lambda lo, hi: calls.append((lo, hi)), 7)
        assert calls == [(0, 7)]

    def test_single_item_stays_serial_even_when_threaded(self):
        calls = []
        with engine_threads(4):
            parallel_for(lambda lo, hi: calls.append((lo, hi)), 1)
        assert calls == [(0, 1)]

    def test_threaded_covers_every_index_once(self):
        hits = np.zeros(23, dtype=np.int64)

        def body(lo, hi):
            hits[lo:hi] += 1

        with engine_threads(4):
            parallel_for(body, 23, outputs=[(hits, 0)])
        assert (hits == 1).all()


class TestPool:
    def test_workers_start_lazily(self):
        pool = EngineThreadPool()
        assert pool.worker_count == 0
        pool.run(lambda lo, hi: None, [(0, 1)])
        assert pool.worker_count == 0          # single chunk runs inline
        pool.run(lambda lo, hi: None, [(0, 1), (1, 2), (2, 3)])
        assert pool.worker_count == 2          # caller takes chunk 0

    def test_exceptions_propagate_to_the_caller(self):
        def body(lo, hi):
            if lo > 0:
                raise ValueError("chunk failed")

        with engine_threads(3):
            with pytest.raises(ValueError, match="chunk failed"):
                parallel_for(body, 9)
        # the pool survives a failed round
        hits = np.zeros(9, dtype=np.int64)
        with engine_threads(3):
            parallel_for(lambda lo, hi: hits.__setitem__(slice(lo, hi), 1), 9)
        assert (hits == 1).all()

    def test_concurrent_submitters_share_one_pool(self):
        pool = EngineThreadPool()
        results = np.zeros((8, 40), dtype=np.int64)
        errors = []

        def submitter(row):
            try:
                for _ in range(25):
                    def body(lo, hi, row=row):
                        results[row, lo:hi] += 1
                    pool.run(body, parallel._chunk_bounds(40, 4))
            except BaseException as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        threads = [threading.Thread(target=submitter, args=(row,))
                   for row in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert (results == 25).all()

    def test_set_engine_threads_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            set_engine_threads(0)

    def test_env_reread_on_none(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_THREADS", "5")
        assert set_engine_threads(None) == 5
        monkeypatch.delenv("REPRO_ENGINE_THREADS")
        assert set_engine_threads(None) == 1


class TestBranches:
    def test_serial_branches_run_in_order_on_the_caller(self):
        calls = []

        def branch(tag):
            calls.append((tag, threading.get_ident()))
            return tag

        assert run_branches(lambda: branch("a"), lambda: branch("b")) \
            == ("a", "b")
        assert calls == [("a", threading.get_ident()),
                         ("b", threading.get_ident())]

    def test_threaded_branches_run_on_distinct_threads(self):
        idents = {}
        barrier = threading.Barrier(2, timeout=10)

        def branch(tag):
            barrier.wait()      # both branches are running at once
            idents[tag] = threading.get_ident()
            return tag

        with engine_threads(2):
            assert run_branches(lambda: branch(0), lambda: branch(1)) \
                == (0, 1)
        assert idents[0] == threading.get_ident()
        assert idents[1] != idents[0]

    def test_a_branch_runs_its_ops_serially(self):
        seen = []

        def branch():
            seen.append(get_engine_threads())
            calls = []
            parallel_for(lambda lo, hi: calls.append((lo, hi)), 8)
            assert calls == [(0, 8)]

        with engine_threads(3):
            run_branches(branch, branch, branch)
            assert get_engine_threads() == 3
        assert seen == [1, 1, 1]

    def test_more_branches_than_threads_all_run(self):
        with engine_threads(2):
            assert run_branches(*(lambda i=i: i for i in range(5))) \
                == (0, 1, 2, 3, 4)

    def test_exceptions_propagate_to_the_caller(self):
        def failing():
            raise ValueError("branch failed")

        with engine_threads(2):
            with pytest.raises(ValueError, match="branch failed"):
                run_branches(lambda: None, failing)
            assert run_branches(lambda: 1, lambda: 2) == (1, 2)

    def test_concurrent_callers_never_deadlock(self, short_switch_interval):
        """Branches that chunk ops of their own, submitted from several
        Python threads at once, finish: no round waits inside another."""
        errors = []

        def caller():
            try:
                hits = np.zeros((2, 16), dtype=np.int64)
                for _ in range(20):
                    def branch(row):
                        def body(lo, hi):
                            hits[row, lo:hi] += 1

                        parallel_for(body, 16)

                    run_branches(lambda: branch(0), lambda: branch(1))
                assert (hits == 20).all()
            except BaseException as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        with engine_threads(2):
            threads = [threading.Thread(target=caller) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors


class TestDebugAudit:
    def test_overlapping_output_views_raise(self, debug_audit):
        overlapping = np.zeros(8)[None, :].repeat(4, axis=0)  # fresh, fine
        broadcast = np.broadcast_to(np.zeros(8), (4, 8))      # rows alias
        with engine_threads(2):
            parallel_for(lambda lo, hi: None, 4, outputs=[(overlapping, 0)])
            with pytest.raises(RuntimeError, match="alias"):
                parallel_for(lambda lo, hi: None, 4, outputs=[(broadcast, 0)])

    def test_overlapping_branch_declarations_raise(self, debug_audit):
        buffer = np.zeros((4, 8))
        top, bottom, column = buffer[:2], buffer[2:], buffer[:, 3]
        shared_read = np.ones(8)
        with engine_threads(2):
            # Disjoint writes, and reads shared by both branches, pass.
            run_branches(lambda: None, lambda: None, audit=lambda: (
                ([top], [shared_read]), ([bottom], [shared_read])))
            with pytest.raises(RuntimeError, match="race"):
                run_branches(lambda: None, lambda: None, audit=lambda: (
                    ([top], []), ([column], [])))
            with pytest.raises(RuntimeError, match="race"):
                run_branches(lambda: None, lambda: None, audit=lambda: (
                    ([top], []), ([bottom], [buffer[1]])))

    def test_branch_audit_skipped_when_serial(self, debug_audit):
        buffer = np.zeros(8)
        run_branches(lambda: None, lambda: None,
                     audit=lambda: (([buffer], []), ([buffer], [])))

    def test_audit_skipped_when_serial(self, debug_audit):
        broadcast = np.broadcast_to(np.zeros(8), (4, 8))
        parallel_for(lambda lo, hi: None, 4, outputs=[(broadcast, 0)])

    def test_softmax_reduction_buffers_pass_the_audit(self, debug_audit):
        """The softmax declares its max/sum buffers (``att.max``/``att.sum``)
        — as chunk outputs at three threads, as writes of the attention
        branch at two — and the MLP body its slope mask: both audits must
        accept the full declaration sets while the threaded result stays
        bit-identical."""
        config = make_config()
        model = CausalityAwareTransformer(config)
        windows = np.random.default_rng(7).normal(
            size=(8, config.n_series, config.window))
        serial = InferenceEngine(model).forward(windows).copy()
        for threads in (2, 3):
            with engine_threads(threads):
                threaded = InferenceEngine(model).forward(windows)
            assert np.array_equal(threaded, serial)


# ---------------------------------------------------------------------- #
# Engine bit-identity: threaded == serial, to the bit
# ---------------------------------------------------------------------- #
class TestForwardBitIdentity:
    @pytest.mark.parametrize("overrides", ABLATION_GRID)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("threads", [2, 3])
    def test_forward_and_evaluate(self, overrides, dtype, threads,
                                  debug_audit):
        with default_dtype(dtype):
            config = make_config(**overrides)
            model = CausalityAwareTransformer(config)
            windows = np.random.default_rng(1).normal(
                size=(9, config.n_series, config.window)).astype(dtype)
            serial_forward = InferenceEngine(model).forward(windows).copy()
            serial_loss = InferenceEngine(model).evaluate(windows, 4)
            with engine_threads(threads):
                engine = InferenceEngine(model)
                # The second call replays the views the first one built.
                for _ in range(2):
                    assert np.array_equal(engine.forward(windows),
                                          serial_forward)
                assert engine.evaluate(windows, 4) == serial_loss

    def test_threads_exceeding_batch(self):
        config = make_config()
        model = CausalityAwareTransformer(config)
        windows = np.random.default_rng(2).normal(
            size=(3, config.n_series, config.window))
        serial = InferenceEngine(model).forward(windows).copy()
        with engine_threads(16):
            assert np.array_equal(InferenceEngine(model).forward(windows),
                                  serial)


class TestBackwardBitIdentity:
    @pytest.mark.parametrize("overrides", ABLATION_GRID)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("threads", [2, 3])
    def test_gradients(self, overrides, dtype, threads, debug_audit):
        with default_dtype(dtype):
            config = make_config(**overrides)
            model = CausalityAwareTransformer(config)
            batch = np.random.default_rng(3).normal(
                size=(8, config.n_series, config.window)).astype(dtype)

            def gradients():
                engine = TrainingEngine(model)
                # The second step replays the first one's views and
                # backward plan.
                return [engine.gradients(batch) for _ in range(2)]

            serial, _ = gradients()
            with engine_threads(threads):
                for threaded in gradients():
                    assert set(serial) == set(threaded)
                    for name, expected in serial.items():
                        assert np.array_equal(expected, threaded[name]), name

    @pytest.mark.parametrize("threads", [2, 3])
    def test_solo_training_trajectory(self, threads):
        values = training_series(5)
        config = make_config()

        def fit():
            model = CausalityAwareTransformer(config)
            history = Trainer(model).fit(values)
            return history, [p.data.copy() for p in model.parameters()]

        serial_history, serial_params = fit()
        with engine_threads(threads):
            threaded_history, threaded_params = fit()
        assert serial_history.train_loss == threaded_history.train_loss
        assert (serial_history.validation_loss
                == threaded_history.validation_loss)
        for expected, actual in zip(serial_params, threaded_params):
            assert np.array_equal(expected, actual)


class TestStackedBitIdentity:
    @pytest.mark.parametrize("overrides",
                             [{}, {"single_kernel": True}, {"n_heads": 1},
                              {"lambda_kernel": 0.0, "lambda_mask": 0.0}])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_stacked_fit(self, overrides, dtype, debug_audit):
        with default_dtype(dtype):
            config = make_config(max_epochs=2, **overrides)
            values_list = [training_series(seed) for seed in range(3)]

            def fit():
                models = [CausalityAwareTransformer(replace(config, seed=s))
                          for s in range(3)]
                trainer = StackedCausalFormerTrainer(models)
                histories = trainer.fit(values_list)
                return histories, [[p.data.copy() for p in model.parameters()]
                                   for model in models]

            serial_histories, serial_params = fit()
            # k=3 models: 2 threads chunk the model axis, 4 threads the
            # inner axes (the engine picks per op from the call's count) —
            # both layouts must reproduce the serial trajectory exactly.
            for threads in (2, 4):
                with engine_threads(threads):
                    threaded_histories, threaded_params = fit()
                for expected, actual in zip(serial_histories,
                                            threaded_histories):
                    assert expected.train_loss == actual.train_loss
                for expected, actual in zip(serial_params, threaded_params):
                    for left, right in zip(expected, actual):
                        assert np.array_equal(left, right)

    @pytest.mark.parametrize("single_kernel", [False, True])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_group_interpretation(self, dtype, single_kernel, debug_audit):
        """Group and solo scores, the all-ones gradients and the relevance
        of float64 and float32 source models are bit-identical at 1, 2 and
        3 explicit engine threads (the interpretation forward is threaded
        like any training forward)."""
        with default_dtype(dtype):
            configs = [CausalFormerConfig(n_series=4, window=10, d_model=12,
                                          d_qk=12, d_ffn=12, n_heads=2,
                                          seed=seed,
                                          single_kernel=single_kernel)
                       for seed in range(3)]
            models = [CausalityAwareTransformer(config) for config in configs]
        detectors = [DecompositionCausalityDetector(model, config)
                     for model, config in zip(models, configs)]
        rng = np.random.default_rng(17)
        window_sets = [rng.normal(size=(4, 4, 10)) for _ in models]

        def interpret():
            scores = compute_scores_group(detectors, window_sets) + [
                detector.compute_scores(windows)
                for detector, windows in zip(detectors, window_sets)]
            engine = StackedInferenceEngine(models)
            forward = engine.interpretation_forward(window_sets)
            arrays = list(engine.interpretation_gradients(forward))
            for result in StackedRelevancePropagation().propagate_targets(
                    forward):
                arrays.extend((result.attention, result.kernel))
            return arrays + [array for score in scores
                             for array in (score.attention, score.kernel)]

        serial = interpret()
        for threads in (2, 3):
            with engine_threads(threads):
                threaded = interpret()
            assert len(threaded) == len(serial)
            for expected, actual in zip(serial, threaded):
                assert np.array_equal(expected, actual)


class TestBranchSchedule:
    """A single model on two threads runs the convolution and the attention
    side of each step as two concurrent branches; a serial call, a fleet
    and a call on more threads run both sides on the caller."""

    @staticmethod
    def record_threads(monkeypatch, owner, names):
        threads = {}
        for name in names:
            original = getattr(owner, name)

            def recording(*args, _name=name, _original=original, **kwargs):
                threads.setdefault(_name, []).append(threading.get_ident())
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, recording)
        return threads

    @pytest.mark.parametrize("threads, distinct",
                             [(1, False), (2, True), (3, False)])
    def test_forward_branches(self, monkeypatch, threads, distinct):
        """At two threads every forward branches, the first one in a
        scratch space (which takes its buffers before the branches start)
        too; at one or three threads both run on the caller."""
        config = make_config()
        model = CausalityAwareTransformer(config)
        windows = np.random.default_rng(8).normal(
            size=(8, config.n_series, config.window))
        seen = self.record_threads(monkeypatch, StackedInferenceEngine,
                                   ("_convolution", "_attention_probs"))
        engine = InferenceEngine(model)
        with engine_threads(threads):
            first = engine.forward(windows).copy()
            assert np.array_equal(engine.forward(windows), first)
        caller = threading.get_ident()
        assert seen["_convolution"] == [caller, caller]
        assert [ident != caller for ident in seen["_attention_probs"]] \
            == [distinct, distinct]

    def test_fleet_runs_both_sides_on_the_caller(self, monkeypatch):
        models = [CausalityAwareTransformer(make_config(seed=seed))
                  for seed in range(2)]
        rng = np.random.default_rng(10)
        window_sets = [rng.normal(size=(8, 4, 10)) for _ in models]
        seen = self.record_threads(monkeypatch, StackedInferenceEngine,
                                   ("_convolution", "_attention_probs"))
        with engine_threads(2):
            StackedInferenceEngine(models).interpretation_forward(window_sets)
        caller = threading.get_ident()
        assert seen == {"_convolution": [caller],
                        "_attention_probs": [caller]}

    def test_first_interpretation_forward_branches(self, monkeypatch):
        """The detector's one forward is its engine's first call, and it
        branches at two threads as the training forwards do."""
        config = make_config()
        model = CausalityAwareTransformer(config)
        windows = np.random.default_rng(11).normal(
            size=(8, config.n_series, config.window))
        seen = self.record_threads(monkeypatch, StackedInferenceEngine,
                                   ("_convolution", "_attention_probs"))
        with engine_threads(2):
            InferenceEngine(model).interpretation_forward(windows)
        caller = threading.get_ident()
        assert seen["_convolution"] == [caller]
        assert seen["_attention_probs"] != [caller]

    @pytest.mark.parametrize("threads, distinct",
                             [(1, False), (2, True), (3, False)])
    def test_backward_branches(self, monkeypatch, threads, distinct):
        """Each Eq. 6 half runs on its side's thread."""
        config = make_config()
        model = CausalityAwareTransformer(config)
        batch = np.random.default_rng(9).normal(
            size=(8, config.n_series, config.window))
        names = ("_convolution", "_attention_probs",
                 "_combine_values_backward", "_values_backward",
                 "_combine_attention_backward", "_attention_backward")
        seen = self.record_threads(monkeypatch, StackedTrainingEngine, names)
        with engine_threads(threads):
            TrainingEngine(model).gradients(batch)
        assert all(len(seen[name]) == 1 for name in names)
        assert seen["_values_backward"] == [threading.get_ident()]
        assert seen["_combine_values_backward"] == seen["_values_backward"]
        assert seen["_combine_attention_backward"] \
            == seen["_attention_backward"]
        assert (seen["_attention_backward"] != seen["_values_backward"]) \
            == distinct


class TestConcurrentTrainers:
    def test_trainers_on_python_threads_share_the_pool(self):
        """Several trainers hammering one pool stay bit-identical.

        Each Python thread drives its own model/engine/arena; only the
        worker pool is shared.  Every trajectory must equal the serial run
        of the same seed — interleaved rounds from different submitters
        must never cross-contaminate.  (The engine dtype is thread-local,
        so each submitter pins it explicitly — fresh Python threads don't
        inherit the session fixture's float64 default.)"""
        config = make_config(max_epochs=2)
        seeds = [0, 1, 2, 3]
        series = {seed: training_series(seed + 10) for seed in seeds}

        def fit(seed):
            with default_dtype(np.float64):
                model = CausalityAwareTransformer(replace(config, seed=seed))
                history = Trainer(model).fit(
                    series[seed])
            return history.train_loss, [p.data.copy()
                                        for p in model.parameters()]

        serial = {seed: fit(seed) for seed in seeds}
        results = {}
        errors = []

        def worker(seed):
            try:
                results[seed] = fit(seed)
            except BaseException as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        with engine_threads(3):
            threads = [threading.Thread(target=worker, args=(seed,))
                       for seed in seeds]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        for seed in seeds:
            assert serial[seed][0] == results[seed][0]
            for expected, actual in zip(serial[seed][1], results[seed][1]):
                assert np.array_equal(expected, actual)


# ---------------------------------------------------------------------- #
# Propagation seams
# ---------------------------------------------------------------------- #
class TestPropagation:
    def test_worker_entry_point_adopts_thread_count(self):
        """``execute_job_with_dtype`` re-applies the submitter's setting."""
        from repro.service.executor import execute_job_with_dtype
        from repro.service.jobs import DiscoveryJob, fingerprint_dataset
        from repro.service.registry import build_dataset

        dataset = build_dataset("fork", seed=0, length=120)
        job = DiscoveryJob(
            method="var_granger", config={}, dataset="fork",
            dataset_fingerprint=fingerprint_dataset(dataset), seed=0)
        result = execute_job_with_dtype(job, dataset, "float64",
                                        engine_threads=3)
        assert result.ok
        assert get_engine_threads() == 3

    def test_batched_entry_point_adopts_thread_count(self):
        from repro.service.batched import execute_batched_jobs_with_dtype

        results = execute_batched_jobs_with_dtype([], "float64",
                                                  engine_threads=2)
        assert results == []
        assert get_engine_threads() == 2

    def test_cli_flag_sets_thread_count(self, capsys):
        from repro.service.cli import main

        assert main(["sweep", "--datasets", "fork", "--methods",
                     "var_granger", "--seeds", "0", "--length", "120",
                     "--no-cache", "--engine-threads", "2"]) == 0
        capsys.readouterr()
        assert get_engine_threads() == 2

    def test_cli_rejects_bad_thread_count(self):
        from repro.service.cli import main

        with pytest.raises(SystemExit, match="engine threads"):
            main(["sweep", "--datasets", "fork", "--methods", "var_granger",
                  "--seeds", "0", "--no-cache", "--engine-threads", "0"])

    def test_engine_threads_gauge(self):
        from repro.telemetry import capture

        values = training_series(3)
        config = make_config(max_epochs=1)
        with engine_threads(2):
            with capture() as telemetry:
                Trainer(CausalityAwareTransformer(config)).fit(values)
                snapshot = telemetry.metrics.snapshot()
        assert snapshot["gauges"]["engine.threads"] == 2


class TestProfilingUnderThreads:
    def test_profiling_hook_counts_ops_once(self):
        """Per-op histograms record one sample per op call, threaded or not.

        Threaded ops are timed on the dispatching thread, so the hook fires
        exactly as often as in a serial run — the per-op counts must match.
        """
        from repro.nn.inference import profiling_hook
        from repro.telemetry import capture

        config = make_config()
        model = CausalityAwareTransformer(config)
        windows = np.random.default_rng(4).normal(
            size=(8, config.n_series, config.window))

        def histogram_counts():
            with capture() as telemetry:
                engine = InferenceEngine(model)
                engine.enable_profiling(profiling_hook(telemetry))
                engine.forward(windows)
                snapshot = telemetry.metrics.snapshot()
            return {name: stats["count"]
                    for name, stats in snapshot["histograms"].items()
                    if name.startswith("engine.")}

        serial = histogram_counts()
        with engine_threads(3):
            threaded = histogram_counts()
        assert serial
        assert serial == threaded


# ---------------------------------------------------------------------- #
# The work-size rule (no explicit count)
# ---------------------------------------------------------------------- #
C = parallel.WORK_PER_THREAD


@pytest.fixture
def work_size_rule(monkeypatch):
    """No explicit count, and a CPU budget of 4 whatever the host has."""
    monkeypatch.delenv("REPRO_ENGINE_THREADS", raising=False)
    monkeypatch.setattr(parallel, "_cpu_budget", 4)
    with engine_threads(None):
        yield


class TestWorkSizeRule:
    def test_below_the_constant_a_call_is_serial(self, work_size_rule):
        assert parallel.configured_engine_threads() is None
        for work in (0, 1, C - 1, C, 2 * C - 1):
            assert parallel.threads_for_work(work) == 1

    def test_above_it_one_thread_per_constant_up_to_the_budget(
            self, work_size_rule):
        assert parallel.threads_for_work(2 * C) == 2
        assert parallel.threads_for_work(3 * C + C // 2) == 3
        assert parallel.threads_for_work(4 * C) == 4
        assert parallel.threads_for_work(1000 * C) == 4

    def test_an_engine_call_runs_on_the_count_chosen_for_it(
            self, work_size_rule):
        assert get_engine_threads() == 1
        with parallel.engine_call(3 * C):
            assert get_engine_threads() == 3
            with parallel.engine_call(C):
                assert get_engine_threads() == 1
            assert get_engine_threads() == 3
        assert get_engine_threads() == 1

    def test_an_explicit_count_overrides_the_rule(self, work_size_rule):
        with engine_threads(3):
            assert parallel.threads_for_work(0) == 3
            assert parallel.threads_for_work(1000 * C) == 3
            with parallel.engine_call(0):
                assert get_engine_threads() == 3
        assert parallel.threads_for_work(1000 * C) == 4

    def test_the_environment_count_overrides_the_rule(self, work_size_rule,
                                                      monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_THREADS", "2")
        assert set_engine_threads(None) == 2
        assert parallel.threads_for_work(0) == 2
        assert parallel.threads_for_work(1000 * C) == 2

    @pytest.mark.parametrize("workers, budget", [(1, 8), (2, 4), (3, 2),
                                                 (8, 1), (16, 1)])
    def test_a_pool_worker_gets_its_share_of_the_cpus(
            self, work_size_rule, monkeypatch, workers, budget):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 8)
        parallel.share_cpus(workers)
        assert parallel.threads_for_work(1000 * C) == budget

    def test_the_executor_pool_shares_the_cpus(self, work_size_rule):
        from repro.service.executor import JobExecutor

        pool = JobExecutor(max_workers=2, cache=None)._new_pool()
        try:
            threads = pool.submit(parallel.threads_for_work, 1000 * C).result()
        finally:
            pool.shutdown(wait=True)
        assert threads == max(1, parallel.usable_cpus() // 2)

    def test_engine_threads_gauge_reports_the_rule(self, work_size_rule,
                                                   monkeypatch):
        from repro.telemetry import capture

        # make_config's training step: 8 windows x 4² series x 10 slots
        monkeypatch.setattr(parallel, "WORK_PER_THREAD", 8 * 16 * 10 // 3)
        values = training_series(3)
        config = make_config(max_epochs=1)
        with capture() as telemetry:
            Trainer(CausalityAwareTransformer(config)).fit(values)
            solo = telemetry.metrics.snapshot()["gauges"]["engine.threads"]
        with capture() as telemetry:
            models = [CausalityAwareTransformer(replace(config, seed=seed))
                      for seed in range(2)]
            StackedCausalFormerTrainer(models).fit([values, values])
            stacked = telemetry.metrics.snapshot()["gauges"]["engine.threads"]
        assert (solo, stacked) == (3, 4)

    def test_lorenz40_fast_fit_is_bit_identical_to_serial(
            self, work_size_rule):
        """A fast-preset fit at N = 40 earns two threads under the rule and
        must reproduce the serial fit's weights and graph exactly."""
        from repro.core.config import fast_preset
        from repro.core.discovery import CausalFormer
        from repro.data.lorenz import lorenz96_dataset
        from repro.telemetry import capture

        dataset = lorenz96_dataset(n_series=40, length=300, seed=5)
        config = fast_preset(max_epochs=2)
        assert parallel.threads_for_work(
            config.batch_size * 40 ** 2 * config.window) == 2

        def discover():
            method = CausalFormer(config)
            graph = method.discover(dataset)
            weights = [p.data.copy() for p in method.model_.parameters()]
            return sorted(edge.as_tuple() for edge in graph.edges), weights

        with capture() as telemetry:
            ruled_graph, ruled_weights = discover()
            gauge = telemetry.metrics.snapshot()["gauges"]["engine.threads"]
        with engine_threads(1):
            serial_graph, serial_weights = discover()
        assert gauge == 2
        assert ruled_graph == serial_graph
        for ruled, serial in zip(ruled_weights, serial_weights):
            assert np.array_equal(ruled, serial)


class _FakeBlas:
    """A BLAS thread count behind the loaded-library setter/getter seam."""

    def __init__(self, count):
        self.count = count

    def set(self, count):
        self.count = count

    def get(self):
        return self.count


@pytest.fixture
def fake_blas(monkeypatch):
    """Route BLAS capping to a fake two-thread BLAS, nothing pinned yet."""
    blas = _FakeBlas(2)
    monkeypatch.setattr(parallel, "_blas_runtime", [(blas.set, blas.get)])
    monkeypatch.setattr(parallel, "_blas_limited", False)
    monkeypatch.setattr(parallel, "_BLAS_ENV_VARS", ())
    return blas


class TestBlasCap:
    def test_a_serial_call_keeps_the_blas_threads(self, work_size_rule,
                                                  fake_blas):
        with parallel.engine_call(C):
            assert fake_blas.count == 2
            parallel_for(lambda lo, hi: None, 8)
        assert fake_blas.count == 2

    def test_a_threaded_call_holds_blas_at_one_only_while_it_runs(
            self, work_size_rule, fake_blas):
        with parallel.engine_call(2 * C) as threads:
            assert threads == 2
            assert fake_blas.count == 1
            with parallel.engine_call(2 * C):
                parallel_for(lambda lo, hi: None, 8)
            assert fake_blas.count == 1
        assert fake_blas.count == 2
        assert not parallel._blas_limited

    def test_concurrent_threaded_calls_share_one_hold(self, work_size_rule,
                                                      fake_blas):
        inside, release = threading.Event(), threading.Event()

        def other_call():
            with parallel.engine_call(2 * C):
                inside.set()
                release.wait()

        thread = threading.Thread(target=other_call)
        thread.start()
        inside.wait()
        with parallel.engine_call(2 * C):
            assert fake_blas.count == 1
        assert fake_blas.count == 1
        release.set()
        thread.join()
        assert fake_blas.count == 2

    def test_a_session_keeps_the_hold_until_it_ends(self, work_size_rule,
                                                    fake_blas):
        with parallel.engine_session():
            with parallel.engine_call(C):
                assert fake_blas.count == 2
            for _ in range(3):
                with parallel.engine_call(2 * C):
                    assert fake_blas.count == 1
                assert fake_blas.count == 1
        assert fake_blas.count == 2

    def test_a_threaded_fit_caps_blas_once_and_restores_it(
            self, work_size_rule, fake_blas, monkeypatch):
        calls = []
        monkeypatch.setattr(parallel, "_blas_runtime", [(
            lambda count: (calls.append(count), fake_blas.set(count)),
            fake_blas.get)])
        monkeypatch.setattr(parallel, "WORK_PER_THREAD", 8 * 16 * 10 // 2)
        config = make_config(max_epochs=2)
        Trainer(CausalityAwareTransformer(config)).fit(
            training_series(3))
        assert calls == [1, 2]
        assert fake_blas.count == 2

    def test_an_explicit_count_pins_blas_for_good(self, fake_blas):
        with engine_threads(2):
            with parallel.engine_call(0):
                parallel_for(lambda lo, hi: None, 8)
        assert fake_blas.count == 1
        assert parallel._blas_limited


@pytest.mark.parametrize("raw", ["abc", "0", "-2", "1.5"])
def test_a_malformed_environment_count_is_an_error(monkeypatch, raw):
    monkeypatch.setenv("REPRO_ENGINE_THREADS", raw)
    with pytest.raises(ValueError,
                       match=f"REPRO_ENGINE_THREADS.*'{re.escape(raw)}'"):
        set_engine_threads(None)
