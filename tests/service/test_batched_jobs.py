"""Batched sweep execution: grouping, result identity, fallback, caching."""

import pytest

from repro.service.batched import (batch_signature, execute_batched_jobs,
                                   group_batchable)
from repro.service.cache import ResultCache
from repro.service.executor import JobExecutor
from repro.service.jobs import DiscoveryJob, fingerprint_dataset
from repro.service.registry import build_dataset

CONFIG = {
    "window": 12, "d_model": 16, "d_qk": 16, "d_ffn": 16, "n_heads": 2,
    "batch_size": 16, "window_stride": 2, "max_epochs": 3, "patience": 1000,
    "max_detector_windows": 4,
}


def causalformer_pair(seed, length=160, dataset="fork", config=None):
    data = build_dataset(dataset, seed=seed, length=length)
    job = DiscoveryJob(method="causalformer", config=dict(config or CONFIG),
                       dataset=dataset, dataset_fingerprint=fingerprint_dataset(data),
                       seed=seed)
    return job, data


@pytest.fixture(scope="module")
def four_pairs():
    return [causalformer_pair(seed) for seed in range(4)]


class TestGrouping:
    def test_same_shape_jobs_share_signature(self, four_pairs):
        signatures = {batch_signature(job, data) for job, data in four_pairs}
        assert len(signatures) == 1

    def test_non_causalformer_not_batchable(self):
        data = build_dataset("fork", seed=0, length=160)
        job = DiscoveryJob(method="var_granger", dataset="fork",
                           dataset_fingerprint=fingerprint_dataset(data))
        assert batch_signature(job, data) is None

    def test_single_kernel_batchable(self):
        """Single-kernel ablation jobs group among themselves (their (1,1,T)
        kernel stacks trivially) but never with multi-kernel jobs."""
        config = dict(CONFIG, single_kernel=True)
        single_a = causalformer_pair(0, config=config)
        single_b = causalformer_pair(1, config=config)
        multi = causalformer_pair(0)
        sig_a = batch_signature(*single_a)
        assert sig_a is not None
        assert sig_a == batch_signature(*single_b)
        assert sig_a != batch_signature(*multi)

    def test_different_shapes_do_not_group(self, four_pairs):
        other = causalformer_pair(9, length=200)
        indexed = list(enumerate(four_pairs + [other]))
        groups, singles = group_batchable(indexed)
        assert len(groups) == 1 and len(groups[0]) == 4
        assert [index for index, _pair in singles] == [4]

    def test_series_count_separates_signatures(self):
        """Same configuration and length, different number of series: the
        lanes' window geometry differs, so the jobs never share a group."""
        fork = causalformer_pair(0, dataset="fork")
        diamond = causalformer_pair(0, dataset="diamond")
        assert fork[1].values.shape[1] == diamond[1].values.shape[1]
        assert fork[1].values.shape[0] != diamond[1].values.shape[0]
        assert batch_signature(*fork) != batch_signature(*diamond)
        groups, singles = group_batchable(list(enumerate([fork, diamond])))
        assert groups == [] and len(singles) == 2

    def test_config_seed_does_not_split_a_group(self):
        """A seed carried inside the configuration is not part of the
        signature: the lanes differ only in their initialisation."""
        a = causalformer_pair(0, config=dict(CONFIG, seed=5))
        b = causalformer_pair(1, config=dict(CONFIG, seed=7))
        assert batch_signature(*a) == batch_signature(*b)

    def test_lone_batchable_job_stays_single(self, four_pairs):
        indexed = [(0, four_pairs[0])]
        groups, singles = group_batchable(indexed)
        assert groups == [] and len(singles) == 1


class TestExecutionIdentity:
    @pytest.fixture(scope="class")
    def results(self, four_pairs):
        data = build_dataset("fork", seed=11, length=160)
        extra = (DiscoveryJob(method="var_granger", dataset="fork",
                              dataset_fingerprint=fingerprint_dataset(data)),
                 data)
        pairs = list(four_pairs) + [extra]
        sequential = JobExecutor(max_workers=1, cache=None).run(pairs)
        batched = JobExecutor(max_workers=1, cache=None,
                              batch_jobs=True).run(pairs)
        return sequential, batched

    def test_all_jobs_succeed(self, results):
        sequential, batched = results
        assert all(result.ok for result in sequential)
        assert all(result.ok for result in batched)

    def test_graphs_identical(self, results):
        sequential, batched = results
        for result_a, result_b in zip(sequential, batched):
            edges_a = sorted(edge.as_tuple() for edge in result_a.graph.edges)
            edges_b = sorted(edge.as_tuple() for edge in result_b.graph.edges)
            assert edges_a == edges_b

    def test_scores_identical(self, results):
        sequential, batched = results
        for result_a, result_b in zip(sequential, batched):
            assert result_a.scores.precision == result_b.scores.precision
            assert result_a.scores.recall == result_b.scores.recall
            assert result_a.scores.f1 == result_b.scores.f1

    def test_results_keep_request_order(self, results):
        _sequential, batched = results
        seeds = [result.job.seed for result in batched[:4]]
        assert seeds == [0, 1, 2, 3]
        assert batched[4].job.method == "var_granger"


class TestStepFaultFallback:
    """A raising stacked step fails the group's shared fit; the group then
    re-runs job by job, and every job still matches the fault-free sweep."""

    def test_lane_step_fault_falls_back_per_job(self, four_pairs):
        from repro import faults
        from repro.telemetry import capture

        reference = execute_batched_jobs(four_pairs)
        with faults.override("raise@lane_step=4"):
            with capture() as telemetry:
                results = execute_batched_jobs(four_pairs)
        assert len(results) == 4
        assert all(result.ok for result in results), \
            [result.error for result in results]
        for result_a, result_b in zip(reference, results):
            assert result_a.graph.to_dict() == result_b.graph.to_dict()
            assert result_a.scores.f1 == result_b.scores.f1
            assert result_a.scores.precision == result_b.scores.precision
            assert result_a.scores.recall == result_b.scores.recall
        assert telemetry.counter("batched.train_fallbacks").value == 1.0
        names = {record.get("name") for record in telemetry.records()
                 if record.get("kind") == "event"}
        assert "fault_injected" in names
        assert "stacked_train_fallback" in names

    def test_executor_batch_run_survives_lane_step_fault(self, four_pairs):
        """Through the executor's batched path the fallback answers every
        job on the first attempt, with the solo sweep's results."""
        from repro import faults

        sequential = JobExecutor(max_workers=1, cache=None).run(four_pairs)
        with faults.override("raise@lane_step=4") as injector:
            batched = JobExecutor(max_workers=1, cache=None,
                                  batch_jobs=True).run(four_pairs)
        assert [str(spec) for spec in injector.fired] == ["raise@lane_step=4"]
        assert all(result.ok for result in batched), \
            [result.error for result in batched]
        assert [result.attempts for result in batched] == [1, 1, 1, 1]
        for result_a, result_b in zip(sequential, batched):
            assert result_a.job.seed == result_b.job.seed
            assert result_a.graph.to_dict() == result_b.graph.to_dict()
            assert result_a.scores.f1 == result_b.scores.f1


class TestFallback:
    def test_stacked_failure_falls_back_to_sequential(self, four_pairs,
                                                      monkeypatch):
        import repro.core.batched as core_batched

        def explode(*_args, **_kwargs):
            raise RuntimeError("stacked training unavailable")

        monkeypatch.setattr(core_batched.StackedCausalFormerTrainer,
                            "__init__", explode)
        results = execute_batched_jobs(four_pairs)
        assert len(results) == 4
        assert all(result.ok for result in results)

    def test_per_job_graph_failure_is_captured(self, four_pairs, monkeypatch):
        from repro.core.detector import DecompositionCausalityDetector
        from repro.core.discovery import CausalFormer

        def explode(self, *args, **kwargs):
            raise RuntimeError("interpretation failed")

        # Kill both the per-job graph construction (stacked path) and the
        # per-job fallback so every job's failure is captured individually.
        monkeypatch.setattr(DecompositionCausalityDetector, "build_graph",
                            explode)
        monkeypatch.setattr(CausalFormer, "interpret", explode)
        results = execute_batched_jobs(four_pairs)
        assert len(results) == 4
        assert all(not result.ok for result in results)
        assert all("interpretation failed" in result.error
                   for result in results)
        assert [result.job.seed for result in results] == [0, 1, 2, 3]

    def test_stacked_interpretation_failure_falls_back_per_job(
            self, four_pairs, monkeypatch):
        import repro.core.detector as core_detector

        def explode(*_args, **_kwargs):
            raise RuntimeError("stacked interpretation unavailable")

        monkeypatch.setattr(core_detector, "compute_scores_group", explode)
        results = execute_batched_jobs(four_pairs)
        assert len(results) == 4
        assert all(result.ok for result in results)


class TestGroupInterpretation:
    @staticmethod
    def _recording(monkeypatch):
        import repro.core.detector as detector

        calls = []
        original = detector.compute_scores_group

        def recording(detectors, windows, **kwargs):
            calls.append(len(detectors))
            return original(detectors, windows, **kwargs)

        monkeypatch.setattr(detector, "compute_scores_group", recording)
        return calls

    def test_group_interprets_in_one_call(self, four_pairs, monkeypatch):
        calls = self._recording(monkeypatch)
        results = execute_batched_jobs(four_pairs[:3])
        assert all(result.ok for result in results)
        assert calls == [3]

    def test_lone_job_left_by_the_cache_interprets_per_job(
            self, four_pairs, tmp_path, monkeypatch):
        """One job left to train after cache hits trains alone on the
        stacked trainer and interprets per job, with the per-job result."""
        cache = ResultCache(str(tmp_path / "cache"))
        pairs = four_pairs[:2]
        JobExecutor(max_workers=1, cache=cache).run(pairs[:1])
        expected = JobExecutor(max_workers=1, cache=None).run(pairs[1:])[0]
        calls = self._recording(monkeypatch)
        results = execute_batched_jobs(pairs, cache=cache)
        assert calls == []
        assert results[0].cached and results[0].ok
        assert results[1].ok and not results[1].cached
        assert sorted(edge.as_tuple() for edge in results[1].graph.edges) \
            == sorted(edge.as_tuple() for edge in expected.graph.edges)
        assert results[1].scores.f1 == expected.scores.f1


class TestCaching:
    def test_batched_results_cached(self, four_pairs, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        executor = JobExecutor(max_workers=1, cache=cache, batch_jobs=True)
        first = executor.run(four_pairs)
        assert all(not result.cached for result in first)
        second = executor.run(four_pairs)
        assert all(result.cached for result in second)
        for result_a, result_b in zip(first, second):
            assert sorted(edge.as_tuple() for edge in result_a.graph.edges) \
                == sorted(edge.as_tuple() for edge in result_b.graph.edges)


class TestSingleKernelExecution:
    """Single-kernel ablation groups run stacked with identical results."""

    def test_single_kernel_group_identical_to_sequential(self):
        config = dict(CONFIG, single_kernel=True)
        pairs = [causalformer_pair(seed, config=config) for seed in range(2)]
        indexed = list(enumerate(pairs))
        groups, singles = group_batchable(indexed)
        assert len(groups) == 1 and not singles
        sequential = JobExecutor(max_workers=1, cache=None).run(pairs)
        batched = JobExecutor(max_workers=1, cache=None,
                              batch_jobs=True).run(pairs)
        for result_a, result_b in zip(sequential, batched):
            assert result_a.ok and result_b.ok
            edges_a = sorted(edge.as_tuple() for edge in result_a.graph.edges)
            edges_b = sorted(edge.as_tuple() for edge in result_b.graph.edges)
            assert edges_a == edges_b
            assert result_a.scores.f1 == result_b.scores.f1


class TestUnequalWindowCounts:
    """Same config on different-length datasets must not stack (their window
    counts differ), and the sweep still completes via the per-job path."""

    def test_unequal_lengths_stay_single_and_succeed(self):
        pairs = [causalformer_pair(0, length=160),
                 causalformer_pair(1, length=200)]
        indexed = list(enumerate(pairs))
        groups, singles = group_batchable(indexed)
        assert groups == [] and len(singles) == 2
        results = JobExecutor(max_workers=1, cache=None,
                              batch_jobs=True).run(pairs)
        assert all(result.ok for result in results)
        assert [result.job.seed for result in results] == [0, 1]

    def test_min_group_minus_one_stays_single(self):
        """A group of MIN_GROUP - 1 batchable jobs falls back to per-job
        dispatch (a stacked pass of one model is pure overhead)."""
        from repro.service.batched import MIN_GROUP

        pairs = [causalformer_pair(seed) for seed in range(MIN_GROUP - 1)]
        indexed = list(enumerate(pairs))
        groups, singles = group_batchable(indexed)
        assert groups == [] and len(singles) == MIN_GROUP - 1
        results = JobExecutor(max_workers=1, cache=None,
                              batch_jobs=True).run(pairs)
        assert all(result.ok for result in results)


class TestShapeGrouping:
    """Jobs group by exact signature: configuration up to the seed, and the
    dataset's (N, T) shape."""

    def test_lengths_group_exactly(self):
        pairs = [causalformer_pair(seed, length=length)
                 for seed, length in enumerate([160, 200, 160])]
        indexed = list(enumerate(pairs))
        groups, singles = group_batchable(indexed)
        assert len(groups) == 1
        assert sorted(index for index, _pair in groups[0]) == [0, 2]
        assert [index for index, _pair in singles] == [1]

    @pytest.mark.parametrize("trial", range(4))
    def test_random_shape_mixes_partition_exactly(self, trial):
        """Property: whatever the shape mix, every job lands in exactly one
        group or the per-job leftovers, groups meet MIN_GROUP and share one
        signature, and no leftover shares its signature with a group."""
        import numpy as np

        from repro.service.batched import (MIN_GROUP, batch_signature)

        rng = np.random.default_rng(trial)
        lengths = [160, 168, 176, 200, 240, 300]
        configs = [dict(CONFIG), dict(CONFIG, single_kernel=True)]
        pairs = []
        for seed in range(int(rng.integers(5, 12))):
            pairs.append(causalformer_pair(
                seed, length=int(rng.choice(lengths)),
                config=configs[int(rng.integers(0, 2))]))
        indexed = list(enumerate(pairs))
        groups, singles = group_batchable(indexed)
        seen = sorted([index for group in groups for index, _pair in group]
                      + [index for index, _pair in singles])
        assert seen == list(range(len(pairs)))
        group_signatures = []
        for group in groups:
            assert len(group) >= MIN_GROUP
            signatures = {batch_signature(job, data)
                          for _idx, (job, data) in group}
            assert len(signatures) == 1
            group_signatures.extend(signatures)
            assert len({data.values.shape for _idx, (_job, data)
                        in group}) == 1
        assert len(set(group_signatures)) == len(groups)
        for _idx, (job, data) in singles:
            assert batch_signature(job, data) not in group_signatures

    def test_mixed_shape_group_executes_identically(self):
        """A sweep over two lengths forms one group per length and returns
        results bit-identical to per-job dispatch."""
        from repro.telemetry import capture, reset

        pairs = [causalformer_pair(seed, length=length)
                 for seed, length in enumerate([160, 200, 160, 200])]
        groups, singles = group_batchable(list(enumerate(pairs)))
        assert not singles
        assert [sorted(index for index, _pair in group)
                for group in groups] == [[0, 2], [1, 3]]
        sequential = JobExecutor(max_workers=1, cache=None).run(pairs)
        try:
            with capture() as telemetry:
                batched = JobExecutor(max_workers=1, cache=None,
                                      batch_jobs=True).run(pairs)
        finally:
            reset(close=False)
        spans = [record for record in telemetry.records()
                 if record.get("kind") == "span"
                 and record.get("name") == "train_fit_stacked"]
        assert [span["attrs"]["models"] for span in spans] == [2, 2]
        for result_a, result_b in zip(sequential, batched):
            assert result_a.ok and result_b.ok
            edges_a = sorted(edge.as_tuple() for edge in result_a.graph.edges)
            edges_b = sorted(edge.as_tuple() for edge in result_b.graph.edges)
            assert edges_a == edges_b
            assert result_a.scores.f1 == result_b.scores.f1
        assert [result.job.seed for result in batched] == [0, 1, 2, 3]


class TestCacheAwareGrouping:
    def test_cached_jobs_never_anchor_a_bucket(self, tmp_path):
        """A job already answered by the cache goes to the leftovers, so it
        neither anchors a bucket nor occupies a lane."""
        cache = ResultCache(str(tmp_path / "cache"))
        pairs = [causalformer_pair(seed) for seed in range(3)]
        # Prime the cache with job 0's result.
        JobExecutor(max_workers=1, cache=cache).run(pairs[:1])
        indexed = list(enumerate(pairs))
        groups, singles = group_batchable(indexed, cache=cache)
        assert [index for index, _pair in singles] == [0]
        assert len(groups) == 1
        assert sorted(index for index, _pair in groups[0]) == [1, 2]

    def test_admission_consults_cache(self, tmp_path):
        """execute_batched_jobs answers cached members from disk and trains
        only the rest — the cached job never occupies a lane."""
        from repro.core.batched import StackedCausalFormerTrainer

        cache = ResultCache(str(tmp_path / "cache"))
        pairs = [causalformer_pair(seed) for seed in range(3)]
        JobExecutor(max_workers=1, cache=cache).run(pairs[:1])

        trained = []
        original = StackedCausalFormerTrainer.__init__

        def recording(self, models):
            trained.append(len(models))
            return original(self, models)

        import repro.core.batched as core_batched
        try:
            core_batched.StackedCausalFormerTrainer.__init__ = recording
            results = execute_batched_jobs(pairs, cache=cache)
        finally:
            core_batched.StackedCausalFormerTrainer.__init__ = original
        assert len(results) == 3
        assert results[0].cached and results[0].ok
        assert not results[1].cached and not results[2].cached
        assert all(result.ok for result in results)
        assert trained == [2]

    def test_fully_cached_bucket_skips_training(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        pairs = [causalformer_pair(seed) for seed in range(2)]
        JobExecutor(max_workers=1, cache=cache).run(pairs)
        results = execute_batched_jobs(pairs, cache=cache)
        assert len(results) == 2
        assert all(result.cached and result.ok for result in results)


class TestSchedulerTelemetry:
    def test_lane_lifecycle_is_observable(self):
        """The stacked scheduler reports its lane occupancy and compaction
        churn."""
        from repro.telemetry import capture, reset

        pairs = [causalformer_pair(seed) for seed in range(3)]
        try:
            with capture() as telemetry:
                results = execute_batched_jobs(pairs)
        finally:
            reset(close=False)
        assert all(result.ok for result in results)

        def events(name):
            return [record for record in telemetry.records()
                    if record.get("kind") == "event"
                    and record.get("name") == name]

        # Every trained job's lane retires through compaction.
        assert len(events("lane_compacted")) == 3
        assert telemetry.gauge("scheduler.lanes_active").value == 0.0
