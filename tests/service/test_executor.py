"""Job executor: serial/parallel equivalence, caching, error capture."""

import numpy as np
import pytest

from repro.data import fork_dataset
from repro.service import DiscoveryJob, JobExecutor, ResultCache, fingerprint_dataset


@pytest.fixture(scope="module")
def fork_pairs():
    """Three cheap jobs (two methods × seeds) on small fork datasets."""
    pairs = []
    for seed in (0, 1):
        dataset = fork_dataset(seed=seed, length=140)
        fingerprint = fingerprint_dataset(dataset)
        pairs.append((DiscoveryJob(method="var_granger", dataset="fork",
                                   dataset_fingerprint=fingerprint, seed=seed),
                      dataset))
    dataset = fork_dataset(seed=0, length=140)
    pairs.append((DiscoveryJob(method="cmlp", config={"epochs": 4}, dataset="fork",
                               dataset_fingerprint=fingerprint_dataset(dataset),
                               seed=0), dataset))
    return pairs


def _summaries(results):
    return [(result.job.method, result.job.seed, result.scores.f1,
             [edge.as_tuple() for edge in result.graph.edges])
            for result in results]


class TestExecution:
    def test_results_keep_submission_order(self, fork_pairs):
        results = JobExecutor(max_workers=1).run(fork_pairs)
        assert [result.job for result in results] == [job for job, _ in fork_pairs]
        assert all(result.ok for result in results)

    def test_parallel_equals_serial(self, fork_pairs):
        serial = JobExecutor(max_workers=1).run(fork_pairs)
        parallel = JobExecutor(max_workers=2).run(fork_pairs)
        assert _summaries(serial) == _summaries(parallel)

    def test_run_one(self, fork_pairs):
        job, dataset = fork_pairs[0]
        result = JobExecutor().run_one(job, dataset)
        assert result.ok and result.scores.f1 > 0.0

    def test_worker_count_validation(self):
        with pytest.raises(ValueError):
            JobExecutor(max_workers=0)
        assert JobExecutor(max_workers=None).max_workers >= 1


class TestErrorCapture:
    def test_one_crash_does_not_kill_the_sweep(self, fork_pairs):
        job, dataset = fork_pairs[0]
        # window longer than the series → the facade raises inside the job
        bad = DiscoveryJob(method="causalformer", config={"window": 10_000},
                           dataset="fork",
                           dataset_fingerprint=job.dataset_fingerprint, seed=0)
        results = JobExecutor(max_workers=1).run([(bad, dataset), (job, dataset)])
        assert not results[0].ok
        assert "ValueError" in results[0].error
        assert results[1].ok

    def test_non_finite_input_is_a_job_error(self):
        dataset = fork_dataset(seed=0, length=140)
        dataset.values[0, 10] = np.nan
        job = DiscoveryJob(method="causalformer", config={"max_epochs": 2},
                           dataset="fork",
                           dataset_fingerprint=fingerprint_dataset(dataset),
                           seed=0)
        result = JobExecutor(max_workers=1).run([(job, dataset)])[0]
        assert not result.ok
        assert "series 'S0' holds the non-finite value nan at step 10" \
            in result.error

    def test_unknown_method_is_captured(self, fork_pairs):
        job, dataset = fork_pairs[0]
        bad = DiscoveryJob(method="no-such-method", dataset="fork", seed=0)
        result = JobExecutor().run_one(bad, dataset)
        assert not result.ok and "unknown method" in result.error


class TestCaching:
    def test_second_run_is_served_from_cache(self, fork_pairs, tmp_path):
        executor = JobExecutor(max_workers=1, cache=str(tmp_path))
        cold = executor.run(fork_pairs)
        warm = executor.run(fork_pairs)
        assert not any(result.cached for result in cold)
        assert all(result.cached for result in warm)
        assert _summaries(cold) == _summaries(warm)

    def test_cache_shared_between_executors(self, fork_pairs, tmp_path):
        cache = ResultCache(tmp_path / "shared")
        JobExecutor(cache=cache).run(fork_pairs)
        warm = JobExecutor(max_workers=2, cache=cache).run(fork_pairs)
        assert all(result.cached for result in warm)

    def test_failures_are_not_cached(self, fork_pairs, tmp_path):
        _job, dataset = fork_pairs[0]
        bad = DiscoveryJob(method="causalformer", config={"window": 10_000},
                           dataset="fork", seed=0)
        executor = JobExecutor(cache=str(tmp_path))
        executor.run_one(bad, dataset)
        assert bad.cache_key() not in executor.cache

    def test_different_seeds_do_not_collide(self, fork_pairs, tmp_path):
        executor = JobExecutor(cache=str(tmp_path))
        results = executor.run(fork_pairs[:2])  # same method, seeds 0 and 1
        assert results[0].job.cache_key() != results[1].job.cache_key()


class TestBatchedDtypePropagation:
    """Batched pool tasks must adopt the submitter's engine dtype, exactly
    like per-job pool tasks do via ``execute_job_with_dtype``."""

    @pytest.fixture(scope="class")
    def batchable_pairs(self):
        from repro.service.jobs import DiscoveryJob as Job
        from repro.service.jobs import fingerprint_dataset as fingerprint

        config = {"window": 12, "d_model": 16, "d_qk": 16, "d_ffn": 16,
                  "n_heads": 2, "batch_size": 16, "window_stride": 2,
                  "max_epochs": 2, "patience": 1000,
                  "max_detector_windows": 4}
        pairs = []
        for seed in (0, 1):
            dataset = fork_dataset(seed=seed, length=150)
            pairs.append((Job(method="causalformer", config=dict(config),
                              dataset="fork",
                              dataset_fingerprint=fingerprint(dataset),
                              seed=seed), dataset))
        return pairs

    def test_batched_worker_entry_adopts_dtype(self, batchable_pairs):
        import numpy as np

        from repro.nn.tensor import (default_dtype, get_default_dtype,
                                     set_default_dtype)
        from repro.service.batched import (execute_batched_jobs,
                                           execute_batched_jobs_with_dtype)

        with default_dtype(np.float64):
            expected = _summaries(execute_batched_jobs(batchable_pairs))
        previous = get_default_dtype()
        try:
            # The worker entry point sets the engine dtype itself — calling
            # it under the (float32) default must reproduce the float64 run.
            got = _summaries(
                execute_batched_jobs_with_dtype(batchable_pairs, "float64"))
        finally:
            set_default_dtype(previous)
        assert got == expected

    def test_pooled_batched_group_matches_inline_float64(self, batchable_pairs):
        import numpy as np

        from repro.nn.tensor import default_dtype

        with default_dtype(np.float64):
            inline = JobExecutor(max_workers=1, batch_jobs=True) \
                .run(batchable_pairs)
            pooled = JobExecutor(max_workers=2, batch_jobs=True) \
                .run(batchable_pairs)
        assert all(result.ok for result in pooled)
        assert _summaries(inline) == _summaries(pooled)


CHAOS_CONFIG = {"window": 12, "d_model": 16, "d_qk": 16, "d_ffn": 16,
                "n_heads": 2, "batch_size": 16, "window_stride": 2,
                "max_epochs": 3, "patience": 1000, "max_detector_windows": 4}


def _chaos_pairs(n=3, length=140):
    from repro.service.jobs import DiscoveryJob as Job
    from repro.service.jobs import fingerprint_dataset as fingerprint

    pairs = []
    for seed in range(n):
        dataset = fork_dataset(seed=seed, length=length)
        pairs.append((Job(method="causalformer", config=dict(CHAOS_CONFIG),
                          dataset="fork",
                          dataset_fingerprint=fingerprint(dataset),
                          seed=seed), dataset))
    return pairs


def _graphs(results):
    return [result.graph.to_dict() for result in results]


class TestRetryPolicy:
    """Deterministic fault injection exercising every recovery path."""

    @pytest.fixture(scope="class")
    def chaos_pairs(self):
        return _chaos_pairs()

    @pytest.fixture(scope="class")
    def reference(self, chaos_pairs):
        return JobExecutor(max_workers=1).run(chaos_pairs)

    def test_killed_worker_breaks_pool_then_retry_succeeds(self, chaos_pairs,
                                                           reference):
        from repro import faults
        from repro.telemetry import capture

        with faults.override("kill@dispatch=2"):
            with capture() as telemetry:
                results = JobExecutor(max_workers=3,
                                      retry_backoff=0.01).run(chaos_pairs)
        assert all(result.ok for result in results)
        assert _graphs(results) == _graphs(reference)
        # exactly one unit paid an attempt; the innocents rode along free
        assert sorted(result.attempts for result in results) == [1, 1, 2]
        assert telemetry.counter("executor.retries").value == 1.0
        events = [record for record in telemetry.records()
                  if record.get("kind") == "event"
                  and record.get("name") == "job_retry"]
        assert events and events[0]["attrs"]["reason"] == "worker_died"

    def test_inline_error_retry_recovers(self, chaos_pairs, reference):
        from repro import faults

        job, dataset = chaos_pairs[0]
        with faults.override("raise@job=1"):
            result = JobExecutor(max_workers=1, retries=1,
                                 retry_backoff=0.0).run_one(job, dataset)
        assert result.ok and result.attempts == 2
        assert result.graph.to_dict() == reference[0].graph.to_dict()

    def test_inline_batched_group_member_retries(self, chaos_pairs,
                                                 reference):
        """A group member that errors after the stacked-training fallback
        demotes to a solo unit and retries inline, as it does pooled."""
        from repro import faults

        with faults.override("raise@lane_step=1,raise@job=1"):
            results = JobExecutor(max_workers=1, batch_jobs=True, retries=1,
                                  retry_backoff=0.0).run(chaos_pairs)
        assert all(result.ok for result in results)
        assert not any(result.dead_letter for result in results)
        assert sorted(result.attempts for result in results) == [1, 1, 2]
        assert _graphs(results) == _graphs(reference)

    def test_inline_without_retries_keeps_the_error(self, chaos_pairs):
        from repro import faults

        job, dataset = chaos_pairs[0]
        with faults.override("raise@job=1"):
            result = JobExecutor(max_workers=1).run_one(job, dataset)
        assert not result.ok and result.attempts == 1
        assert not result.dead_letter

    def test_exhausted_retries_produce_a_dead_letter(self, chaos_pairs):
        from repro import faults

        job, dataset = chaos_pairs[0]
        with faults.override("raise@job=1,raise@job=2"):
            result = JobExecutor(max_workers=1, retries=1,
                                 retry_backoff=0.0).run_one(job, dataset)
        assert not result.ok
        assert result.dead_letter and result.attempts == 2

    def test_dead_letters_are_not_cached(self, chaos_pairs, tmp_path):
        from repro import faults

        job, dataset = chaos_pairs[0]
        cache = ResultCache(tmp_path / "cache")
        with faults.override("raise@job=1,raise@job=2"):
            result = JobExecutor(max_workers=1, retries=1, retry_backoff=0.0,
                                 cache=cache).run_one(job, dataset)
        assert result.dead_letter
        assert job.cache_key() not in cache
        # the sweep heals on the next run
        healed = JobExecutor(max_workers=1, cache=cache).run_one(job, dataset)
        assert healed.ok

    def test_timeout_kills_and_dead_letters(self, chaos_pairs):
        """A stalled worker is hard-killed at the budget; because the
        worker-side one-shot refires in every fresh process, the unit
        exhausts its attempts and dead-letters instead of wedging."""
        from repro import faults

        with faults.override("delay@job=1:seconds=20"):
            results = JobExecutor(max_workers=2, job_timeout=2.0,
                                  retry_backoff=0.01).run(chaos_pairs[:2])
        for result in results:
            assert not result.ok
            assert result.dead_letter and result.attempts == 2
            assert "wall-clock" in result.error

    def test_backoff_is_deterministic(self, chaos_pairs):
        executor = JobExecutor(retry_backoff=0.5)
        job, _dataset = chaos_pairs[0]
        first = executor._retry_delay(job.cache_key(), 1)
        assert first == executor._retry_delay(job.cache_key(), 1)
        assert 0.25 <= first <= 0.5
        # exponential growth attempt over attempt
        assert executor._retry_delay(job.cache_key(), 3) >= 2 * first
        assert JobExecutor(retry_backoff=0.0)._retry_delay("00", 1) == 0.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            JobExecutor(retries=-1)
        with pytest.raises(ValueError):
            JobExecutor(retry_backoff=-0.1)
        with pytest.raises(ValueError):
            JobExecutor(job_timeout=0)

    @pytest.mark.parametrize("option", [{"checkpoint_dir": "ckpt"},
                                        {"checkpoint_every": 1}])
    def test_removed_checkpoint_options_rejected(self, option):
        # retried jobs refit from scratch; there is no resume to configure
        with pytest.raises(TypeError):
            JobExecutor(**option)


class TestChaosAcceptance:
    """The PR's acceptance bar: sweeps under injected faults finish with
    results bit-identical to fault-free runs, in float64 and float32."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_killed_worker_sweep_is_bit_identical(self, dtype):
        import numpy as np

        from repro import faults
        from repro.nn.tensor import default_dtype

        with default_dtype(np.dtype(dtype)):
            pairs = _chaos_pairs()
            reference = JobExecutor(max_workers=1).run(pairs)
            with faults.override("kill@dispatch=2"):
                survived = JobExecutor(max_workers=3,
                                       retry_backoff=0.01).run(pairs)
        assert all(result.ok for result in survived)
        assert _graphs(survived) == _graphs(reference)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_training_crash_retry_is_bit_identical(self, dtype):
        import numpy as np

        from repro import faults
        from repro.nn.tensor import default_dtype

        with default_dtype(np.dtype(dtype)):
            pairs = _chaos_pairs()
            reference = JobExecutor(max_workers=1).run(pairs)
            with faults.override("raise@train_step=12"):
                survived = JobExecutor(max_workers=1, retries=1,
                                       retry_backoff=0.0).run(pairs)
        assert all(result.ok for result in survived)
        # the crashed job refit from scratch: seeded, so the same graph
        assert _graphs(survived) == _graphs(reference)
        # exactly one job crashed mid-fit and was retried
        assert sorted(result.attempts for result in survived) == [1, 1, 2]
