"""Batched sweep execution must beat per-job dispatch on same-shape jobs.

Four same-shape CausalFormer discovery jobs (the ``sweep_batched`` bench
fixture) run through the executor both ways; the stacked pass must be
faster — it replaces four per-model numpy call sequences with one — while
returning identical graphs and scores (the unit tests in
``tests/service/test_batched_jobs.py`` pin identity on every field; this
module pins the speed claim with a committed margin).
"""

import statistics
import time

from repro.service import bench
from repro.service.executor import JobExecutor


def interleaved_medians(pairs, first, second):
    """Median wall time of ``first`` and of ``second`` over ``pairs`` pairs.

    Each pair runs both calls back to back, alternating which goes first,
    so load from other processes lands on both sides alike instead of on
    whichever happened to run during it.
    """
    first()   # warm-up (imports, caches) outside the measurement
    second()
    calls = (first, second)
    samples = ([], [])
    for index in range(pairs):
        for side in ((0, 1) if index % 2 == 0 else (1, 0)):
            start = time.perf_counter()
            calls[side]()
            samples[side].append(time.perf_counter() - start)
    return statistics.median(samples[0]), statistics.median(samples[1])


def test_batched_sweep_faster_than_per_job_dispatch():
    pairs = bench._sweep_pairs()
    sequential = JobExecutor(max_workers=1, cache=None)
    batched = JobExecutor(max_workers=1, cache=None, batch_jobs=True)
    batched_median, sequential_median = interleaved_medians(
        6, lambda: batched.run(pairs), lambda: sequential.run(pairs))
    assert batched_median < sequential_median, (
        f"batched sweep took {batched_median:.3f}s (median of 6), per-job "
        f"dispatch {sequential_median:.3f}s — stacking should win on 4 "
        "same-shape jobs")


def test_batched_sweep_matches_per_job_results():
    pairs = bench._sweep_pairs()
    sequential = JobExecutor(max_workers=1, cache=None).run(pairs)
    batched = JobExecutor(max_workers=1, cache=None, batch_jobs=True).run(pairs)
    for result_a, result_b in zip(sequential, batched):
        assert result_a.ok and result_b.ok
        assert sorted(edge.as_tuple() for edge in result_a.graph.edges) \
            == sorted(edge.as_tuple() for edge in result_b.graph.edges)
        assert result_a.scores.f1 == result_b.scores.f1

def test_hetero_sweep_faster_than_per_job_dispatch():
    """Mixed-length jobs (the ``sweep_hetero`` fixture) must also win
    stacked: three exact-shape groups of two amortise the dispatch
    overhead of six jobs at three lengths."""
    pairs = bench._hetero_sweep_pairs()
    sequential = JobExecutor(max_workers=1, cache=None)
    batched = JobExecutor(max_workers=1, cache=None, batch_jobs=True)
    batched_median, sequential_median = interleaved_medians(
        6, lambda: batched.run(pairs), lambda: sequential.run(pairs))
    assert batched_median < sequential_median, (
        f"hetero batched sweep took {batched_median:.3f}s (median of 6), "
        f"per-job dispatch {sequential_median:.3f}s — exact-shape groups "
        "should win on 6 jobs at 3 lengths")


def test_hetero_sweep_matches_per_job_results():
    pairs = bench._hetero_sweep_pairs()
    sequential = JobExecutor(max_workers=1, cache=None).run(pairs)
    batched = JobExecutor(max_workers=1, cache=None,
                          batch_jobs=True).run(pairs)
    for result_a, result_b in zip(sequential, batched):
        assert result_a.ok and result_b.ok
        assert sorted(edge.as_tuple() for edge in result_a.graph.edges) \
            == sorted(edge.as_tuple() for edge in result_b.graph.edges)
        assert result_a.scores.f1 == result_b.scores.f1
