"""Perf microbenchmarks under pytest-benchmark.

Each payload is the exact workload ``python -m repro bench`` times: tensor-op
autograd round trips, one training step and epoch on the fused engines, a
full small ``Trainer.fit``, validation, interpretation and sweeps.  Timings
land in the pytest-benchmark table; the JSON perf trajectory is written by
the CLI (see ``BENCH_nn.json`` and ``benchmarks/perf/baseline.json``).
"""

import pytest

from repro.service import bench


@pytest.mark.parametrize("name", sorted(bench.PAYLOADS))
def test_microbenchmark(name, benchmark):
    builder, _full, _smoke = bench.PAYLOADS[name]
    run = builder()
    run()  # warm-up outside the measured region
    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=0)


def test_fit_small_beats_committed_baseline():
    """The end-to-end training benchmark must stay ahead of the pre-PR engine.

    The committed baseline (float64 engine, per-slice convolution, per-head
    attention loop) is the floor: even on a noisy machine the optimized
    engine should hold a comfortable margin.
    """
    baseline = bench.load_baseline()
    if baseline is None:
        pytest.skip("no committed baseline")
    stats = bench.time_payload("fit_small", repeats=3)
    reference = baseline["timings"]["fit_small"]["seconds"]
    assert stats["best"] < reference, (
        f"fit_small took {stats['best']:.4f}s; pre-optimization baseline was "
        f"{reference:.4f}s")
