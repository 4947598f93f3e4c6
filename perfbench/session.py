"""One process of a benchmark run: set up, then operations in a closed loop.

``run.py`` starts several of these one after another; each imports the
program, generates the workload's inputs from the seed, runs one untimed
warm-up operation on the anchor variant (together these are the process's
set-up), then issues
operations one at a time until its share of the measuring time is used.  In
a traced run the process first measures untraced, then installs the
wrappers of :mod:`tracing` and measures again, so the two phases give the
tracing overhead.  The last line of standard output is a JSON report.
"""

import time

_STARTED = time.time()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from tracing import (Tracer, histogram_totals, instrumented,  # noqa: E402
                     layer_metrics)

HERE = os.path.dirname(os.path.abspath(__file__))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_op(workload, index: int, phase: str, tracer=None, telemetry=None):
    """Run variant ``index`` once and reduce it to a JSON-able record."""
    variant = index % len(workload.variants)
    # workloads.variant_seeds puts the anchor first
    record = {"variant": variant, "phase": phase, "anchor": variant == 0}
    mark = len(tracer.spans) if tracer is not None else 0
    before = histogram_totals(telemetry.metrics.snapshot()) \
        if telemetry is not None else None
    # Untimed: every operation starts without garbage left by the previous
    # one, so a collection does not land in one operation's time at random.
    gc.collect()
    try:
        outcome = workload.variants[variant]()
    except Exception:
        record.update(wall_s=None, jobs=0, digest=None, f1=[],
                      delay_precision=[], peak_rss_mb=peak_rss_mb(),
                      failures=["raised:\n" + traceback.format_exc()])
        return record
    record.update(wall_s=outcome.wall_s, jobs=outcome.jobs,
                  digest=outcome.digest, f1=outcome.f1,
                  delay_precision=outcome.delay_precision,
                  failures=outcome.failures, peak_rss_mb=peak_rss_mb())
    if tracer is not None:
        spans = tracer.spans[mark:]
        layers = layer_metrics(spans)
        after = histogram_totals(telemetry.metrics.snapshot())
        layers.update({name: after[name] - before[name] for name in after})
        end = outcome.started + outcome.wall_s
        top = sum(span.duration for span in spans if span.parent is None
                  and outcome.started <= span.start and span.end <= end)
        layers["trace.residual_s"] = outcome.wall_s - top
        record["layers"] = layers
    return record


def closed_loop(workload, first: int, budget: float, phase: str,
                **tracing):
    """Operations one after another until ``budget`` seconds have passed.

    The last operation may end past the budget: a run always measures
    whole operations, at least one.
    """
    records = []
    start = time.perf_counter()
    index = first
    while not records or time.perf_counter() - start < budget:
        records.append(run_op(workload, index, phase, **tracing))
        index += 1
    return records, index


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True,
                        help="measuring seconds for this process")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--index", type=int, default=0,
                        help="this process's place in the run; it picks "
                             "the variant its measuring starts on")
    parser.add_argument("--spawned", type=float, default=_STARTED,
                        help="time.time() when the process was started")
    parser.add_argument("--spans", default=None,
                        help="where a traced process writes its spans")
    args = parser.parse_args(argv)

    root = os.path.dirname(HERE)
    sys.path.insert(0, os.path.join(root, "src"))
    from fingerprint import host_fingerprint
    from workloads import build_workload

    generate_start = time.perf_counter()
    workload = build_workload(args.workload, args.seed)
    generate_s = time.perf_counter() - generate_start
    records = [run_op(workload, 0, "cold")]
    setup_s = time.time() - args.spawned

    budget = args.budget / 2 if args.trace else args.budget
    warm, index = closed_loop(workload, args.index + 1, budget, "warm")
    records += warm
    if args.trace:
        records += traced_phase(workload, index, budget, args.spans)

    report = {
        "fingerprint": host_fingerprint(root),
        "setup_s": setup_s,
        "generate_s": generate_s,
        # After set-up on the anchor: the same work in every run, and not
        # the number of operations that happened to fit in the budget.
        "peak_rss_mb": records[0]["peak_rss_mb"],
        "ops": records,
    }
    print(json.dumps(report))
    return 0


def traced_phase(workload, index: int, budget: float, spans_path):
    """Measure again with every wrapper installed; remove them after."""
    import repro.telemetry

    tracer = Tracer()
    telemetry = repro.telemetry.configure(engine_profiling=True)
    try:
        with instrumented(tracer):
            records, _ = closed_loop(workload, index, budget, "traced",
                                     tracer=tracer, telemetry=telemetry)
    finally:
        repro.telemetry.reset()
    if spans_path:
        tracer.dump(spans_path)
    return records


if __name__ == "__main__":
    sys.exit(main())
