"""End-to-end benchmark of CausalFormer discovery.

Usage::

    python3 perfbench/run.py --workload lorenz10_discover --seed 1 \\
        --seconds 16 --trace 0

Run from the root of a checkout.  A run starts ``PROCESSES`` fresh Python
processes one after another (``session.py``); each sets up (imports,
generates the inputs from ``--seed``, runs one warm-up operation) and then
measures for its share of ``--seconds``.  The run checks every output,
writes a full report with the host fingerprint to ``perfbench/out/`` and
prints, as the last line of standard output::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones from the traced phase (see ``tracing.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

#: processes per run: each sets up once, so set-up is a median of these
PROCESSES = 2
#: a run must end well inside the 180 s every run is allowed
DEADLINE_S = 170.0


def declared_units(trace: int) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in declared}


def spawn(args, index: int, deadline: float) -> dict:
    command = [sys.executable, os.path.join(HERE, "session.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--budget", repr(args.seconds / PROCESSES),
               "--trace", str(args.trace), "--index", str(index),
               "--spawned", repr(time.time())]
    if args.trace:
        command += ["--spans", os.path.join(
            OUT, f"{args.workload}-seed{args.seed}-spans{index}.jsonl")]
    # The program's own settings stay at their defaults: no fault plan, no
    # thread or debug overrides leak in from the caller's environment.
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=max(deadline - time.time(), 1))
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"benchmark process {index} exited with "
                           f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check(reports: List[dict]) -> List[dict]:
    """Mark failed operations; returns every operation of the run.

    An operation fails when it raised, a job failed or came from a cache,
    a graph is malformed, or its graphs differ from an earlier repeat of
    the same variant anywhere in the run (the engines are deterministic).
    """
    first_digest: Dict[int, str] = {}
    ops = []
    for report in reports:
        for op in report["ops"]:
            digest = op["digest"]
            if digest is not None:
                expected = first_digest.setdefault(op["variant"], digest)
                if digest != expected:
                    op["failures"].append(
                        f"variant {op['variant']}: graphs differ from an "
                        f"earlier repeat ({digest[:12]} != {expected[:12]})")
            ops.append(op)
    return ops


def quality(ops: List[dict], key: str) -> float:
    """Mean ``key`` over the anchor's inputs, from the first operation that
    ran them (repeats are identical, or they fail the determinism check)."""
    for op in ops:
        if op["anchor"] and op[key]:
            return statistics.fmean(op[key])
    return 0.0


def end_to_end(reports: List[dict], ops: List[dict]) -> Dict[str, float]:
    warm = [op for op in ops if op["phase"] == "warm" and not op["failures"]]
    walls = [op["wall_s"] for op in warm]
    failed = sum(1 for op in ops if op["failures"])
    return {
        "wall_s": statistics.median(walls),
        "jobs_per_s": sum(op["jobs"] for op in warm) / sum(walls),
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
        "f1": quality(ops, "f1"),
        "delay_precision": quality(ops, "delay_precision"),
        "success_rate": 1.0 - failed / len(ops),
    }


def per_layer(ops: List[dict]) -> Dict[str, float]:
    traced = [op for op in ops if op["phase"] == "traced"
              and not op["failures"]]
    untraced = [op["wall_s"] for op in ops
                if op["phase"] == "warm" and not op["failures"]]
    metrics = {}
    for name in traced[0]["layers"] if traced else ():
        metrics[name] = statistics.median(op["layers"][name]
                                          for op in traced)
    traced_wall = statistics.median(op["wall_s"] for op in traced)
    metrics["trace.overhead_s"] = traced_wall - statistics.median(untraced)
    for share, layer in (("share.training_fit", "training.fit_s"),
                         ("share.detector_interpret", "detector.interpret_s"),
                         ("share.batched_fit", "batched.fit_s")):
        metrics[share] = statistics.median(op["layers"][layer] / op["wall_s"]
                                           for op in traced)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end CausalFormer discovery benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.stderr.write(f"error: no program to benchmark under {ROOT}/src "
                         "(run from the root of a checkout)\n")
        return 2
    os.makedirs(OUT, exist_ok=True)

    deadline = time.time() + DEADLINE_S
    reports = [spawn(args, index, deadline) for index in range(PROCESSES)]
    fingerprints = {json.dumps(r["fingerprint"], sort_keys=True)
                    for r in reports}
    if len(fingerprints) != 1:
        sys.stderr.write("error: the run's processes report different host "
                         "fingerprints\n")
        return 1
    ops = check(reports)
    failed = sum(1 for op in ops if op["failures"])
    for op in ops:
        for failure in op["failures"]:
            sys.stderr.write(f"FAILED ({op['phase']}, variant "
                             f"{op['variant']}): {failure}\n")
    if not any(op["phase"] == ("traced" if args.trace else "warm")
               and not op["failures"] for op in ops):
        sys.stderr.write("error: no measured operation succeeded\n")
        return 1
    values = per_layer(ops) if args.trace else end_to_end(reports, ops)
    units = declared_units(args.trace)
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": metrics}

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "fingerprint": reports[0]["fingerprint"], "result": result,
              "processes": reports}
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
    for name, metric in metrics.items():
        sys.stderr.write(f"{name:28s} {metric['value']:12.6g} "
                         f"{metric['unit']}\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
