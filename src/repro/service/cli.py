"""Command-line interface: ``python -m repro``.

Subcommands
-----------
``discover``
    Run one method on one dataset and print the recovered graph and scores.
``sweep``
    Run a methods × datasets × seeds sweep through the parallel executor and
    print the aggregated result table.
``cache``
    Inspect (``info``) or empty (``clear``) the on-disk result cache.
``list``
    Show the registered method and dataset names.
``bench``
    Run the perf microbenchmarks (tensor ops, one training step and
    epoch, a small end-to-end fit, inference, detector
    interpretation, batched sweep) and append the next numbered
    ``BENCH_nn.json`` (``BENCH_01.json``, ``BENCH_02.json``, …) with
    speedups against the committed pre-optimization baseline.
``report``
    Render a JSONL telemetry trace (span tree, per-epoch training losses,
    cache hit/miss counts, metrics) written by ``--telemetry jsonl:PATH``.

Every run-producing subcommand shares the executor flags ``--workers``,
``--cache-dir`` / ``--no-cache``, ``--run-dir`` (artifact persistence) and
the telemetry flags ``--telemetry off|stderr|jsonl:PATH`` /
``--profile-engines`` (per-op engine wall-time histograms).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.service.artifacts import ArtifactStore
from repro.service.cache import ResultCache, default_cache_dir
from repro.service.executor import JobExecutor
from repro.service.jobs import DiscoveryJob, fingerprint_dataset
from repro.service.registry import build_dataset, dataset_names, method_names


def _parse_config(entries: Optional[Sequence[str]]) -> Dict[str, Any]:
    """Parse repeated ``key=value`` flags; values are JSON when possible."""
    config: Dict[str, Any] = {}
    for entry in entries or ():
        if "=" not in entry:
            raise SystemExit(f"--config expects key=value, got {entry!r}")
        key, _sep, raw = entry.partition("=")
        try:
            config[key] = json.loads(raw)
        except json.JSONDecodeError:
            config[key] = raw
    return config


def _split_csv(text: str) -> List[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _make_cache(args: argparse.Namespace) -> Optional[ResultCache]:
    if getattr(args, "no_cache", False):
        return None
    return ResultCache(args.cache_dir)


def _parse_lengths(raw) -> List[int]:
    """Sweep ``--length``: one series length, or a comma list cycled across
    seeds (mixed-shape sweeps exercise the shape-bucketed stacked path)."""
    if raw is None:
        return []
    try:
        return [int(item) for item in _split_csv(str(raw))]
    except ValueError:
        raise SystemExit(f"--length expects integers, got {raw!r}")


def _dataset_kwargs(args: argparse.Namespace) -> Dict[str, Any]:
    kwargs: Dict[str, Any] = {}
    if getattr(args, "length", None) is not None:
        kwargs["length"] = args.length
    return kwargs


def _build_dataset_checked(name: str, seed: int, **kwargs: Any):
    """Build a dataset, turning registry/signature errors into clean exits."""
    try:
        return build_dataset(name, seed=seed, **kwargs)
    except (KeyError, TypeError) as error:
        message = error.args[0] if error.args else str(error)
        raise SystemExit(f"error: {message}")


def _format_scores(result) -> str:
    if result.scores is None:
        return "no ground truth — scores unavailable"
    scores = result.scores
    text = f"precision={scores.precision:.3f} recall={scores.recall:.3f} f1={scores.f1:.3f}"
    if scores.precision_of_delay is not None:
        text += f" pod={scores.precision_of_delay:.3f}"
    return text


def _persist(args: argparse.Namespace, results, manifest_extra: Dict[str, Any]) -> Optional[str]:
    if getattr(args, "run_dir", None) is None:
        return None
    run = ArtifactStore(args.run_dir).create_run()
    for result in results:
        run.save_result(result)
        if result.graph is not None:
            run.save_graph(result.job.job_id, result.graph)
    run.write_manifest({
        "command": " ".join(sys.argv[1:]),
        "jobs": [result.job.to_dict() for result in results],
        "errors": sum(1 for result in results if not result.ok),
        **manifest_extra,
    })
    return run.path


# ---------------------------------------------------------------------- #
# Subcommand implementations
# ---------------------------------------------------------------------- #
def _cmd_discover(args: argparse.Namespace) -> int:
    dataset = _build_dataset_checked(args.dataset, args.seed, **_dataset_kwargs(args))
    job = DiscoveryJob(
        method=args.method,
        config=_parse_config(args.config),
        dataset=args.dataset,
        dataset_fingerprint=fingerprint_dataset(dataset),
        seed=args.seed,
        delay_tolerance=args.delay_tolerance,
    )
    executor = JobExecutor(max_workers=args.workers, cache=_make_cache(args),
                           **_executor_kwargs(args))
    result = executor.run_one(job, dataset)
    run_path = _persist(args, [result], {"subcommand": "discover"})

    if not result.ok:
        print(f"job {job.job_id} failed:\n{result.error}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        origin = "cache" if result.cached else f"{result.duration:.2f}s"
        print(f"{job} [{origin}]")
        print(f"discovered {result.graph.n_edges} edges:")
        for edge in result.graph.edges:
            source = result.graph.names[edge.source]
            target = result.graph.names[edge.target]
            print(f"  {source} -> {target} (delay {edge.delay})")
        print(_format_scores(result))
    if run_path:
        print(f"artifacts: {run_path}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.reporting import ResultTable

    methods = _split_csv(args.methods)
    datasets = _split_csv(args.datasets)
    seeds = [int(seed) for seed in _split_csv(args.seeds)]
    config = _parse_config(args.config)

    lengths = _parse_lengths(args.length)
    pairs = []
    for dataset_name in datasets:
        for position, seed in enumerate(seeds):
            kwargs: Dict[str, Any] = {}
            if lengths:
                kwargs["length"] = lengths[position % len(lengths)]
            dataset = _build_dataset_checked(dataset_name, seed, **kwargs)
            fingerprint = fingerprint_dataset(dataset)
            for method in methods:
                job = DiscoveryJob(
                    method=method,
                    config=config if method == args.config_method else {},
                    dataset=dataset_name,
                    dataset_fingerprint=fingerprint,
                    seed=seed,
                    delay_tolerance=args.delay_tolerance,
                )
                pairs.append((job, dataset))

    executor = JobExecutor(max_workers=args.workers, cache=_make_cache(args),
                           batch_jobs=args.batch_jobs,
                           bucket_slack=args.bucket_slack,
                           max_lanes=args.max_lanes,
                           **_executor_kwargs(args))
    results = executor.run(pairs)
    run_path = _persist(args, results, {"subcommand": "sweep", "metric": args.metric})

    table = ResultTable(f"sweep: {args.metric}", metric=args.metric)
    failures = 0
    for result in results:
        value = result.metric(args.metric)
        if not result.ok:
            failures += 1
            print(f"job {result.job.job_id} failed:\n{result.error}", file=sys.stderr)
        table.add(result.job.dataset, result.job.method, value)
    if args.json:
        print(table.to_json())
    else:
        print(table.render())
        cached = sum(1 for result in results if result.cached)
        print(f"\n{len(results)} jobs ({cached} from cache, {failures} failed)")
    if run_path:
        print(f"artifacts: {run_path}")
    return 1 if failures else 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} entries from {cache.directory}")
        return 0
    stats = cache.stats()
    print(f"cache directory: {stats.directory}")
    print(f"entries: {stats.n_entries}")
    print(f"size: {stats.total_bytes} bytes")
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    print("methods: " + ", ".join(method_names()))
    print("datasets: " + ", ".join(dataset_names()))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.telemetry.report import render_trace

    try:
        print(render_trace(args.trace))
    except OSError as error:
        print(f"error: cannot read trace {args.trace!r}: {error}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.service import bench

    if args.trajectory:
        # Summarize the committed BENCH_01..NN trajectory (per payload:
        # ms per report + speedup vs the previous and the first report)
        # without running any benchmarks.
        print(bench.render_trajectory())
        return 0

    names = _split_csv(args.only) if args.only else None
    print(f"running {'smoke' if args.smoke else 'full'} microbenchmarks "
          f"({', '.join(names or bench.PAYLOADS)}):")
    # Resolve the reference before writing the report, so ``latest`` never
    # points at the report this very run is about to produce.  Only resolved
    # when the gate will actually use it — a bad --reference must not stop
    # a plain bench run from writing its report.
    reference = None
    if args.check_regression:
        if args.reference == "latest":
            reference_path = bench.latest_report_path()
            if reference_path is not None:
                with open(reference_path, "r", encoding="utf-8") as handle:
                    reference = json.load(handle)
        elif args.reference:
            with open(args.reference, "r", encoding="utf-8") as handle:
                reference = json.load(handle)
    report = bench.run_suite(smoke=args.smoke, names=names, progress=print)
    speedups = report.get("speedup_vs_baseline")
    if speedups:
        rendered = "  ".join(f"{name} {value:.2f}x" for name, value in speedups.items())
        print(f"speedup vs pre-optimization baseline: {rendered}")
    ratio = report.get("telemetry_overhead_ratio")
    if ratio is not None:
        print(f"telemetry-off overhead on train_epoch: {(ratio - 1.0):+.1%} "
              f"(instrumented/raw ratio {ratio:.4f})")
        if args.max_telemetry_overhead is not None \
                and ratio > 1.0 + args.max_telemetry_overhead:
            print(f"REGRESSION: telemetry-off train_epoch overhead "
                  f"{(ratio - 1.0):.1%} exceeds the "
                  f"{args.max_telemetry_overhead:.1%} budget", file=sys.stderr)
            return 1
    path = bench.write_report(report, args.output)
    print(f"report written to {path}")
    if args.check_regression:
        keys = _split_csv(args.regression_keys) if args.regression_keys \
            else list(bench.REGRESSION_KEYS)
        unknown = [key for key in keys if key not in report.get("timings", {})]
        if unknown:
            print(f"error: regression keys not measured in this run: "
                  f"{', '.join(unknown)}", file=sys.stderr)
            return 1
        # A gated key missing from the reference fails loudly inside
        # check_regressions — a gate that silently stops comparing is
        # indistinguishable from one that passes.
        messages = bench.check_regressions(report, args.max_regression,
                                           keys=keys, reference=reference,
                                           normalize_by=args.normalize_by)
        if messages:
            for message in messages:
                print(f"REGRESSION: {message}", file=sys.stderr)
            return 1
        normalized = f" (normalized by {args.normalize_by})" if args.normalize_by else ""
        resolved = reference if reference is not None else report.get("baseline", {})
        if (resolved or {}).get("timings"):
            print(f"regression check passed ({', '.join(keys)} within "
                  f"{args.max_regression:.0%} of reference{normalized})")
        else:
            print("regression check ran against no comparable benchmarks")
    return 0


# ---------------------------------------------------------------------- #
# Argument parsing
# ---------------------------------------------------------------------- #
def _add_executor_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=1,
                        help="process-pool size (1 = in-process, default)")
    parser.add_argument("--cache-dir", default=default_cache_dir(),
                        help="result-cache directory (default: %(default)s)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the result cache for this run")
    parser.add_argument("--run-dir", default=None,
                        help="persist graphs/results/manifest under this artifact root")
    parser.add_argument("--delay-tolerance", type=int, default=0,
                        help="slots of slack when scoring causal delays")
    parser.add_argument("--json", action="store_true",
                        help="print machine-readable JSON instead of text")
    parser.add_argument("--retries", type=int, default=0,
                        help="extra attempts for jobs whose execution errors "
                             "(worker deaths and timeouts always get one "
                             "free retry)")
    parser.add_argument("--retry-backoff", type=float, default=0.5,
                        metavar="SECONDS",
                        help="exponential backoff base between attempts, "
                             "with deterministic jitter (default: "
                             "%(default)s)")
    parser.add_argument("--job-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-job wall-clock budget under --workers > 1; "
                             "overrunning workers are killed and the job "
                             "retried")
    parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="snapshot fit state here so retried/re-run jobs "
                             "resume training bit-identically")
    parser.add_argument("--checkpoint-every", type=int, default=1,
                        metavar="N",
                        help="save a fit snapshot every N epochs "
                             "(default: %(default)s)")
    parser.add_argument("--faults", default=None, metavar="PLAN",
                        help="deterministic fault-injection plan, e.g. "
                             "'kill@dispatch=2,raise@train_step=7' "
                             "(overrides REPRO_FAULTS; chaos testing only)")
    _add_engine_threads_flag(parser)
    _add_telemetry_flags(parser)


def _executor_kwargs(args: argparse.Namespace) -> Dict[str, Any]:
    """Fault-tolerance knobs shared by the discover and sweep executors."""
    return {
        "retries": args.retries,
        "retry_backoff": args.retry_backoff,
        "job_timeout": args.job_timeout,
        "checkpoint_dir": args.checkpoint_dir,
        "checkpoint_every": args.checkpoint_every,
    }


def _add_engine_threads_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--engine-threads", type=int, default=None,
                        metavar="N",
                        help="threads per fused engine (default: "
                             "REPRO_ENGINE_THREADS or 1 = serial; results "
                             "are bit-identical at any thread count)")


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--telemetry", default=None, metavar="SPEC",
                        help="telemetry sinks: off, stderr, jsonl:PATH or a "
                             "comma-separated combination (default: off)")
    parser.add_argument("--profile-engines", action="store_true",
                        help="record per-op engine wall-time histograms "
                             "(requires --telemetry)")


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="CausalFormer reproduction: causal-discovery jobs, sweeps and cache.")
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    discover = commands.add_parser("discover", help="run one method on one dataset")
    discover.add_argument("--dataset", required=True, choices=dataset_names())
    discover.add_argument("--method", default="causalformer", choices=method_names())
    discover.add_argument("--seed", type=int, default=0)
    discover.add_argument("--length", type=int, default=None,
                          help="series length (dataset default when omitted)")
    discover.add_argument("--config", action="append", metavar="KEY=VALUE",
                          help="method configuration override (repeatable)")
    _add_executor_flags(discover)
    discover.set_defaults(handler=_cmd_discover)

    sweep = commands.add_parser("sweep", help="run a methods × datasets × seeds sweep")
    sweep.add_argument("--datasets", required=True,
                       help="comma-separated dataset names")
    sweep.add_argument("--methods", default="causalformer",
                       help="comma-separated method names")
    sweep.add_argument("--seeds", default="0", help="comma-separated seeds")
    sweep.add_argument("--length", default=None,
                       help="series length, or a comma-separated list cycled "
                            "across seeds (dataset default when omitted)")
    sweep.add_argument("--metric", default="f1",
                       choices=("f1", "precision", "recall", "precision_of_delay"))
    sweep.add_argument("--config", action="append", metavar="KEY=VALUE",
                       help="configuration overrides for --config-method")
    sweep.add_argument("--config-method", default="causalformer",
                       help="method that receives the --config overrides")
    sweep.add_argument("--bucket-slack", type=float, default=0.0,
                       help="relative series-length slack for stacking "
                            "mixed-shape jobs (0 = exact shapes only)")
    sweep.add_argument("--max-lanes", type=int, default=None,
                       help="cap on live stacked lanes per group; the rest "
                            "queue and refill freed lanes")
    sweep.add_argument("--batch-jobs", action="store_true",
                       help="pack same-shape causalformer jobs into stacked "
                            "training passes (identical results, faster)")
    _add_executor_flags(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

    cache = commands.add_parser("cache", help="inspect or clear the result cache")
    cache.add_argument("action", choices=("info", "clear"))
    cache.add_argument("--cache-dir", default=default_cache_dir())
    cache.set_defaults(handler=_cmd_cache)

    listing = commands.add_parser("list", help="list registered methods and datasets")
    listing.set_defaults(handler=_cmd_list)

    bench = commands.add_parser(
        "bench", help="run perf microbenchmarks and append the next BENCH_nn.json")
    bench.add_argument("--smoke", action="store_true",
                       help="fewer repeats (CI mode)")
    bench.add_argument("--only", default=None,
                       help="comma-separated benchmark names (default: all)")
    bench.add_argument("--output", default=None,
                       help="report path (default: the next free BENCH_nn.json "
                            "slot, so successive runs append to the trajectory)")
    bench.add_argument("--check-regression", action="store_true",
                       help="fail when a gated benchmark regresses vs the reference")
    bench.add_argument("--reference", default=None,
                       help="reference report for the regression check; "
                            "'latest' uses the newest committed BENCH_nn.json "
                            "(default: the embedded pre-optimization baseline)")
    from repro.service.bench import REGRESSION_KEYS

    bench.add_argument("--regression-keys", default=None,
                       help="comma-separated benchmarks to gate "
                            f"(default: {','.join(REGRESSION_KEYS)})")
    bench.add_argument("--trajectory", action="store_true",
                       help="print the BENCH_01..NN per-payload timing "
                            "trajectory (ms + speedups) and exit")
    bench.add_argument("--max-regression", type=float, default=0.25,
                       help="allowed slowdown fraction (default: %(default)s)")
    bench.add_argument("--normalize-by", default=None, metavar="BENCHMARK",
                       help="gate on the ratio vs this same-run benchmark "
                            "(hardware-independent, e.g. tensor_ops)")
    bench.add_argument("--max-telemetry-overhead", type=float, default=None,
                       metavar="FRACTION",
                       help="fail when the telemetry-off train_epoch overhead "
                            "(train_epoch/telemetry_overhead - 1, same run) "
                            "exceeds this fraction (e.g. 0.02)")
    _add_engine_threads_flag(bench)
    _add_telemetry_flags(bench)
    bench.set_defaults(handler=_cmd_bench)

    trace_report = commands.add_parser(
        "report", help="render a JSONL telemetry trace written by "
                       "--telemetry jsonl:PATH")
    trace_report.add_argument("trace", help="path to the .jsonl trace file")
    trace_report.set_defaults(handler=_cmd_report)

    from repro.analysis import cli as analysis_cli

    lint = commands.add_parser(
        "lint", help="statically check the engine invariants "
                     "(arena allocation, dtype purity, parallel outputs, "
                     "telemetry guards, no print)")
    analysis_cli.add_arguments(lint)
    lint.set_defaults(handler=analysis_cli.run)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    engine_threads = getattr(args, "engine_threads", None)
    if engine_threads is not None:
        from repro.nn.parallel import set_engine_threads

        try:
            set_engine_threads(engine_threads)
        except ValueError as error:
            raise SystemExit(f"error: {error}")
    plan = getattr(args, "faults", None)
    if plan is not None:
        from repro import faults

        try:
            faults.configure(plan)
        except faults.FaultSpecError as error:
            raise SystemExit(f"error: {error}")
    try:
        return _run_with_telemetry(args)
    finally:
        if plan is not None:
            from repro import faults

            # Back to the REPRO_FAULTS-derived default for embedders that
            # call main() repeatedly.
            faults.reset()


def _run_with_telemetry(args: argparse.Namespace) -> int:
    spec = getattr(args, "telemetry", None)
    profile = getattr(args, "profile_engines", False)
    if not spec and not profile:
        return args.handler(args)
    from repro.telemetry import configure, reset

    try:
        configure(spec, engine_profiling=profile)
    except ValueError as error:
        raise SystemExit(f"error: {error}")
    try:
        return args.handler(args)
    finally:
        # Flush/close the sinks (emitting the final metrics snapshot) and
        # restore the null runtime even when the handler raises.
        reset()


if __name__ == "__main__":
    sys.exit(main())
