"""Performance microbenchmarks: ``python -m repro bench``.

The suite times the layers the training loop actually exercises —

* ``tensor_ops``    — elementwise/matmul autograd round trips (the
  baselines' substrate, and the CI gate's runner-speed normaliser),
* ``train_step``    — one mini-batch optimiser step through the trainer's
  step path (the fused no-autograd training engine),
* ``train_epoch``   — one epoch of :class:`repro.core.training.Trainer`,
* ``telemetry_overhead`` — the pre-telemetry epoch loop, replayed verbatim
  (the ``train_epoch``/``telemetry_overhead`` ratio gates the telemetry-off
  instrumentation cost),
* ``fit_small``     — a full small ``Trainer.fit`` on a VAR fork dataset,
* ``evaluate``      — ``Trainer._evaluate`` (the no-grad validation pass),
* ``detector_interpret`` — the causality detector's full interpretation,
* ``sweep_batched`` — four same-shape discovery jobs through the executor,
* ``sweep_hetero``  — six mixed-length discovery jobs through the
  continuous-batching path (shape bucketing, pad-and-mask lanes, lane
  compaction and queue refill under ``max_lanes``),
* ``evaluate_stacked``  — four models' validation sets through the stacked
  inference engine (what a batched sweep runs every epoch),
* ``interpret_batched`` — group detector interpretation of four models in
  one stacked pass —

and writes the wall-clock results to the next free ``BENCH_nn.json`` slot
(``BENCH_01.json``, ``BENCH_02.json``, …) together with the committed
pre-optimisation baseline (``benchmarks/perf/baseline.json``), so every PR
appends to the perf trajectory instead of overwriting it.  The payload
definitions are frozen: each baseline entry was produced by this module
running against the engine as it stood *before* the optimisation the entry
tracks, and re-running ``python -m repro bench`` compares the current tree
against it.

``run_suite(smoke=True)`` is the CI entry point: fewer repeats, and the
regression check compares the end-to-end epoch benchmark against the
committed baseline.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: repository root (three levels up from this file: service -> repro -> src -> root)
_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))))

BASELINE_PATH = os.path.join(_ROOT, "benchmarks", "perf", "baseline.json")

#: pattern of the numbered trajectory reports in the repository root
_REPORT_PATTERN = re.compile(r"^BENCH_(\d+)\.json$")

#: benchmark gated by the CI regression check (kept for compatibility)
REGRESSION_KEY = "train_epoch"

#: benchmarks gated by the CI regression check by default; a gated key
#: missing from the reference report fails the check loudly (see
#: :func:`check_regressions`), so the committed trajectory must be
#: regenerated whenever this set grows
REGRESSION_KEYS = ("train_epoch", "train_step", "evaluate",
                   "detector_interpret", "evaluate_stacked",
                   "telemetry_overhead", "train_epoch_threaded",
                   "evaluate_stacked_threaded", "sweep_hetero")


def _numbered_reports(root: Optional[str] = None) -> List[Tuple[int, str]]:
    """Existing ``BENCH_nn.json`` trajectory files, sorted by number."""
    root = root if root is not None else _ROOT
    found: List[Tuple[int, str]] = []
    for name in os.listdir(root):
        match = _REPORT_PATTERN.match(name)
        if match:
            found.append((int(match.group(1)), os.path.join(root, name)))
    return sorted(found)


def latest_report_path(root: Optional[str] = None) -> Optional[str]:
    """The most recent committed trajectory report (``None`` when empty)."""
    reports = _numbered_reports(root)
    return reports[-1][1] if reports else None


def next_output_path(root: Optional[str] = None) -> str:
    """The next free trajectory slot: ``BENCH_01.json``, ``BENCH_02.json``, …

    Successive ``python -m repro bench`` runs append to the trajectory
    instead of overwriting the previous report.
    """
    reports = _numbered_reports(root)
    next_number = (reports[-1][0] + 1) if reports else 1
    root = root if root is not None else _ROOT
    return os.path.join(root, f"BENCH_{next_number:02d}.json")


# ---------------------------------------------------------------------- #
# Payloads.  Each builder returns a zero-argument callable that runs one
# timed iteration; all state is pre-built so timing measures the hot path.
# ---------------------------------------------------------------------- #
def _payload_tensor_ops() -> Callable[[], None]:
    from repro.nn import functional as F
    from repro.nn.tensor import Tensor

    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(128, 128)), requires_grad=True)
    w1 = Tensor(rng.normal(size=(128, 128)) * 0.1, requires_grad=True)
    w2 = Tensor(rng.normal(size=(128, 64)) * 0.1, requires_grad=True)
    bias = Tensor(np.zeros(64), requires_grad=True)

    def run() -> None:
        for parameter in (x, w1, w2, bias):
            parameter.grad = None
        hidden = F.tanh(x @ w1)
        out = F.sigmoid(hidden @ w2 + bias)
        loss = (out * out).mean() + 0.1 * hidden.abs().sum()
        loss.backward()

    return run


def _epoch_fixture():
    from repro.core.config import CausalFormerConfig
    from repro.core.training import Trainer
    from repro.core.transformer import CausalityAwareTransformer

    config = CausalFormerConfig(
        n_series=5, window=16, d_model=24, d_qk=24, d_ffn=24, n_heads=4,
        batch_size=32, window_stride=2, max_epochs=1, seed=0)
    model = CausalityAwareTransformer(config)
    trainer = Trainer(model, config)
    values = np.random.default_rng(3).normal(size=(5, 400))
    windows = trainer.make_windows(values)
    return trainer, windows


def _payload_train_epoch() -> Callable[[], None]:
    trainer, windows = _epoch_fixture()

    def run() -> None:
        trainer._run_epoch(windows, np.random.default_rng(4))

    return run


def _payload_telemetry_overhead() -> Callable[[], None]:
    """The pre-telemetry training epoch loop, replayed verbatim.

    This is ``Trainer._run_epoch`` exactly as it stood before the telemetry
    subsystem: shuffle, per-batch arena gather, fused ``train_step`` — no
    runtime lookup, no ``enabled`` check, no histogram.  Within one report
    the ``train_epoch`` / ``telemetry_overhead`` timing ratio therefore *is*
    the telemetry-off instrumentation cost (the README documents the < 2%
    budget), measured on identical hardware in the same process.
    """
    trainer, windows = _epoch_fixture()
    engine = trainer._training
    batch_size = trainer.config.batch_size

    def run() -> None:
        rng = np.random.default_rng(4)
        order = rng.permutation(windows.shape[0])
        prepared = engine.prepare_windows(windows)
        arena = engine.arena
        tail_shape = prepared.shape[1:]
        losses = []
        for start in range(0, len(order), batch_size):
            indices = order[start:start + batch_size]
            batch = arena.take("train.batch",
                               (len(indices),) + tail_shape, prepared.dtype)
            np.take(prepared, indices, axis=0, out=batch)
            losses.append(engine.train_step(batch))
        float(np.mean(losses)) if losses else float("nan")

    return run


def _payload_train_step() -> Callable[[], None]:
    """One mini-batch optimiser step through the trainer's step path.

    Exactly one batch (32 windows at ``batch_size=32``): shuffle, gather,
    fused forward + backward, Adam update.  The committed baseline was
    measured against the autograd fast path this payload replaced (graph
    construction + ``loss.backward()`` + per-parameter gradient gather).
    """
    trainer, windows = _epoch_fixture()
    batch = np.ascontiguousarray(windows[:32])

    def run() -> None:
        trainer._run_epoch(batch, np.random.default_rng(5))

    return run


def _payload_fit_small() -> Callable[[], None]:
    from repro.core.config import CausalFormerConfig
    from repro.core.training import Trainer
    from repro.core.transformer import CausalityAwareTransformer
    from repro.data import fork_dataset
    from repro.data.windows import zscore_normalize

    # A VAR-process fork dataset, trained for a fixed number of epochs
    # (patience large enough that early stopping never cuts the run short),
    # so the measured wall clock is deterministic in shape across engines.
    values = zscore_normalize(fork_dataset(seed=0, length=320).values)
    config = CausalFormerConfig(
        n_series=values.shape[0], window=16, d_model=24, d_qk=24, d_ffn=24,
        n_heads=4, batch_size=32, window_stride=2, max_epochs=10,
        patience=1000, seed=0)

    def run() -> None:
        model = CausalityAwareTransformer(config)
        Trainer(model, config).fit(values)

    return run


def _payload_evaluate() -> Callable[[], None]:
    """``Trainer._evaluate`` on the epoch fixture's full window set.

    This is the no-gradient forward pass the training loop runs once per
    epoch (and the experiment harness runs per table cell) — the target of
    the fused inference engine.
    """
    trainer, windows = _epoch_fixture()

    def run() -> None:
        trainer._evaluate(windows)

    return run


def _payload_detector_interpret() -> Callable[[], None]:
    """Full detector interpretation (gradients + RRP) on the small fork data."""
    from repro.core.config import CausalFormerConfig
    from repro.core.detector import DecompositionCausalityDetector
    from repro.core.transformer import CausalityAwareTransformer
    from repro.data import fork_dataset
    from repro.data.windows import sliding_windows, zscore_normalize

    values = zscore_normalize(fork_dataset(seed=0, length=160).values)
    config = CausalFormerConfig(
        n_series=values.shape[0], window=16, d_model=24, d_qk=24, d_ffn=24,
        n_heads=4, seed=0)
    model = CausalityAwareTransformer(config)
    detector = DecompositionCausalityDetector(model, config)
    windows = sliding_windows(values, config.window, 2)[:8]

    def run() -> None:
        detector.compute_scores(windows)

    return run


def _sweep_pairs():
    """Four same-shape CausalFormer discovery jobs on fork datasets."""
    from repro.service.jobs import DiscoveryJob, fingerprint_dataset
    from repro.service.registry import build_dataset

    config = {
        "window": 16, "d_model": 24, "d_qk": 24, "d_ffn": 24, "n_heads": 4,
        "batch_size": 32, "window_stride": 2, "max_epochs": 8,
        "patience": 1000, "max_detector_windows": 8,
    }
    pairs = []
    for seed in range(4):
        dataset = build_dataset("fork", seed=seed, length=240)
        pairs.append((DiscoveryJob(
            method="causalformer", config=dict(config), dataset="fork",
            dataset_fingerprint=fingerprint_dataset(dataset), seed=seed), dataset))
    return pairs


def _payload_sweep_batched() -> Callable[[], None]:
    """Four same-shape discovery jobs through the executor in one pass."""
    from repro.service.executor import JobExecutor

    pairs = _sweep_pairs()
    executor = JobExecutor(max_workers=1, cache=None, batch_jobs=True)

    def run() -> None:
        executor.run(pairs)

    return run


def _hetero_sweep_pairs():
    """Six mixed-length CausalFormer discovery jobs on fork datasets.

    Three series lengths (200/240/280) with two dataset seeds each — the
    shape mix of a Table-3-style sweep — so the run exercises shape
    bucketing, pad-and-mask prefix scheduling, tail sub-stacks, lane
    compaction and queue refill rather than the exact-shape fast case.
    """
    from repro.service.jobs import DiscoveryJob, fingerprint_dataset
    from repro.service.registry import build_dataset

    config = {
        "window": 16, "d_model": 24, "d_qk": 24, "d_ffn": 24, "n_heads": 4,
        "batch_size": 32, "window_stride": 1, "max_epochs": 8,
        "patience": 1000, "max_detector_windows": 8,
    }
    pairs = []
    job_seed = 0
    for length in [200, 240, 280]:
        for dataset_seed in (0, 1):
            dataset = build_dataset("fork", seed=dataset_seed, length=length)
            pairs.append((DiscoveryJob(
                method="causalformer", config=dict(config), dataset="fork",
                dataset_fingerprint=fingerprint_dataset(dataset),
                seed=job_seed), dataset))
            job_seed += 1
    return pairs


def _payload_sweep_hetero() -> Callable[[], None]:
    """Six mixed-shape discovery jobs through the continuous-batching path:
    one slack bucket, four live lanes, queue refill as lanes finish."""
    from repro.service.executor import JobExecutor

    pairs = _hetero_sweep_pairs()
    executor = JobExecutor(max_workers=1, cache=None, batch_jobs=True,
                           bucket_slack=0.5, max_lanes=4)

    def run() -> None:
        executor.run(pairs)

    return run


def _stacked_models(n_models: int = 4):
    """Four same-architecture models + per-model window sets (sweep shapes)."""
    from dataclasses import replace

    from repro.core.config import CausalFormerConfig
    from repro.core.transformer import CausalityAwareTransformer
    from repro.data.windows import sliding_windows

    config = CausalFormerConfig(
        n_series=5, window=16, d_model=24, d_qk=24, d_ffn=24, n_heads=4,
        batch_size=32, window_stride=2, seed=0)
    rng = np.random.default_rng(6)
    models, window_sets = [], []
    for seed in range(n_models):
        model = CausalityAwareTransformer(replace(config, seed=seed))
        windows = sliding_windows(rng.normal(size=(5, 400)), config.window,
                                  config.window_stride)
        models.append(model)
        window_sets.append(np.ascontiguousarray(
            windows, dtype=model.embedding.weight.data.dtype))
    return models, window_sets, config


def _payload_evaluate_stacked() -> Callable[[], None]:
    """Four models' validation sets through one stacked inference pass.

    This is the per-epoch validation workload of a batched 4-job sweep —
    previously one ``InferenceEngine.evaluate`` call per model.
    """
    from repro.nn.inference import StackedInferenceEngine

    models, window_sets, config = _stacked_models()
    engine = StackedInferenceEngine(models)

    def run() -> None:
        engine.evaluate(window_sets, config.batch_size)

    return run


def _payload_interpret_batched() -> Callable[[], None]:
    """Group detector interpretation of four models in one stacked pass.

    Previously one full ``compute_scores`` interpretation per job.
    """
    from repro.core.config import CausalFormerConfig
    from repro.core.detector import (DecompositionCausalityDetector,
                                     compute_scores_group)
    from repro.core.transformer import CausalityAwareTransformer
    from repro.data import fork_dataset
    from repro.data.windows import sliding_windows, zscore_normalize

    detectors, window_sets = [], []
    for seed in range(4):
        values = zscore_normalize(fork_dataset(seed=seed, length=160).values)
        config = CausalFormerConfig(
            n_series=values.shape[0], window=16, d_model=24, d_qk=24,
            d_ffn=24, n_heads=4, seed=seed)
        model = CausalityAwareTransformer(config)
        detectors.append(DecompositionCausalityDetector(model, config))
        window_sets.append(sliding_windows(values, config.window, 2)[:8])

    def run() -> None:
        compute_scores_group(detectors, window_sets)

    return run


def _payload_train_epoch_threaded() -> Callable[[], None]:
    """The ``train_epoch`` payload under four engine threads.

    Identical work to ``train_epoch`` (same fixture, same rng, bit-identical
    losses) with the fused engines chunking their batch-axis ops across the
    shared thread pool.  On multi-core hosts the ``train_epoch`` /
    ``train_epoch_threaded`` ratio is the intra-engine parallel speedup; on
    a single hardware thread it measures the pool's dispatch overhead
    instead (the regression gate budgets for that).
    """
    from repro.nn.parallel import engine_threads

    trainer, windows = _epoch_fixture()

    def run() -> None:
        with engine_threads(4):
            trainer._run_epoch(windows, np.random.default_rng(4))

    return run


def _payload_evaluate_stacked_threaded() -> Callable[[], None]:
    """The ``evaluate_stacked`` payload under four engine threads.

    Four stacked models at four threads chunk across the model axis — one
    model per thread — the sweep-shaped best case for the parallel layer.
    """
    from repro.nn.inference import StackedInferenceEngine
    from repro.nn.parallel import engine_threads

    models, window_sets, config = _stacked_models()
    engine = StackedInferenceEngine(models)

    def run() -> None:
        with engine_threads(4):
            engine.evaluate(window_sets, config.batch_size)

    return run


#: name -> (builder, full-mode repeats, smoke-mode repeats)
PAYLOADS: Dict[str, Tuple[Callable[[], Callable[[], None]], int, int]] = {
    "tensor_ops": (_payload_tensor_ops, 20, 5),
    "train_step": (_payload_train_step, 20, 5),
    "train_epoch": (_payload_train_epoch, 9, 3),
    "telemetry_overhead": (_payload_telemetry_overhead, 9, 3),
    "fit_small": (_payload_fit_small, 7, 1),
    "evaluate": (_payload_evaluate, 20, 5),
    "detector_interpret": (_payload_detector_interpret, 9, 3),
    "sweep_batched": (_payload_sweep_batched, 5, 1),
    "sweep_hetero": (_payload_sweep_hetero, 5, 1),
    "evaluate_stacked": (_payload_evaluate_stacked, 20, 5),
    "interpret_batched": (_payload_interpret_batched, 9, 3),
    "train_epoch_threaded": (_payload_train_epoch_threaded, 9, 3),
    "evaluate_stacked_threaded": (_payload_evaluate_stacked_threaded, 20, 5),
}


# ---------------------------------------------------------------------- #
# Harness
# ---------------------------------------------------------------------- #
def time_payload(name: str, repeats: int) -> Dict[str, object]:
    """Build one payload, run it ``repeats`` times, return timing stats."""
    builder, _full, _smoke = PAYLOADS[name]
    run = builder()
    run()  # warm-up iteration (allocator, caches) outside the measurement
    samples: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        samples.append(time.perf_counter() - start)
    return {
        "seconds": statistics.median(samples),
        "best": min(samples),
        "repeats": repeats,
        "samples": [round(sample, 6) for sample in samples],
    }


def measure_overhead_ratio(repeats: int = 15) -> float:
    """Telemetry-off instrumentation cost as a paired-sample median ratio.

    Runs the instrumented epoch (``train_epoch``) and the pre-telemetry
    replay (``telemetry_overhead``) back to back ``repeats`` times,
    alternating which member of the pair goes first, and takes the median
    of the per-pair ratios.  Pairing cancels machine-wide drift (CPU
    frequency, noisy neighbours) that block medians measured minutes apart
    cannot — the < 2% budget is far below this container's block-to-block
    variance.
    """
    instrumented = PAYLOADS["train_epoch"][0]()
    raw = PAYLOADS["telemetry_overhead"][0]()
    instrumented()
    raw()
    samples: Dict[object, List[float]] = {instrumented: [], raw: []}
    for index in range(repeats):
        # Alternate which loop goes first so warm-cache advantage for the
        # second member of a pair cancels across the sample sets.
        pair = (instrumented, raw) if index % 2 == 0 else (raw, instrumented)
        for run in pair:
            start = time.perf_counter()
            run()
            samples[run].append(time.perf_counter() - start)
    return round(statistics.median(samples[instrumented])
                 / statistics.median(samples[raw]), 4)


def _engine_info() -> Dict[str, str]:
    try:
        from repro.nn import tensor as T
        dtype = str(np.dtype(T.get_default_dtype()))
    except AttributeError:  # pre-optimisation engine: fixed float64
        dtype = "float64"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "default_dtype": dtype,
    }


def load_baseline(path: str = BASELINE_PATH) -> Optional[Dict]:
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def record_payload_spans(name: str) -> Dict[str, object]:
    """One extra payload iteration under a capturing telemetry runtime.

    Returns a compact observability summary: per-span-name counts and total
    wall time (the payload's phase decomposition) plus the counters and
    histogram totals the instrumented code recorded.  Timed iterations stay
    untouched — this runs *outside* the measurement, so the published
    numbers are always telemetry-off numbers.
    """
    from repro.telemetry import capture, get_telemetry
    from repro.telemetry.report import summarize_spans

    builder, _full, _smoke = PAYLOADS[name]
    run = builder()
    with capture() as telemetry:
        with telemetry.trace(f"bench.{name}"):
            run()
    records = telemetry.records()
    snapshot = telemetry.metrics.snapshot()
    outer = get_telemetry()
    if outer.enabled:
        # ``python -m repro bench --telemetry jsonl:...`` ships the payload
        # span trees in the trace file as well as in the report.
        outer.absorb({"records": records, "metrics": snapshot})
    spans = {span_name: {"count": stats["count"],
                         "total_seconds": round(stats["total_seconds"], 6)}
             for span_name, stats in summarize_spans(records).items()}
    summary: Dict[str, object] = {"spans": spans}
    if snapshot["counters"]:
        summary["counters"] = snapshot["counters"]
    if snapshot["histograms"]:
        summary["histograms"] = {
            metric: {"count": stats["count"],
                     "total": round(stats["total"], 6)}
            for metric, stats in snapshot["histograms"].items()}
    return summary


def run_suite(smoke: bool = False, names: Optional[List[str]] = None,
              progress: Optional[Callable[[str], None]] = None,
              record_spans: bool = True) -> Dict:
    """Run the microbenchmarks; return the report payload (not yet written).

    ``progress`` receives one human-readable line per finished payload (the
    CLI passes ``print``).  With ``record_spans`` each payload additionally
    runs once under a capturing telemetry runtime, attaching its span tree
    summary to the report — the timed iterations themselves always run with
    whatever runtime the process had (telemetry-off in CI).
    """
    selected = names or list(PAYLOADS)
    unknown = [name for name in selected if name not in PAYLOADS]
    if unknown:
        raise KeyError(f"unknown benchmarks: {unknown}; available: {list(PAYLOADS)}")

    timings: Dict[str, Dict] = {}
    for name in selected:
        _builder, full_repeats, smoke_repeats = PAYLOADS[name]
        repeats = smoke_repeats if smoke else full_repeats
        timings[name] = time_payload(name, repeats)
        if progress is not None:
            progress(f"  {name:<12} {timings[name]['seconds'] * 1000:10.2f} ms "
                     f"(median of {repeats})")

    report = {
        "schema": 1,
        "mode": "smoke" if smoke else "full",
        "engine": _engine_info(),
        "timings": timings,
    }

    if "train_epoch" in timings and "telemetry_overhead" in timings:
        # The telemetry-off instrumentation cost: paired interleaved runs of
        # the instrumented loop and the pre-telemetry replay, so machine
        # drift between the two block measurements above cannot masquerade
        # as overhead (or hide it).
        report["telemetry_overhead_ratio"] = measure_overhead_ratio(
            repeats=5 if smoke else 15)

    if record_spans:
        observability: Dict[str, Dict] = {}
        for name in selected:
            observability[name] = record_payload_spans(name)
        report["observability"] = observability

    baseline = load_baseline()
    if baseline is not None:
        report["baseline"] = baseline
        speedups: Dict[str, float] = {}
        for name, stats in timings.items():
            reference = baseline.get("timings", {}).get(name)
            if reference:
                speedups[name] = round(reference["seconds"] / stats["seconds"], 3)
        report["speedup_vs_baseline"] = speedups
    return report


def check_regression(report: Dict, max_regression: float = 0.25,
                     key: str = REGRESSION_KEY,
                     reference: Optional[Dict] = None,
                     normalize_by: Optional[str] = None) -> Optional[str]:
    """Return an error message when ``key`` regressed more than ``max_regression``.

    ``reference`` is a previously written report (e.g. the committed
    ``BENCH_nn.json``); when omitted, the pre-optimization baseline embedded
    in ``report`` is used.  ``normalize_by`` divides both sides by another
    benchmark's timing from the same run — the committed reference was
    measured on different hardware, so comparing the ``key``/``normalize_by``
    *ratio* gates code regressions instead of machine-speed differences.
    """
    if reference is None:
        reference = report.get("baseline")
    if not reference:
        return None

    def metric(source: Dict) -> Optional[float]:
        timings = source.get("timings", {})
        entry = timings.get(key)
        if not entry:
            return None
        value = entry["seconds"]
        if normalize_by:
            denominator = timings.get(normalize_by)
            if not denominator or denominator["seconds"] <= 0:
                return None
            value /= denominator["seconds"]
        return value

    reference_value = metric(reference)
    current_value = metric(report)
    if reference_value is None or current_value is None:
        return None
    limit = reference_value * (1.0 + max_regression)
    unit = f"/{normalize_by}" if normalize_by else "s"
    if current_value > limit:
        return (f"{key} regressed: {current_value:.4f}{unit} vs reference "
                f"{reference_value:.4f}{unit} (limit {limit:.4f}, "
                f"+{max_regression:.0%} allowed)")
    return None


def check_regressions(report: Dict, max_regression: float = 0.25,
                      keys: Optional[Sequence[str]] = None,
                      reference: Optional[Dict] = None,
                      normalize_by: Optional[str] = None,
                      allow_missing: bool = False) -> List[str]:
    """Run :func:`check_regression` for several benchmarks; collect failures.

    A gated key missing from the reference report is a **loud failure**, not
    a silent skip: a gate that quietly stops comparing is indistinguishable
    from one that passes, so a stale reference (e.g. a benchmark added
    without regenerating the committed trajectory report) must surface in
    CI.  ``allow_missing=True`` restores the old skip behaviour for callers
    that deliberately compare against historical reports.  When no
    reference is available at all there is nothing to gate and the check
    passes vacuously (matching :func:`check_regression`).
    """
    resolved = reference if reference is not None else report.get("baseline")
    reference_timings = (resolved or {}).get("timings", {})
    messages = []
    if normalize_by and resolved:
        # A missing/zero normalizer makes every ratio comparison vacuous —
        # surface that once instead of letting all gates pass silently.
        for side, timings in (("reference report", reference_timings),
                              ("current report",
                               report.get("timings", {}))):
            entry = timings.get(normalize_by)
            if not entry or entry.get("seconds", 0) <= 0:
                if not allow_missing:
                    messages.append(
                        f"{normalize_by}: normalizer benchmark missing "
                        f"from the {side} — every gated comparison would "
                        "be vacuous")
                return messages
    for key in (keys if keys is not None else REGRESSION_KEYS):
        if resolved and key not in reference_timings:
            if not allow_missing:
                messages.append(
                    f"{key}: gated benchmark missing from the reference "
                    "report — regenerate the reference (python -m repro "
                    "bench) or drop it from --regression-keys")
            continue
        message = check_regression(report, max_regression, key=key,
                                   reference=reference,
                                   normalize_by=normalize_by)
        if message:
            messages.append(message)
    return messages


# ---------------------------------------------------------------------- #
# Trajectory summary (BENCH_01 → BENCH_NN deltas per payload)
# ---------------------------------------------------------------------- #
def load_trajectory(root: Optional[str] = None) -> List[Tuple[str, Dict]]:
    """Load every committed ``BENCH_nn.json`` report, oldest first."""
    loaded: List[Tuple[str, Dict]] = []
    for _number, path in _numbered_reports(root):
        with open(path, "r", encoding="utf-8") as handle:
            loaded.append((os.path.splitext(os.path.basename(path))[0],
                           json.load(handle)))
    return loaded


def trajectory_rows(root: Optional[str] = None,
                    reports: Optional[List[Tuple[str, Dict]]] = None
                    ) -> List[Dict[str, object]]:
    """Per-payload timing trajectory across the committed reports.

    Each row maps ``payload`` to its per-report median milliseconds (``None``
    where a report predates the payload) plus two speedups for the latest
    report: ``vs_previous`` (against the nearest earlier report measuring
    the payload) and ``vs_first`` (against the oldest such report).  Rows
    follow first-appearance order across the trajectory.  ``reports``
    accepts an already-loaded :func:`load_trajectory` list so callers that
    need both the labels and the rows parse each report file once.
    """
    if reports is None:
        reports = load_trajectory(root)
    names: List[str] = []
    for _label, report in reports:
        for payload in report.get("timings", {}):
            if payload not in names:
                names.append(payload)
    rows: List[Dict[str, object]] = []
    for payload in names:
        series = [
            report.get("timings", {}).get(payload, {}).get("seconds")
            for _label, report in reports
        ]
        measured = [value for value in series if value is not None]
        vs_previous = vs_first = None
        if series and series[-1] is not None and len(measured) > 1:
            vs_previous = measured[-2] / series[-1]
            vs_first = measured[0] / series[-1]
        rows.append({
            "payload": payload,
            "milliseconds": [None if value is None else value * 1000.0
                             for value in series],
            "vs_previous": vs_previous,
            "vs_first": vs_first,
        })
    return rows


def render_trajectory(root: Optional[str] = None) -> str:
    """The ``--trajectory`` table: per-payload ms across BENCH_01..NN.

    Columns are the committed trajectory reports in order; the two trailing
    columns give the latest report's speedup against the previous report
    and against the first report that measured the payload (``-`` where a
    payload has fewer than two measurements).
    """
    reports = load_trajectory(root)
    if not reports:
        return "no committed BENCH_nn.json trajectory reports found"
    labels = [label for label, _report in reports]
    rows = trajectory_rows(reports=reports)
    header = ["payload"] + [f"{label} ms" for label in labels] \
        + ["vs prev", f"vs {labels[0]}"]
    table: List[List[str]] = [header]
    for row in rows:
        cells = [str(row["payload"])]
        cells += ["-" if value is None else f"{value:.2f}"
                  for value in row["milliseconds"]]
        for speedup in (row["vs_previous"], row["vs_first"]):
            cells.append("-" if speedup is None else f"{speedup:.2f}x")
        table.append(cells)
    widths = [max(len(line[column]) for line in table)
              for column in range(len(header))]
    rendered = []
    for index, line in enumerate(table):
        rendered.append("  ".join(
            cell.ljust(width) if column == 0 else cell.rjust(width)
            for column, (cell, width) in enumerate(zip(line, widths))))
        if index == 0:
            rendered.append("  ".join("-" * width for width in widths))
    return "\n".join(rendered)


def write_report(report: Dict, path: Optional[str] = None) -> str:
    """Write ``report``; ``None`` picks the next free ``BENCH_nn.json`` slot."""
    if path is None:
        path = next_output_path()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    return path
