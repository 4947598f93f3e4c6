"""Continuous batching of CausalFormer discovery jobs into stacked lanes.

A sweep frequently schedules the *same* CausalFormer configuration over
several datasets and seeds.  Dispatching each as its own job repeats the
whole per-model numpy call sequence — at sweep model sizes the dispatch
overhead dominates the arithmetic.  This module packs compatible jobs into
one process pass that stays stacked end to end: the models train together
through :class:`repro.core.batched.StackedCausalFormerTrainer` (stacked
GEMMs for every step *and* every validation pass, one fused training
engine + scratch arena serving both), then the group's detector
interpretation runs as stacked passes reusing that same arena
(:func:`repro.core.detector.compute_scores_group`) instead of one
interpretation per job; only graph construction and scoring stay per job.

Three continuous-batching mechanisms keep the stack full:

* **Shape bucketing** — jobs are stackable when they name the
  ``causalformer`` method with identical configuration (up to the seed) on
  datasets with the same *variable count*; series lengths may differ.
  :func:`group_batchable` buckets each signature's jobs by length under a
  configurable relative ``slack`` (``0.0``, the default, reproduces exact
  same-length grouping) and the stacked trainer runs the mixed window
  counts with lane-axis pad-and-mask steps.
* **Lane compaction + queue refill** — :func:`execute_batched_jobs` can
  cap the live stack at ``max_lanes`` and holds the rest of the bucket in
  an admission queue; when a lane finishes (early stop / divergence /
  ``max_epochs``) the trainer compacts it away and refills from the queue.
* **Cache awareness** — grouping and admission both consult the
  :class:`~repro.service.cache.ResultCache` when one is provided, so an
  already-cached job never anchors a bucket and never occupies a lane.

Batching is numerics-preserving: the stacked trainer's per-model steps and
the stacked interpretation's per-model scores are bit-identical to the
sequential paths, so a batched sweep returns the same graphs and scores as
per-job dispatch — the correctness tests assert this.  Everything else —
baselines, odd-shaped cells — falls through to the ordinary per-job path.
"""

from __future__ import annotations

import time
import traceback
from collections import OrderedDict, deque
from typing import List, Optional, Sequence, Tuple

from repro.data.base import TimeSeriesDataset
from repro.service.cache import ResultCache
from repro.service.jobs import DiscoveryJob, JobResult, canonical_json

JobPair = Tuple[DiscoveryJob, TimeSeriesDataset]

#: minimum group size worth a stacked pass
MIN_GROUP = 2


def batch_signature(job: DiscoveryJob, dataset: TimeSeriesDataset):
    """Hard grouping key for stackable jobs (``None`` when not batchable).

    The configuration (minus the seed) is part of the key, so the
    single-kernel ablation groups with other single-kernel jobs and never
    with multi-kernel ones.  The dataset contributes only its *variable
    count* — series length is soft (bucketed under slack by
    :func:`group_batchable`), since the stacked trainer pads and masks
    heterogeneous window counts without changing any model's numerics.
    """
    if job.method != "causalformer":
        return None
    config = {key: value for key, value in job.config.items() if key != "seed"}
    try:
        n_series = int(dataset.values.shape[0])
    except AttributeError:
        return None
    return (job.method, canonical_json(config), n_series)


def _series_length(dataset: TimeSeriesDataset) -> int:
    return int(dataset.values.shape[1])


def _shape_buckets(members: List[Tuple[int, JobPair]], slack: float
                   ) -> List[List[Tuple[int, JobPair]]]:
    """Greedily bucket one signature's jobs by series length under slack.

    Members sort by length; each bucket anchors at its shortest remaining
    job and admits jobs while ``length <= anchor * (1 + slack)`` — padding
    cost is relative to the shortest lane, so the bound caps the padded
    fraction any lane can impose on the bucket.  ``slack == 0`` admits only
    exact length matches (the historical same-shape grouping).
    """
    ordered = sorted(members, key=lambda item: _series_length(item[1][1]))
    buckets: List[List[Tuple[int, JobPair]]] = []
    for member in ordered:
        length = _series_length(member[1][1])
        if buckets:
            anchor = _series_length(buckets[-1][0][1][1])
            if length <= anchor * (1.0 + slack):
                buckets[-1].append(member)
                continue
        buckets.append([member])
    return buckets


def group_batchable(pairs: Sequence[Tuple[int, JobPair]],
                    slack: float = 0.0,
                    cache: Optional[ResultCache] = None
                    ) -> Tuple[List[List[Tuple[int, JobPair]]],
                               List[Tuple[int, JobPair]]]:
    """Split indexed pairs into stackable groups and per-job leftovers.

    ``slack`` is the relative series-length slack for shape bucketing.
    When a ``cache`` is given, jobs whose cache key already has an entry go
    straight to the leftovers (their results come from disk — they must not
    anchor a bucket or occupy a lane).
    """
    if slack < 0:
        raise ValueError("bucket slack must be non-negative")
    grouped: "OrderedDict[tuple, List[Tuple[int, JobPair]]]" = OrderedDict()
    singles: List[Tuple[int, JobPair]] = []
    for index, (job, dataset) in pairs:
        signature = batch_signature(job, dataset)
        if signature is None or (cache is not None
                                 and cache.get(job.cache_key()) is not None):
            singles.append((index, (job, dataset)))
        else:
            grouped.setdefault(signature, []).append((index, (job, dataset)))
    groups: List[List[Tuple[int, JobPair]]] = []
    for members in grouped.values():
        for bucket in _shape_buckets(members, slack):
            if len(bucket) >= MIN_GROUP:
                groups.append(bucket)
            else:
                singles.extend(bucket)
    singles.sort(key=lambda item: item[0])
    return groups, singles


class _Admitted:
    """One job occupying (or having occupied) a trainer lane."""

    __slots__ = ("position", "job", "dataset", "method", "values")

    def __init__(self, position, job, dataset, method, values) -> None:
        self.position = position
        self.job = job
        self.dataset = dataset
        self.method = method
        self.values = values


def execute_batched_jobs(pairs: Sequence[JobPair],
                         max_lanes: Optional[int] = None,
                         cache: Optional[ResultCache] = None
                         ) -> List[JobResult]:
    """Run one bucket of stackable jobs as one continuous stacked pass.

    ``max_lanes`` caps the live stack width; the rest of the bucket waits
    in an admission queue and refills lanes freed by compaction.  When a
    ``cache`` is given it is consulted at admission time, so jobs cached
    since grouping never occupy a lane.

    Per-job failures during graph construction/scoring are captured into
    their own :class:`JobResult`; a failure of the *shared* stacked training
    falls back to sequential per-job execution, and a failure of the shared
    stacked interpretation falls back to per-job interpretation — batching
    never loses a sweep.
    """
    from repro.core.batched import StackedCausalFormerTrainer
    from repro.service.executor import execute_job, lookup_cached
    from repro.service.registry import build_method
    from repro.telemetry import get_telemetry

    telemetry = get_telemetry()
    pairs = list(pairs)
    results: List[Optional[JobResult]] = [None] * len(pairs)
    lanes = len(pairs) if max_lanes is None else max(1, int(max_lanes))
    group_span = telemetry.trace(
        "job_group", jobs=len(pairs), lanes=min(lanes, len(pairs)),
        job_id=pairs[0][0].job_id if pairs else None,
        method=pairs[0][0].method if pairs else None)
    with group_span as span:
        queue = deque(range(len(pairs)))
        admitted: List[_Admitted] = []

        def admit(position: int) -> Optional[_Admitted]:
            """Prepare one queued job for a lane; cache hits short-circuit."""
            job, dataset = pairs[position]
            if cache is not None:
                hit = lookup_cached(cache, job)
                if hit is not None:
                    results[position] = hit
                    telemetry.event("job_cache_hit", job_id=job.job_id,
                                    lookup_duration=hit.lookup_duration)
                    return None
            method = build_method(job.method, job.config, seed=job.seed)
            values = method.prepare_fit(dataset)
            entry = _Admitted(position, job, dataset, method, values)
            admitted.append(entry)
            return entry

        try:
            start = time.perf_counter()
            with telemetry.trace("group_train", jobs=len(pairs),
                                 lanes=min(lanes, len(pairs))):
                initial: List[_Admitted] = []
                while queue and len(initial) < lanes:
                    entry = admit(queue.popleft())
                    if entry is not None:
                        initial.append(entry)
                if not initial:
                    # The whole bucket answered from cache.
                    span.set(cache_hits=len(pairs))
                    return [result for result in results
                            if result is not None]

                def refill(free: int):
                    admissions = []
                    while queue and len(admissions) < free:
                        entry = admit(queue.popleft())
                        if entry is not None:
                            admissions.append((entry.method.model_,
                                               entry.values))
                    return admissions

                trainer = StackedCausalFormerTrainer(
                    [entry.method.model_ for entry in initial],
                    capacity=min(lanes, len(pairs)))
                histories = trainer.fit([entry.values for entry in initial],
                                        refill=refill)
                # finalize_fit is two attribute assignments; it lives in the
                # shared block because the group interpretation below needs
                # every method finalized before it can collect the detector
                # windows.
                for entry, history in zip(admitted, histories):
                    entry.method.finalize_fit(entry.values, history)
            shared = (time.perf_counter() - start) / len(admitted)
        except Exception:
            # The stacked pass itself failed (incompatible shapes slipping
            # past the signature, resource limits, a raising step, …):
            # degrade to per-job execution for everything not already
            # answered from cache.
            span.set(fallback="stacked_training")
            telemetry.counter("batched.train_fallbacks").inc()
            telemetry.event("stacked_train_fallback", jobs=len(pairs))
            return [results[position]
                    if results[position] is not None
                    else execute_job(job, dataset)
                    for position, (job, dataset) in enumerate(pairs)]

        # Stacked detector interpretation: one cache forward, all-ones
        # backward and relevance propagation per *shape sub-group*
        # (bit-identical per-model scores; heterogeneous lanes often share
        # a detector-window shape anyway once max_detector_windows caps the
        # count).  Any failure degrades to per-job interpretation.
        detectors = None
        scores_list = None
        try:
            from repro.core.detector import compute_scores_group

            interpret_start = time.perf_counter()
            with telemetry.trace("group_interpret", jobs=len(admitted)):
                detectors = [entry.method.build_detector()
                             for entry in admitted]
                windows_list = [entry.method.detector_windows()
                                for entry in admitted]
                scores_list = [None] * len(admitted)
                shape_groups: "OrderedDict[tuple, List[int]]" = OrderedDict()
                for index, windows in enumerate(windows_list):
                    shape_groups.setdefault(tuple(windows.shape),
                                            []).append(index)
                for members in shape_groups.values():
                    if len(members) < MIN_GROUP:
                        continue   # solo interpretation below
                    # The trainer's engine arena is reused for the stacked
                    # cache forward/backward — training, validation and
                    # interpretation share one buffer pool for the group.
                    sub_scores = compute_scores_group(
                        [detectors[index] for index in members],
                        [windows_list[index] for index in members],
                        arena=trainer.engine.arena)
                    for index, scores in zip(members, sub_scores):
                        scores_list[index] = scores
            shared += (time.perf_counter() - interpret_start) / len(admitted)
        except Exception:
            detectors = None
            scores_list = None
            telemetry.counter("batched.interpret_fallbacks").inc()
            telemetry.event("stacked_interpret_fallback", jobs=len(admitted))

        for index, entry in enumerate(admitted):
            job, dataset = entry.job, entry.dataset
            own = time.perf_counter()
            try:
                if scores_list is None or scores_list[index] is None:
                    graph = entry.method.interpret()
                else:
                    graph = entry.method.adopt_interpretation(
                        detectors[index], scores_list[index])
                scores = None
                if dataset.graph is not None:
                    from repro.graph.metrics import evaluate_discovery

                    scores = evaluate_discovery(
                        graph, dataset.graph,
                        delay_tolerance=job.delay_tolerance)
                results[entry.position] = JobResult(
                    job=job, graph=graph, scores=scores,
                    duration=shared + time.perf_counter() - own)
            except Exception:
                telemetry.counter("executor.job_errors").inc()
                telemetry.event("job_error", job_id=job.job_id,
                                method=job.method)
                results[entry.position] = JobResult(
                    job=job, error=traceback.format_exc(),
                    duration=shared + time.perf_counter() - own)
    return [result for result in results if result is not None]


def execute_batched_jobs_with_dtype(pairs: Sequence[JobPair], dtype: str,
                                    collect_telemetry: bool = False,
                                    engine_threads: Optional[int] = None,
                                    max_lanes: Optional[int] = None,
                                    cache_dir: Optional[str] = None,
                                    directives: Optional[dict] = None
                                    ) -> List[JobResult]:
    """Pool worker entry point: adopt the submitter's engine dtype, then run.

    ``engine_threads`` re-applies the submitter's explicit engine thread
    count inside the worker (``None`` keeps the work-size rule; fresh
    processes start with an empty engine pool), so stacked groups thread
    their training pass exactly like an in-process run would.
    ``max_lanes`` and ``cache_dir`` travel as plain data (a cache path, not
    a cache object) so the worker rebuilds its own admission-time cache.

    With ``collect_telemetry``, the whole group runs under an in-worker
    buffering runtime whose export ships back on the group's *first* result
    (the group shares one training pass, so its telemetry is one payload).
    """
    from repro.nn.parallel import set_engine_threads
    from repro.nn.tensor import set_default_dtype
    from repro.service.executor import _apply_directives
    from repro.telemetry import capture

    _apply_directives(directives)
    set_default_dtype(dtype)
    if engine_threads is not None:
        set_engine_threads(engine_threads)
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    if not collect_telemetry:
        return execute_batched_jobs(pairs, max_lanes=max_lanes, cache=cache)
    with capture() as telemetry:
        results = execute_batched_jobs(pairs, max_lanes=max_lanes, cache=cache)
    if results:
        results[0].telemetry = telemetry.export()
    return results
