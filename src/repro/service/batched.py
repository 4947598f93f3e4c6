"""Batching of same-shape CausalFormer discovery jobs into stacked lanes.

A sweep frequently schedules the *same* CausalFormer configuration over
several datasets and seeds.  Dispatching each as its own job repeats the
whole per-model numpy call sequence — at sweep model sizes the dispatch
overhead dominates the arithmetic.  This module packs compatible jobs into
one process pass that stays stacked end to end: the models train together
through :class:`repro.core.batched.StackedCausalFormerTrainer` (stacked
GEMMs for every step *and* every validation pass, one fused training
engine + scratch arena serving both), then the group's detector
interpretation runs as one stacked pass reusing that same arena
(:func:`repro.core.detector.compute_scores_group`) instead of one
interpretation per job; only graph construction and scoring stay per job.

* **Exact-shape groups** — jobs are stackable when they name the
  ``causalformer`` method with identical configuration (up to the seed) on
  datasets of the same shape, variable count *and* series length
  (:func:`batch_signature`).  Equal shapes give every lane the same train
  and validation window counts, which the stacked trainer requires.  A
  sweep over several lengths forms one group per length.
* **Lane compaction** — when a lane finishes (early stop / divergence /
  ``max_epochs``) the trainer compacts it out of the stack, so the
  remaining lanes stop paying for it.
* **Cache awareness** — grouping and admission both consult the
  :class:`~repro.service.cache.ResultCache` when one is provided, so an
  already-cached job never joins a group and never occupies a lane.

Batching is numerics-preserving: the stacked trainer's per-model steps and
the stacked interpretation's per-model scores are bit-identical to the
sequential paths, so a batched sweep returns the same graphs and scores as
per-job dispatch — the correctness tests assert this.  Everything else —
baselines, lone shapes — falls through to the ordinary per-job path.
"""

from __future__ import annotations

import time
import traceback
from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

from repro.data.base import TimeSeriesDataset
from repro.service.cache import ResultCache
from repro.service.jobs import DiscoveryJob, JobResult, canonical_json

JobPair = Tuple[DiscoveryJob, TimeSeriesDataset]

#: minimum group size worth a stacked pass
MIN_GROUP = 2


def batch_signature(job: DiscoveryJob, dataset: TimeSeriesDataset):
    """Grouping key for stackable jobs (``None`` when not batchable).

    The configuration (minus the seed) is part of the key, so the
    single-kernel ablation groups with other single-kernel jobs and never
    with multi-kernel ones.  The dataset contributes its ``(N, T)`` shape:
    with the configuration fixed, that fixes every lane's window counts.
    """
    if job.method != "causalformer":
        return None
    config = {key: value for key, value in job.config.items() if key != "seed"}
    try:
        shape = tuple(int(size) for size in dataset.values.shape)
    except AttributeError:
        return None
    return (job.method, canonical_json(config), shape)


def group_batchable(pairs: Sequence[Tuple[int, JobPair]],
                    cache: Optional[ResultCache] = None
                    ) -> Tuple[List[List[Tuple[int, JobPair]]],
                               List[Tuple[int, JobPair]]]:
    """Split indexed pairs into stackable groups and per-job leftovers.

    A group is every job of one :func:`batch_signature`, when there are at
    least :data:`MIN_GROUP` of them.  When a ``cache`` is given, jobs whose
    cache key already has an entry go straight to the leftovers (their
    results come from disk — they must not occupy a lane).
    """
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
        if len(members) >= MIN_GROUP:
            groups.append(members)
        else:
            singles.extend(members)
    singles.sort(key=lambda item: item[0])
    return groups, singles


class _Admitted:
    """One job occupying a trainer lane."""

    __slots__ = ("position", "job", "dataset", "method", "values")

    def __init__(self, position, job, dataset, method, values) -> None:
        self.position = position
        self.job = job
        self.dataset = dataset
        self.method = method
        self.values = values


def execute_batched_jobs(pairs: Sequence[JobPair],
                         cache: Optional[ResultCache] = None
                         ) -> List[JobResult]:
    """Run one group of same-shape jobs as one stacked pass.

    When a ``cache`` is given it is consulted at admission time, so jobs
    cached since grouping never occupy a lane.

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
    group_span = telemetry.trace(
        "job_group", jobs=len(pairs),
        job_id=pairs[0][0].job_id if pairs else None,
        method=pairs[0][0].method if pairs else None)
    with group_span as span:
        admitted: List[_Admitted] = []
        try:
            start = time.perf_counter()
            with telemetry.trace("group_train", jobs=len(pairs)):
                for position, (job, dataset) in enumerate(pairs):
                    hit = lookup_cached(cache, job)
                    if hit is not None:
                        results[position] = hit
                        telemetry.event("job_cache_hit", job_id=job.job_id,
                                        lookup_duration=hit.lookup_duration)
                        continue
                    method = build_method(job.method, job.config,
                                          seed=job.seed)
                    admitted.append(_Admitted(position, job, dataset, method,
                                              method.prepare_fit(dataset)))
                if not admitted:
                    # The whole group answered from cache.
                    span.set(cache_hits=len(pairs))
                    return [result for result in results
                            if result is not None]
                trainer = StackedCausalFormerTrainer(
                    [entry.method.model_ for entry in admitted])
                histories = trainer.fit([entry.values for entry in admitted])
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

        # Stacked detector interpretation: one forward, all-ones
        # backward and relevance propagation for the whole group
        # (bit-identical per-model scores).  A lone job left after cache
        # hits, or any failure, interprets per job.
        detectors = None
        scores_list = None
        if len(admitted) >= MIN_GROUP:
            try:
                from repro.core.detector import compute_scores_group

                interpret_start = time.perf_counter()
                with telemetry.trace("group_interpret", jobs=len(admitted)):
                    detectors = [entry.method.build_detector()
                                 for entry in admitted]
                    # The trainer's engine arena is reused for the stacked
                    # forward/backward — training, validation and
                    # interpretation share one buffer pool for the group.
                    scores_list = compute_scores_group(
                        detectors,
                        [entry.method.detector_windows()
                         for entry in admitted],
                        arena=trainer.engine.arena)
                shared += (time.perf_counter() - interpret_start) \
                    / len(admitted)
            except Exception:
                detectors = None
                scores_list = None
                telemetry.counter("batched.interpret_fallbacks").inc()
                telemetry.event("stacked_interpret_fallback",
                                jobs=len(admitted))

        for index, entry in enumerate(admitted):
            job, dataset = entry.job, entry.dataset
            own = time.perf_counter()
            try:
                if scores_list is None:
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
                                    cache_dir: Optional[str] = None,
                                    directives: Optional[dict] = None
                                    ) -> List[JobResult]:
    """Pool worker entry point: adopt the submitter's engine dtype, then run.

    ``engine_threads`` re-applies the submitter's explicit engine thread
    count inside the worker (``None`` keeps the work-size rule; fresh
    processes start with an empty engine pool), so stacked groups thread
    their training pass exactly like an in-process run would.
    ``cache_dir`` travels as plain data (a cache path, not a cache object)
    so the worker rebuilds its own admission-time cache.

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
        return execute_batched_jobs(pairs, cache=cache)
    with capture() as telemetry:
        results = execute_batched_jobs(pairs, cache=cache)
    if results:
        results[0].telemetry = telemetry.export()
    return results
