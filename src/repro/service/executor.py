"""Parallel job execution with result caching and per-job error capture.

:class:`JobExecutor` takes ``(DiscoveryJob, TimeSeriesDataset)`` pairs and
returns one :class:`~repro.service.jobs.JobResult` per pair, in order:

1. jobs whose cache key already has an entry are answered from disk;
2. the rest run on a ``concurrent.futures.ProcessPoolExecutor`` when
   ``max_workers > 1`` (falling back to in-process execution when the pool
   cannot be created, e.g. in sandboxes without working semaphores) or
   inline when ``max_workers == 1``;
3. every job is wrapped in its own try/except — a crashing method produces a
   ``JobResult`` with a formatted traceback instead of killing the sweep;
4. fresh successful results are written back to the cache.

With ``batch_jobs=True``, CausalFormer jobs that share a configuration
(up to the seed) and a dataset shape are additionally packed into stacked
training passes (:mod:`repro.service.batched`): each group runs as one
unit — in-process or as a single pool task — with bit-identical results to
per-job dispatch.

Fault tolerance: pooled dispatch survives dying workers and wall-clock
overruns.  A worker death breaks the whole ``ProcessPoolExecutor``
(``BrokenProcessPool``); the executor hard-kills what is left of the pool,
respawns it and resubmits — the failing unit with a counted attempt and
exponential backoff (deterministic jitter, so retry schedules reproduce),
abandoned innocent units for free.  A per-job ``job_timeout`` is enforced
the same way: the overrunning worker is killed, the pool respawned, the
unit retried.  A job that keeps failing exhausts its attempts and comes
back as a *dead-letter* result (``JobResult.dead_letter``) carrying the
last error, so one poisonous job can never wedge a sweep.  A retried job
refits from scratch; its fit is seeded, so it returns the same graph as a
fault-free attempt.

The worker entry point :func:`execute_job` is a module-level function (so the
pool can pickle it by reference) and rebuilds the method inside the worker
from the registry, so only plain data crosses the process boundary.
:mod:`repro.faults` seams: ``dispatch`` counts pool submissions in the
parent (a due ``kill`` travels to the worker as an explicit directive and
exits it hard), ``job`` counts :func:`execute_job` calls (``delay`` /
``raise``).
"""

from __future__ import annotations

import hashlib
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import List, Optional, Sequence, Tuple, Union

from repro import faults
from repro.data.base import TimeSeriesDataset
from repro.service.cache import ResultCache
from repro.service.jobs import DiscoveryJob, JobResult
from repro.service.registry import build_method
from repro.telemetry import capture, get_telemetry

JobPair = Tuple[DiscoveryJob, TimeSeriesDataset]
CacheLike = Union[None, str, ResultCache]


def _apply_directives(directives) -> None:
    """Honour parent-side fault directives inside a worker entry point.

    The ``dispatch`` site counts in the *parent* (worker processes each
    inherit their own counter copies), so a due ``kill`` travels with the
    submission and the worker executes it here: a hard ``os._exit`` —
    exactly what a segfault, OOM kill or machine loss looks like to the
    ``ProcessPoolExecutor``.
    """
    if directives and directives.get("kill"):
        import os

        os._exit(faults.KILL_EXIT_CODE)


def execute_job_with_dtype(job: DiscoveryJob, dataset: TimeSeriesDataset,
                           dtype: str,
                           collect_telemetry: bool = False,
                           engine_threads: Optional[int] = None,
                           directives: Optional[dict] = None) -> JobResult:
    """Worker entry point: adopt the submitter's engine dtype, then run.

    The engine's default dtype is thread-local state, so a fresh pool worker
    would otherwise silently fall back to float32 even when the submitting
    process opted into float64 (``set_default_dtype``/``default_dtype``).
    ``engine_threads`` likewise re-applies the submitter's explicit engine
    thread count (:func:`repro.nn.parallel.set_engine_threads`; ``None``
    keeps the work-size rule) — worker processes start with a fresh (empty)
    engine pool, so the setting must travel with the job rather than rely
    on inherited module state.

    With ``collect_telemetry`` (requested when the submitting process has
    telemetry configured), the job runs under an in-worker buffering
    runtime and the collected spans/events/metrics ship back attached to
    the result, for the parent executor to absorb.
    """
    from repro.nn.parallel import set_engine_threads
    from repro.nn.tensor import set_default_dtype

    _apply_directives(directives)
    set_default_dtype(dtype)
    if engine_threads is not None:
        set_engine_threads(engine_threads)
    if not collect_telemetry:
        return execute_job(job, dataset)
    with capture() as telemetry:
        result = execute_job(job, dataset)
    result.telemetry = telemetry.export()
    return result


def execute_job(job: DiscoveryJob, dataset: TimeSeriesDataset) -> JobResult:
    """Run one job to completion, capturing any exception into the result."""
    telemetry = get_telemetry()
    start = time.perf_counter()
    with telemetry.trace("job", job_id=job.job_id, method=job.method,
                         dataset=job.dataset, seed=job.seed) as span:
        try:
            spec = faults.fault_point("job", job_id=job.job_id)
            if spec is not None and spec.action == "delay":
                time.sleep(spec.seconds)
            method = build_method(job.method, job.config, seed=job.seed)
            graph = method.discover(dataset)
            scores = None
            if dataset.graph is not None:
                from repro.graph.metrics import evaluate_discovery

                scores = evaluate_discovery(graph, dataset.graph,
                                            delay_tolerance=job.delay_tolerance)
            span.set(n_edges=graph.n_edges, ok=True)
            return JobResult(job=job, graph=graph, scores=scores,
                             duration=time.perf_counter() - start)
        except Exception:
            span.set(ok=False)
            telemetry.counter("executor.job_errors").inc()
            telemetry.event("job_error", job_id=job.job_id, method=job.method)
            return JobResult(job=job, error=traceback.format_exc(),
                             duration=time.perf_counter() - start)


def _coerce_cache(cache: CacheLike) -> Optional[ResultCache]:
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(str(cache))


def lookup_cached(cache: Optional[ResultCache],
                  job: DiscoveryJob) -> Optional[JobResult]:
    """Answer a job from the cache, or ``None`` (shared by executor and
    the batched scheduler's lane admission)."""
    if cache is None:
        return None
    start = time.perf_counter()
    payload = cache.get(job.cache_key())
    if payload is None:
        return None
    try:
        result = JobResult.from_dict(payload)
    except (KeyError, TypeError, ValueError):
        return None
    result.cached = True
    # ``duration`` keeps the original run's compute time (restored from
    # the cached payload); the price actually paid for this result is
    # the lookup, recorded separately.
    result.lookup_duration = time.perf_counter() - start
    return result


class _PoolUnit:
    """One pooled submission — a stacked group or a single job — plus its
    retry bookkeeping (attempts consumed, in-flight future, deadline)."""

    __slots__ = ("members", "index", "job", "dataset", "attempts", "future",
                 "deadline")

    def __init__(self, members=None, index=None, job=None, dataset=None,
                 attempts: int = 0) -> None:
        self.members = members
        self.index = index
        self.job = job
        self.dataset = dataset
        self.attempts = attempts
        self.future = None
        self.deadline = None

    @property
    def is_group(self) -> bool:
        return self.members is not None

    def jobs(self):
        """``(original index, job)`` pairs this unit answers for."""
        if self.is_group:
            return [(index, job) for index, (job, _ds) in self.members]
        return [(self.index, self.job)]

    @property
    def first_job(self) -> DiscoveryJob:
        return self.members[0][1][0] if self.is_group else self.job

    @property
    def key(self) -> str:
        """Deterministic jitter seed: the (first) job's cache key."""
        return self.first_job.cache_key()


class JobExecutor:
    """Fan discovery jobs out over worker processes, through a result cache.

    Parameters
    ----------
    max_workers:
        Process-pool size; ``1`` (the default) executes in-process, ``None``
        uses ``os.cpu_count()``.
    cache:
        ``None`` disables caching; a path creates a
        :class:`~repro.service.cache.ResultCache` there; an existing cache
        instance is used as-is.
    batch_jobs:
        Pack CausalFormer jobs with the same configuration (up to the seed)
        and the same dataset shape into stacked training passes (see
        :mod:`repro.service.batched`).  Each group runs as one unit — one
        in-process pass, or one pool task when workers are available — and
        returns the same results as per-job dispatch, faster.
    retries:
        Extra attempts for a job whose execution *errored* (its result
        carries a traceback).  Independently of this, pool-level failures —
        a dying worker, a timeout — always get at least one free retry:
        infrastructure loss is not the job's fault.
    retry_backoff:
        Base of the exponential backoff between attempts, in seconds; the
        actual delay is ``retry_backoff * 2**(attempt-1)`` scaled by a
        *deterministic* jitter derived from the job's cache key, so retry
        schedules reproduce run to run.  ``0`` disables waiting.
    job_timeout:
        Per-unit wall-clock budget in seconds for pooled dispatch.  A unit
        still running past it has its workers hard-killed and is retried
        (then dead-lettered).  Not enforceable on the inline path.

    Every retry, of a single job or of a stacked group, refits from scratch.
    Fits are seeded, so a recovered job returns the same graph as a
    fault-free run.
    """

    def __init__(self, max_workers: Optional[int] = 1,
                 cache: CacheLike = None,
                 batch_jobs: bool = False,
                 retries: int = 0,
                 retry_backoff: float = 0.5,
                 job_timeout: Optional[float] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1 (or None for cpu_count)")
        if max_workers is None:
            import os

            max_workers = os.cpu_count() or 1
        if retries < 0:
            raise ValueError("retries must be non-negative")
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be non-negative")
        if job_timeout is not None and job_timeout <= 0:
            raise ValueError("job_timeout must be positive (or None)")
        self.max_workers = max_workers
        self.cache = _coerce_cache(cache)
        self.batch_jobs = batch_jobs
        self.retries = int(retries)
        self.retry_backoff = float(retry_backoff)
        self.job_timeout = job_timeout

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self, pairs: Sequence[JobPair]) -> List[JobResult]:
        """Execute every ``(job, dataset)`` pair; results come back in order."""
        telemetry = get_telemetry()
        pairs = list(pairs)
        results: List[Optional[JobResult]] = [None] * len(pairs)

        with telemetry.trace("executor.run", jobs=len(pairs),
                             workers=self.max_workers,
                             batch_jobs=self.batch_jobs) as span:
            pending: List[Tuple[int, JobPair]] = []
            for index, (job, dataset) in enumerate(pairs):
                cached = self._lookup(job)
                if cached is not None:
                    results[index] = cached
                    telemetry.event("job_cache_hit", job_id=job.job_id,
                                    lookup_duration=cached.lookup_duration)
                else:
                    pending.append((index, (job, dataset)))

            span.set(cache_hits=len(pairs) - len(pending))
            if pending:
                for index, result in self._dispatch(pending).items():
                    results[index] = result
                    self._store(result)

        unfilled = [pairs[index][0] for index, result in enumerate(results)
                    if result is None]
        if unfilled:
            # A hole here means _dispatch lost a job (a bug, not a job
            # failure — failures come back as error-carrying results).
            # Returning a silently shortened list would desynchronise every
            # caller that zips results against its submissions.
            raise RuntimeError(
                "executor dispatch returned no result for: "
                + ", ".join(job.job_id for job in unfilled))
        return [result for result in results if result is not None]

    def run_one(self, job: DiscoveryJob, dataset: TimeSeriesDataset) -> JobResult:
        return self.run([(job, dataset)])[0]

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _dispatch(self, pending: List[Tuple[int, JobPair]]) -> dict:
        """Run the uncached jobs; returns ``{original index: result}``.

        Work is split into *units*: stacked groups of same-signature jobs
        (only when ``batch_jobs`` is on) plus per-job leftovers.  Every unit
        runs either on the process pool (one submit per unit, each wrapped so a
        dying worker degrades to per-job error results) or inline — the
        inline path also serves as the fallback when the pool cannot be
        created (e.g. sandboxes without working semaphores).  Both run the
        same round loop, so one retry and dead-letter policy covers both.
        """
        from repro.service.batched import group_batchable

        telemetry = get_telemetry()
        if self.batch_jobs:
            # The cache travels into grouping too: a job cached between the
            # run()-level lookup and here (another process finishing it)
            # must not occupy a lane.
            groups, singles = group_batchable(pending, cache=self.cache)
        else:
            groups, singles = [], list(pending)
        use_pool = self.max_workers > 1 and len(groups) + len(singles) > 1
        telemetry.event("executor.dispatch", pending=len(pending),
                        groups=len(groups), singles=len(singles),
                        pool=use_pool, workers=self.max_workers)
        if use_pool:
            try:
                return self._run_units(groups, singles, telemetry, pooled=True)
            except (OSError, PermissionError):
                # No usable multiprocessing primitives — run inline instead.
                telemetry.counter("executor.pool_fallbacks").inc()
                telemetry.event("pool_fallback", workers=self.max_workers,
                                pending=len(pending))
        return self._run_units(groups, singles, telemetry, pooled=False)

    # ------------------------------------------------------------------ #
    # Round-based dispatch with retry / timeout / dead-letter
    # ------------------------------------------------------------------ #
    def _run_units(self, groups, singles, telemetry, pooled: bool) -> dict:
        """Round-based dispatch that survives failing jobs and dying workers.

        Each round runs every unfinished unit — pooled, it submits them all,
        then collects in order; inline, it runs each in this process, with
        no telemetry capture, ``dispatch`` fault site or timeout.  Error
        results retry per ``self.retries`` (group members demote to solo
        units first).  Any pool-level casualty (``BrokenProcessPool``, a
        timeout) poisons the *whole* pool: the culprit's workers are
        hard-killed, the pool respawned, the culprit retried with a counted
        attempt and backoff, and every abandoned innocent unit resubmitted
        for free.  ``OSError``/``PermissionError`` propagate to the caller's
        inline fallback; any other escape — ``KeyboardInterrupt`` included
        — kills the pool and flushes telemetry before re-raising, so an
        interrupted sweep never leaks orphan workers.
        """
        from repro.nn.parallel import configured_engine_threads
        from repro.nn.tensor import get_default_dtype

        dtype = str(get_default_dtype())
        collect = telemetry.enabled
        engine_threads = configured_engine_threads()
        cache_dir = self.cache.directory if self.cache is not None else None
        # Pool-level failures get at least one free retry even at
        # retries=0 — a dying worker is infrastructure loss, not evidence
        # against the job.
        pool_allowed = max(self.retries, 1) + 1
        units = [_PoolUnit(members=members) for members in groups]
        units += [_PoolUnit(index=index, job=job, dataset=dataset)
                  for index, (job, dataset) in singles]
        results: dict = {}
        pool = self._new_pool() if pooled else None
        try:
            queue = units
            while queue:
                round_units, queue = queue, []
                delay = 0.0
                if pooled:
                    for unit in round_units:
                        self._submit_unit(pool, unit, dtype, collect,
                                          engine_threads, cache_dir)
                broken = False
                for unit in round_units:
                    if not pooled:
                        unit.attempts += 1
                        delay = max(delay, self._accept(
                            unit, self._run_inline(unit), results, queue,
                            telemetry))
                        continue
                    if broken:
                        # The pool died under an earlier unit; this one was
                        # abandoned through no fault of its own — resubmit
                        # without charging an attempt.
                        queue.append(unit)
                        continue
                    try:
                        if unit.deadline is not None:
                            remaining = unit.deadline - time.monotonic()
                            fresh = unit.future.result(
                                timeout=max(remaining, 0.01))
                        else:
                            fresh = unit.future.result()
                    except FuturesTimeout:
                        unit.attempts += 1
                        telemetry.counter("executor.timeouts").inc()
                        telemetry.event("job_timeout",
                                        job_id=unit.first_job.job_id,
                                        attempt=unit.attempts,
                                        timeout=self.job_timeout)
                        pool = self._respawn(pool)
                        broken = True
                        if unit.attempts < pool_allowed:
                            delay = max(delay, self._retry_delay(
                                unit.key, unit.attempts))
                            queue.append(unit)
                        else:
                            self._dead_letter(
                                unit, results, telemetry,
                                f"job exceeded its {self.job_timeout}s "
                                f"wall-clock budget "
                                f"(attempt {unit.attempts})")
                        continue
                    except BrokenProcessPool:
                        unit.attempts += 1
                        telemetry.counter("executor.retries").inc()
                        telemetry.event("job_retry",
                                        job_id=unit.first_job.job_id,
                                        attempt=unit.attempts,
                                        reason="worker_died")
                        pool = self._respawn(pool)
                        broken = True
                        if unit.attempts < pool_allowed:
                            delay = max(delay, self._retry_delay(
                                unit.key, unit.attempts))
                            queue.append(unit)
                        else:
                            self._dead_letter(
                                unit, results, telemetry,
                                f"worker process died "
                                f"(attempt {unit.attempts})")
                        continue
                    except (OSError, PermissionError):
                        raise
                    except Exception:
                        # The result failed to unpickle (or similar): the
                        # pool itself is fine — degrade to per-job errors.
                        unit.attempts += 1
                        error = traceback.format_exc()
                        for index, job in unit.jobs():
                            results[index] = JobResult(
                                job=job, error=error,
                                attempts=unit.attempts)
                        continue
                    unit.attempts += 1
                    delay = max(delay, self._accept(unit, fresh, results,
                                                    queue, telemetry))
                if delay > 0:
                    time.sleep(delay)
        except BaseException:
            # KeyboardInterrupt, a propagating OSError, anything: never
            # leak worker processes, never lose buffered telemetry.
            if pooled:
                self._kill_pool(pool)
            telemetry.flush()
            raise
        if pooled:
            pool.shutdown(wait=True)
        return results

    def _run_inline(self, unit):
        """Run one unit in this process: a group's results, or a job's."""
        from repro.service.batched import execute_batched_jobs

        if unit.is_group:
            return execute_batched_jobs(
                [pair for _idx, pair in unit.members], cache=self.cache)
        return execute_job(unit.job, unit.dataset)

    def _submit_unit(self, pool, unit, dtype, collect, engine_threads,
                     cache_dir) -> None:
        """Submit one unit; the ``dispatch`` fault site counts here."""
        from repro.service.batched import execute_batched_jobs_with_dtype

        directives = None
        spec = faults.fault_point("dispatch", job_id=unit.first_job.job_id,
                                  attempt=unit.attempts + 1)
        if spec is not None:
            if spec.action == "kill":
                directives = {"kill": True}
            elif spec.action == "delay":
                time.sleep(spec.seconds)
        if unit.is_group:
            unit.future = pool.submit(
                execute_batched_jobs_with_dtype,
                [pair for _idx, pair in unit.members], dtype, collect,
                engine_threads, cache_dir, directives)
        else:
            unit.future = pool.submit(
                execute_job_with_dtype, unit.job, unit.dataset, dtype,
                collect, engine_threads, directives)
        unit.deadline = (time.monotonic() + self.job_timeout
                         if self.job_timeout is not None else None)

    def _accept(self, unit, fresh, results: dict, queue: list,
                telemetry) -> float:
        """Fold a completed unit's results in; returns the backoff owed.

        Error results retry when ``retries > 0``: a failing group member
        demotes to a solo unit (its group-mates' results stand), a failing
        single re-enqueues until its attempts run out, then keeps its last
        error marked ``dead_letter``.
        """
        error_allowed = self.retries + 1
        delay = 0.0
        if unit.is_group:
            items = [(index, pair[0], result) for (index, pair), result
                     in zip(unit.members, fresh)]
        else:
            items = [(unit.index, unit.job, fresh)]
        for index, job, result in items:
            result = self._absorb(result, telemetry)
            result.attempts = unit.attempts
            if result.error and self.retries > 0 \
                    and unit.attempts < error_allowed:
                telemetry.counter("executor.retries").inc()
                telemetry.event("job_retry", job_id=job.job_id,
                                attempt=unit.attempts, reason="job_error")
                dataset = (dict(unit.members)[index][1] if unit.is_group
                           else unit.dataset)
                queue.append(_PoolUnit(index=index, job=job, dataset=dataset,
                                       attempts=unit.attempts))
                delay = max(delay, self._retry_delay(job.cache_key(),
                                                     unit.attempts))
                continue
            if result.error and self.retries > 0:
                result.dead_letter = True
                telemetry.counter("executor.dead_letters").inc()
                telemetry.event("job_dead_letter", job_id=job.job_id,
                                attempts=unit.attempts)
            results[index] = result
        return delay

    def _dead_letter(self, unit, results: dict, telemetry,
                     message: str) -> None:
        """Give up on a unit: error results flagged ``dead_letter``."""
        for index, job in unit.jobs():
            telemetry.counter("executor.dead_letters").inc()
            telemetry.event("job_dead_letter", job_id=job.job_id,
                            attempts=unit.attempts)
            results[index] = JobResult(job=job, error=message,
                                       attempts=unit.attempts,
                                       dead_letter=True)

    def _retry_delay(self, key: str, attempt: int) -> float:
        """Exponential backoff with *deterministic* jitter.

        The jitter derives from the job's cache key and the attempt number,
        so two runs of the same sweep back off identically — randomness
        would break the reproducibility contract chaos tests rely on.
        """
        if self.retry_backoff <= 0:
            return 0.0
        digest = hashlib.sha256(f"{key}:{attempt}".encode("utf-8")).digest()
        jitter = digest[0] / 255.0
        return self.retry_backoff * (2.0 ** (attempt - 1)) * (0.5 + 0.5 * jitter)

    def _respawn(self, pool) -> ProcessPoolExecutor:
        """Hard-kill what is left of a poisoned pool and start a fresh one."""
        self._kill_pool(pool)
        return self._new_pool()

    def _new_pool(self) -> ProcessPoolExecutor:
        """A worker pool whose processes split the usable CPUs evenly."""
        from repro.nn.parallel import share_cpus

        return ProcessPoolExecutor(max_workers=self.max_workers,
                                   initializer=share_cpus,
                                   initargs=(self.max_workers,))

    @staticmethod
    def _kill_pool(pool) -> None:
        """Kill every worker outright; cancel queued work; don't wait."""
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except Exception:
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    @staticmethod
    def _absorb(result: JobResult, telemetry) -> JobResult:
        """Fold worker-collected telemetry into this process, then drop it."""
        if result.telemetry is not None:
            telemetry.absorb(result.telemetry)
            result.telemetry = None
        return result

    def _lookup(self, job: DiscoveryJob) -> Optional[JobResult]:
        return lookup_cached(self.cache, job)

    def _store(self, result: JobResult) -> None:
        # ``cached`` results came *from* the cache (possibly via a stacked
        # group's admission-time lookup) — don't rewrite them.
        if self.cache is None or not result.ok or result.cached:
            return
        self.cache.put(result.job.cache_key(), result.to_dict())

    def __repr__(self) -> str:
        return (f"JobExecutor(max_workers={self.max_workers}, "
                f"cache={self.cache!r}, batch_jobs={self.batch_jobs})")
