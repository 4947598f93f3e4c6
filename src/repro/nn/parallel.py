"""Intra-engine parallel execution: a persistent worker pool running
concurrent branches and static chunks.

The fused engines in :mod:`repro.nn.inference` and
:mod:`repro.nn.training_engine` are sequences of batched matmuls,
element-wise kernels, and per-row reductions over pre-allocated arena
buffers.  Along their leading (batch / series / model) axes those ops are
embarrassingly parallel: numpy dispatches one 2-D GEMM per leading-axis
slice of a stacked ``matmul``, and element-wise / last-axis-reduction ops
touch each row independently.  Chunking such an op over its leading axis
and running the chunks on worker threads therefore produces *bit-identical*
results to the serial op — each chunk performs exactly the per-slice work
the serial call would, writing disjoint slices of the same output buffer.

Some stages are independent of each other as well: the convolution and the
attention read the same windows and meet only in the Eq. 6 combination, and
their gradients split the same way after the combination's backward.  A
threaded engine call may run such stages as concurrent *branches*, each
serial inside, and chunks every op outside them; the engines branch only
where that was measured to pay (a single model on two threads), and
otherwise run the stages in order with their ops chunked.  Each branch
runs the ops it would run serially, in the same order, on buffers no
other branch touches, so this too is bit-identical to the serial call.

This module provides the execution seam the engines thread through:

``run_branches(*branches)``
    Run independent zero-argument callables concurrently, one pool task
    each, and return their results in order.  Inside a branch the thread
    count is 1, so a branch's own ops run serially and no round ever waits
    inside another (a waiting round would hold the worker its queued chunk
    needs).  At one thread the branches run in order on the calling
    thread — the serial path.

``parallel_for(body, n_items)``
    Run ``body(lo, hi)`` over static contiguous chunks of ``range(n_items)``.
    With the thread count in effect at 1 or ``n_items <= 1`` it
    degenerates to ``body(0, n_items)`` on the calling thread — full-range
    ``[0:n]`` slices, i.e. exactly the serial op.  numpy releases the GIL
    inside its kernels, so chunks genuinely overlap on multi-core hosts.

``engine_call(work)`` / ``threads_for_work(work)``
    The work-size rule.  Unless a count is set explicitly, one engine call
    over a ``K·B·N²·T``-element convolution tensor runs on
    ``min(usable CPUs, work // WORK_PER_THREAD)`` threads, and at least
    one; a process-pool worker's CPU budget is its share of the usable
    CPUs (:func:`share_cpus`).

``set_engine_threads(n)`` / ``get_engine_threads()`` / ``engine_threads(n)``
    An explicit process-wide thread count that overrides the rule, seeded
    from the ``REPRO_ENGINE_THREADS`` environment variable.

``EngineThreadPool``
    The lazily-started, process-wide pool behind ``parallel_for``.  It is a
    plain task queue with per-call completion latches, so *concurrent*
    ``parallel_for`` callers (e.g. several trainers on different Python
    threads) share one set of workers safely.

Two guard rails ride along:

* While any engine call or fit (:func:`engine_session`) runs, BLAS is held
  at one thread, whatever the engine thread count and however it was set:
  a runtime call into the loaded OpenBLAS, undone when the last hold ends.
  The engines own the outer parallelism, so chunk threads never
  oversubscribe against BLAS's own pool, and since every engine GEMM runs
  on one BLAS thread, every thread count gives the same bits.  A BLAS
  without OpenBLAS's runtime thread calls (MKL, Accelerate) is not capped.
* Under ``REPRO_PARALLEL_DEBUG`` (or :func:`set_parallel_debug`), call
  sites may declare what they write, and the audit asserts via
  ``np.shares_memory`` that no two chunk views of an output alias
  overlapping memory, and that no array one branch writes overlaps an
  array another branch writes or reads — future op authors cannot silently
  introduce a data race.
"""

from __future__ import annotations

import ctypes
import os
import queue
import threading
from contextlib import contextmanager
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "WORK_PER_THREAD",
    "EngineThreadPool",
    "configured_engine_threads",
    "engine_call",
    "engine_session",
    "engine_threads",
    "get_engine_pool",
    "get_engine_threads",
    "parallel_for",
    "run_branches",
    "set_engine_threads",
    "set_parallel_debug",
    "share_cpus",
    "slice_axis",
    "threads_for_work",
    "usable_cpus",
]

#: Runtime ``(set, get)`` thread-count entry points of an already-loaded
#: OpenBLAS.  numpy >= 2 bundles scipy-openblas with prefixed symbols; plain
#: OpenBLAS exports the unprefixed names.  A BLAS without a getter could
#: not be restored after a hold, so it is left alone.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


#: Convolution-tensor elements (``K·B·N²·T``) each engine thread must have
#: before the work-size rule adds it.  Set from fit times on a 2-CPU host,
#: 1 vs 2 threads, fast preset unless noted: two threads slowed N = 10
#: (64,000 elements per step) from 0.20 to 0.33 s, were within noise at
#: N = 20 (256,000), N = 30 (576,000) and the Lorenz preset at N = 10
#: (204,800), and sped N = 40 (1,024,000) up from 2.0-2.4 to 1.7-1.8 s.
#: Re-checked once training ran in float32 end to end (half the bytes per
#: step): two threads slowed N = 20 (0.29 to 0.37 s) and N = 30 (0.51 to
#: 0.61 s) and were faster at N = 40 in 10 of 15 alternating pairs
#: (median paired ratio 0.94), so the crossover did not move.
#: Re-checked once each threaded step ran the convolution and attention as
#: concurrent branches (float32, 8 alternating process pairs per size,
#: ratio = two-thread over serial fit time, medians over each process's
#: fits): N = 20 0.317 vs 0.330 s (ratio 1.05, two threads faster in 3 of
#: 8), Lorenz preset N = 10 1.33 vs 1.41 s (1.04, 2 of 8), but at N = 30
#: two runs of 8 pairs read 0.633 vs 0.520 s and 0.605 vs 0.437 s (ratios
#: 0.77 and 0.70, two threads faster in 14 of 16).  Threading N = 30
#: needs a constant of at most 288,000, which would also hand N = 40 a
#: third thread on a 4-CPU host, where the steps chunk instead of
#: branching and which is unmeasured, so the constant stays until a rule
#: with a separate two-thread threshold is measured on such a host.
#: Re-checked once every engine call, serial ones included, held BLAS at
#: one thread (float32, 20 alternating process pairs per size, median
#: seconds per epoch over three 8-epoch fits on series of length 1000):
#: N = 20 15.6 vs 17.6 ms (ratio 1.14, two threads faster in 5 of 20),
#: N = 30 30.3 vs 25.2 ms (0.89, 14 of 20), Lorenz preset N = 10 33.8 vs
#: 33.2 ms (0.98, 11 of 20), so the crossover did not move.
#: The batched synthetic sweep's largest call (114,048) stays serial.
WORK_PER_THREAD = 400_000


def _parse_env_threads() -> Optional[int]:
    """``REPRO_ENGINE_THREADS`` as a count, or ``None`` when it is unset."""
    raw = os.environ.get("REPRO_ENGINE_THREADS", "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError("REPRO_ENGINE_THREADS must be a positive integer, "
                         f"got {raw!r}")
    return value


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


def _parse_env_debug() -> bool:
    raw = os.environ.get("REPRO_PARALLEL_DEBUG", "").strip().lower()
    return raw not in ("", "0", "false", "no", "off")


#: the explicit thread count; ``None`` leaves each call to the work-size rule
_engine_threads: Optional[int] = _parse_env_threads()
#: CPUs the work-size rule may hand out in this process
_cpu_budget: int = usable_cpus()
#: per Python thread: the count chosen for the engine call it is running
_call = threading.local()
_parallel_debug: bool = _parse_env_debug()
#: the loaded BLAS libraries' ``(setter, getter)`` pairs, found once
_blas_runtime: Optional[List[Tuple[Callable, Callable]]] = None
#: engine calls and sessions now holding BLAS at one thread, and the
#: counts to restore when the last of them ends
_blas_holds: int = 0
_blas_restore: List[Tuple[Callable, int]] = []
_config_lock = threading.Lock()


def _loaded_blas() -> List[Tuple[Callable, Callable]]:
    """Thread-count setter and getter of each BLAS loaded in this process."""
    global _blas_runtime
    if _blas_runtime is not None:
        return _blas_runtime
    try:
        with open("/proc/self/maps") as handle:
            paths = sorted(
                {
                    line.split()[-1]
                    for line in handle
                    if "blas" in line.lower() and line.rstrip().endswith(".so")
                }
            )
    except OSError:
        paths = []
    runtime = []
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_SYMBOLS:
            setter = getattr(library, set_name, None)
            getter = getattr(library, get_name, None)
            if setter is not None and getter is not None:
                runtime.append((setter, getter))
                break
    _blas_runtime = runtime
    return runtime


def _set_blas(setter: Callable, count: int) -> None:
    try:
        setter(count)
    except (ctypes.ArgumentError, OSError):  # pragma: no cover
        pass


@contextmanager
def _blas_held_at_one():
    """Hold BLAS at one thread while the block runs, then restore it.

    Engine threads and BLAS threads multiply (4 chunk threads each fanning
    a GEMM across 4 BLAS threads oversubscribe a 4-core host 4x), and BLAS
    may sum a GEMM in another order on another thread count, so every
    engine call runs its GEMMs on one BLAS thread, serial calls included.
    Nested and concurrent holds share one cap, lifted when the last of
    them ends.
    """
    global _blas_holds, _blas_restore
    with _config_lock:
        if _blas_holds == 0:
            _blas_restore = [(setter, getter())
                             for setter, getter in _loaded_blas()]
            for setter, _count in _blas_restore:
                _set_blas(setter, 1)
        _blas_holds += 1
    try:
        yield
    finally:
        with _config_lock:
            _blas_holds -= 1
            if _blas_holds == 0:
                for setter, count in _blas_restore:
                    _set_blas(setter, count)
                _blas_restore = []


def get_engine_threads() -> int:
    """The number of threads engine ops chunk across now (1 = serial).

    Inside an engine call that is the count chosen for the call; outside
    one, the explicit count, else 1.
    """
    threads = getattr(_call, "threads", None)
    if threads is None:
        threads = _engine_threads or 1
    return threads


def configured_engine_threads() -> Optional[int]:
    """The explicit thread count, or ``None`` when the work-size rule is on."""
    return _engine_threads


def set_engine_threads(n: Optional[int] = None) -> int:
    """Set the process-wide engine thread count; returns the count in effect.

    ``None`` re-reads ``REPRO_ENGINE_THREADS``; with it unset, engine calls
    follow the work-size rule (:func:`threads_for_work`).  The pool itself
    starts lazily on the first parallel call.
    """
    global _engine_threads
    count = _parse_env_threads() if n is None else int(n)
    if count is not None and count < 1:
        raise ValueError(f"engine threads must be >= 1, got {count}")
    _engine_threads = count
    return get_engine_threads()


@contextmanager
def engine_threads(n: Optional[int]):
    """Temporarily run with ``n`` engine threads (tests, benchmarks).

    ``None`` re-reads ``REPRO_ENGINE_THREADS``, as in
    :func:`set_engine_threads`.
    """
    global _engine_threads
    previous = _engine_threads
    set_engine_threads(n)
    try:
        yield
    finally:
        _engine_threads = previous


def share_cpus(workers: int) -> None:
    """Budget this process ``usable CPUs // workers`` CPUs, at least one.

    The initializer of a pool of ``workers`` processes, so the work-size
    rule in each worker hands out only that worker's share.
    """
    global _cpu_budget
    _cpu_budget = max(1, usable_cpus() // workers)


def threads_for_work(work: int) -> int:
    """Threads for one engine call over ``work`` convolution elements.

    An explicit count wins; otherwise ``min(CPU budget, work //
    WORK_PER_THREAD)``, and at least one.
    """
    if _engine_threads is not None:
        return _engine_threads
    return max(1, min(_cpu_budget, work // WORK_PER_THREAD))


def engine_session():
    """Hold BLAS at one thread from the block's start until it ends.

    A fit wraps its loop in one session, so it sets BLAS once and restores
    it once.  The optimizer's BLAS calls between steps (the gradient norm)
    run held too, so they neither wake BLAS's worker threads to spin
    against the next step's engine threads nor sum in another order than
    at any other thread count.  Sessions and engine calls nest.
    """
    return _blas_held_at_one()


@contextmanager
def engine_call(work: int):
    """Run one engine call on the threads its work size earns.

    Yields the count chosen.  BLAS is held at one thread while the call
    runs (:func:`_blas_held_at_one`).
    """
    previous = getattr(_call, "threads", None)
    threads = _call.threads = threads_for_work(work)
    try:
        with _blas_held_at_one():
            yield threads
    finally:
        _call.threads = previous


def set_parallel_debug(enabled: bool) -> None:
    """Toggle the chunk-aliasing audit (also: ``REPRO_PARALLEL_DEBUG``)."""
    global _parallel_debug
    _parallel_debug = bool(enabled)


def _chunk_bounds(n_items: int, n_chunks: int) -> List[Tuple[int, int]]:
    """Static contiguous chunking of ``range(n_items)`` into ``n_chunks``."""
    n_chunks = max(1, min(n_chunks, n_items))
    base, extra = divmod(n_items, n_chunks)
    bounds = []
    lo = 0
    for index in range(n_chunks):
        hi = lo + base + (1 if index < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def slice_axis(array: np.ndarray, axis: int, lo: int, hi: int) -> np.ndarray:
    """``array[..., lo:hi, ...]`` along ``axis`` (a view, never a copy)."""
    if axis == 0:
        return array[lo:hi]
    if axis == 1:
        return array[:, lo:hi]
    index = (slice(None),) * axis + (slice(lo, hi),)
    return array[index]


def _audit_outputs(outputs: Sequence[Tuple[np.ndarray, int]],
                   bounds: Sequence[Tuple[int, int]]) -> None:
    """Assert no two chunk views of any declared output overlap in memory.

    The bit-exactness contract of threaded ops rests on chunks writing
    disjoint slices.  A transposed or broadcast output view could break
    that silently; this audit (debug flag only — it is O(chunks^2) per
    output) turns such a mistake into a loud error at the call site.
    """
    for array, axis in outputs:
        views = [slice_axis(array, axis, lo, hi) for lo, hi in bounds]
        for i in range(len(views)):
            if views[i].size == 0:
                continue
            for j in range(i + 1, len(views)):
                if views[j].size == 0:
                    continue
                if np.shares_memory(views[i], views[j]):
                    raise RuntimeError(
                        "parallel_for output chunks alias overlapping memory "
                        f"(axis {axis}, chunks {i} and {j}); threaded writes "
                        "to this array would race"
                    )


class _Round:
    """One ``parallel_for`` invocation: a latch over its pending chunks."""

    __slots__ = ("body", "pending", "error", "lock", "done")

    def __init__(self, body: Callable[[int, int], None], n_chunks: int) -> None:
        self.body = body
        self.pending = n_chunks
        self.error: Optional[BaseException] = None
        self.lock = threading.Lock()
        self.done = threading.Event()

    def run_chunk(self, lo: int, hi: int) -> None:
        try:
            self.body(lo, hi)
        except BaseException as exc:  # noqa: BLE001 — re-raised in the caller
            with self.lock:
                if self.error is None:
                    self.error = exc
        finally:
            with self.lock:
                self.pending -= 1
                finished = self.pending == 0
            if finished:
                self.done.set()


class EngineThreadPool:
    """A lazily-started pool of daemon workers draining one task queue.

    Tasks are ``(round, lo, hi)`` chunk assignments.  Because the queue is
    shared and each round carries its own completion latch, any number of
    threads may submit rounds concurrently — the pool never assumes a
    single driver.  The submitting thread always executes the first chunk
    inline, so a round over ``n`` chunks occupies the caller plus at most
    ``n - 1`` workers and the pool needs no reserved capacity per caller.
    """

    def __init__(self) -> None:
        self._tasks: "queue.SimpleQueue" = queue.SimpleQueue()
        self._workers: List[threading.Thread] = []
        self._lock = threading.Lock()

    @property
    def worker_count(self) -> int:
        return len(self._workers)

    def _worker_loop(self) -> None:
        while True:
            round_, lo, hi = self._tasks.get()
            round_.run_chunk(lo, hi)

    def ensure_workers(self, count: int) -> None:
        """Grow the pool to at least ``count`` worker threads."""
        with self._lock:
            while len(self._workers) < count:
                worker = threading.Thread(
                    target=self._worker_loop,
                    name=f"repro-engine-{len(self._workers)}",
                    daemon=True,
                )
                worker.start()
                self._workers.append(worker)

    def run(self, body: Callable[[int, int], None],
            bounds: Sequence[Tuple[int, int]]) -> None:
        """Execute ``body`` over ``bounds``; chunk 0 runs on this thread."""
        round_ = _Round(body, len(bounds))
        if len(bounds) > 1:
            self.ensure_workers(len(bounds) - 1)
            for lo, hi in bounds[1:]:
                self._tasks.put((round_, lo, hi))
        round_.run_chunk(*bounds[0])
        round_.done.wait()
        if round_.error is not None:
            raise round_.error


_pool: Optional[EngineThreadPool] = None
_pool_lock = threading.Lock()


def get_engine_pool() -> EngineThreadPool:
    """The process-wide pool (created on first use, workers started lazily)."""
    global _pool
    if _pool is None:
        with _pool_lock:
            if _pool is None:
                _pool = EngineThreadPool()
    return _pool


def _reset_pool_after_fork() -> None:
    # Worker threads do not survive fork(); a child inheriting a "started"
    # pool would enqueue chunks nobody drains.  Rebuild lazily in the child.
    global _pool
    _pool = None


os.register_at_fork(after_in_child=_reset_pool_after_fork)


def parallel_for(body: Callable[[int, int], None], n_items: int,
                 outputs: Optional[Sequence[Tuple[np.ndarray, int]]] = None) -> None:
    """Run ``body(lo, hi)`` over static contiguous chunks of ``range(n_items)``.

    With ``get_engine_threads() <= 1`` or ``n_items <= 1`` this is exactly
    ``body(0, n_items)`` on the calling thread — the serial path, since
    ``array[0:n]`` slices are full-range views.  Otherwise the range is cut
    into ``min(threads, n_items)`` chunks executed by the shared pool (the
    caller runs chunk 0 inline).  Exceptions raised by any chunk re-raise
    here after the round drains.

    ``outputs`` optionally declares ``(array, chunk_axis)`` pairs written by
    the body; under the parallel-debug flag the chunk views are audited for
    memory overlap before running (see :func:`set_parallel_debug`).
    """
    threads = get_engine_threads()
    if threads <= 1 or n_items <= 1:
        body(0, n_items)
        return
    bounds = _chunk_bounds(n_items, threads)
    if _parallel_debug and outputs:
        _audit_outputs(outputs, bounds)
    get_engine_pool().run(body, bounds)


#: per branch, the arrays it writes and the arrays it reads
BranchDeclaration = Tuple[Sequence[np.ndarray], Sequence[np.ndarray]]


def _audit_branches(declared: Sequence[BranchDeclaration]) -> None:
    """Assert no array one branch writes overlaps what another touches.

    Concurrent branches are bit-exact only while each writes memory no
    other branch writes or reads; a buffer handed to the wrong branch
    would race silently.  Debug flag only, like :func:`_audit_outputs`.
    """
    for i, (writes, _reads) in enumerate(declared):
        for j, (other_writes, other_reads) in enumerate(declared):
            if i == j:
                continue
            for written in writes:
                for other in (*other_writes, *other_reads):
                    if np.shares_memory(written, other):
                        raise RuntimeError(
                            f"branch {i} writes memory that branch {j} also "
                            "writes or reads; concurrent branches would race")


def run_branches(*branches: Callable[[], object],
                 audit: Optional[Callable[[], Sequence[BranchDeclaration]]]
                 = None) -> tuple:
    """Run independent zero-argument ``branches``; return their results.

    With ``get_engine_threads() <= 1`` the branches run in order on the
    calling thread — the serial path.  Otherwise each is one task of the
    shared pool (the caller runs the first inline), with the thread count
    set to 1 while it runs: a branch's ``parallel_for`` calls run
    ``body(0, n)`` inline, so no round ever waits inside another.  An
    exception raised by a branch re-raises here once every branch ended.

    ``audit`` optionally returns one ``(writes, reads)`` pair of arrays per
    branch; under the parallel-debug flag :func:`_audit_branches` checks
    the pairs before concurrent branches start.  It is a callable so that
    an unaudited call builds no declaration.
    """
    threads = get_engine_threads()
    if threads <= 1 or len(branches) <= 1:
        return tuple(branch() for branch in branches)
    if _parallel_debug and audit is not None:
        _audit_branches(audit())
    results: List[object] = [None] * len(branches)

    def body(lo: int, hi: int) -> None:
        previous = getattr(_call, "threads", None)
        _call.threads = 1
        try:
            for index in range(lo, hi):
                results[index] = branches[index]()
        finally:
            _call.threads = previous

    get_engine_pool().run(body, _chunk_bounds(len(branches), threads))
    return tuple(results)
