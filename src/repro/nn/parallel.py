"""Intra-engine parallel execution: a persistent worker pool + static chunking.

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

This module provides the execution seam the engines thread through:

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

* While engine ops run on more than one thread, BLAS threading is held
  at 1 (a best-effort runtime call into the loaded OpenBLAS) so our chunk
  threads do not oversubscribe against BLAS's own pool.  An explicit count
  above one pins it for the rest of the process (plus the environment
  variables, for pool workers); a call the work-size rule threads holds it
  only until the call — or the fit (:func:`engine_session`) — ends, so
  serial calls keep BLAS's threads.
* Under ``REPRO_PARALLEL_DEBUG`` (or :func:`set_parallel_debug`), call
  sites may declare their output arrays and the audit asserts via
  ``np.shares_memory`` that no two chunk views alias overlapping memory —
  future op authors cannot silently introduce a data race.
"""

from __future__ import annotations

import ctypes
import os
import queue
import threading
from contextlib import ExitStack, contextmanager, nullcontext
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
    "limit_blas_threads",
    "parallel_for",
    "set_engine_threads",
    "set_parallel_debug",
    "share_cpus",
    "slice_axis",
    "threads_for_work",
    "usable_cpus",
]

#: Environment variables consulted by the common BLAS/threading runtimes.
_BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: Runtime ``(set, get)`` thread-count entry points of an already-loaded
#: OpenBLAS.  numpy >= 2 bundles scipy-openblas with prefixed symbols; plain
#: OpenBLAS exports the unprefixed names.  ``goto_set_num_threads`` has no
#: getter, so a BLAS exporting only it can be capped but not restored.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
    ("goto_set_num_threads", None),
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
_blas_limited: bool = False
#: the loaded BLAS libraries' ``(setter, getter or None)`` pairs, found once
_blas_runtime: Optional[List[Tuple[Callable, Optional[Callable]]]] = None
#: engine calls now holding BLAS at one thread, and the counts to restore
_blas_holds: int = 0
_blas_restore: List[Tuple[Callable, int]] = []
_config_lock = threading.Lock()


def _loaded_blas() -> List[Tuple[Callable, Optional[Callable]]]:
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
            if setter is not None:
                getter = getattr(library, get_name, None) if get_name else None
                runtime.append((setter, getter))
                break
    _blas_runtime = runtime
    return runtime


def _set_blas(setter: Callable, count: int) -> None:
    try:
        setter(count)
    except (ctypes.ArgumentError, OSError):  # pragma: no cover
        pass


def limit_blas_threads() -> None:
    """Pin BLAS to a single thread for good (idempotent, best effort).

    Engine threads and BLAS threads multiply: 4 chunk threads each fanning
    a GEMM across 4 BLAS threads oversubscribes a 4-core host 4x.  Under an
    explicit engine thread count above one the engines own the outer
    parallelism, so BLAS is capped at 1.

    Environment variables only matter for libraries loaded *after* this
    call (e.g. spawned pool workers importing numpy fresh); for the BLAS
    already linked into this process we additionally call
    ``openblas_set_num_threads(1)`` on the loaded shared object.
    """
    global _blas_limited
    with _config_lock:
        if _blas_limited:
            return
        _blas_limited = True
    for var in _BLAS_ENV_VARS:
        os.environ[var] = "1"
    for setter, _getter in _loaded_blas():
        _set_blas(setter, 1)


@contextmanager
def _blas_held_at_one():
    """Hold BLAS at one thread while the block runs, then restore it.

    The work-size rule threads some engine calls and leaves others serial,
    so it caps BLAS only for the threaded ones: serial calls keep BLAS's
    own threads.  Nested and concurrent holds share one cap, lifted when
    the last of them ends (unless :func:`limit_blas_threads` made it
    permanent meanwhile).
    """
    global _blas_holds, _blas_restore
    with _config_lock:
        if _blas_holds == 0 and not _blas_limited:
            _blas_restore = [(setter, getter())
                             for setter, getter in _loaded_blas()
                             if getter is not None]
            for setter, _count in _blas_restore:
                _set_blas(setter, 1)
        _blas_holds += 1
    try:
        yield
    finally:
        with _config_lock:
            _blas_holds -= 1
            if _blas_holds == 0:
                if not _blas_limited:
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
    follow the work-size rule (:func:`threads_for_work`).  Enabling more
    than one thread pins BLAS to a single thread (see
    :func:`limit_blas_threads`); the pool itself starts lazily on the first
    parallel call.
    """
    global _engine_threads
    count = _parse_env_threads() if n is None else int(n)
    if count is not None and count < 1:
        raise ValueError(f"engine threads must be >= 1, got {count}")
    _engine_threads = count
    if count is not None and count > 1:
        limit_blas_threads()
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


class _Session:
    """One thread's engine session: a BLAS hold kept until it ends."""

    __slots__ = ("stack", "held")

    def __init__(self) -> None:
        self.stack = ExitStack()
        self.held = False

    def hold_blas(self) -> None:
        if not self.held:
            self.stack.enter_context(_blas_held_at_one())
            self.held = True


@contextmanager
def engine_session():
    """Keep the BLAS hold of the block's first threaded call until it ends.

    A fit wraps its loop in one session.  Its steps alternate with BLAS
    calls of their own (the optimizer's gradient norm); lifting the hold
    between steps would let those calls wake BLAS's worker threads, which
    then spin against the next step's engine threads.  Nested sessions
    join the outer one.
    """
    if getattr(_call, "session", None) is not None:
        yield
        return
    session = _call.session = _Session()
    try:
        with session.stack:
            yield
    finally:
        _call.session = None


@contextmanager
def engine_call(work: int):
    """Run one engine call on the threads its work size earns.

    Yields the count chosen.  While a call the rule threads runs, BLAS is
    held at one thread — until the enclosing :func:`engine_session` ends,
    if there is one (an explicit count caps it for good instead).
    """
    previous = getattr(_call, "threads", None)
    threads = _call.threads = threads_for_work(work)
    hold = nullcontext()
    if threads > 1 and _engine_threads is None:
        session = getattr(_call, "session", None)
        if session is None:
            hold = _blas_held_at_one()
        else:
            session.hold_blas()
    try:
        with hold:
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
    if _engine_threads is not None:
        # Covers the env-seeded path (``REPRO_ENGINE_THREADS`` at import
        # skips ``set_engine_threads``); idempotent after the first call.
        # A count the rule chose already holds BLAS (:func:`engine_call`).
        limit_blas_threads()
    bounds = _chunk_bounds(n_items, threads)
    if _parallel_debug and outputs:
        _audit_outputs(outputs, bounds)
    get_engine_pool().run(body, bounds)
