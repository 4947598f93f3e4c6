"""Fused no-autograd inference engine for the CausalFormer pipeline.

Every non-gradient pass of this reproduction — validation scoring,
experiment-table evaluation, ``predict`` and the causality detector's
interpretation forward — evaluates the model in pure numpy:
causal convolution (stride-trick windows + batched GEMM with the Eq. 4
right-shift folded in), embedding + Q/K projection + masked tempered softmax
(Eq. 5), attention combination (Eq. 6–7), the MLP tail (Eq. 8) and the Eq. 9
loss, writing every intermediate into a reusable :class:`ScratchArena` so
steady-state evaluation performs no per-call heap allocation of large
temporaries.

There is one set of kernels.  :class:`StackedInferenceEngine` runs ``K``
same-architecture models at once, every buffer carrying a leading model
axis; :class:`InferenceEngine` is its single-model face — the same fleet at
``K = 1``, whose public methods only add or strip the model axis.  A solo
``discover()`` and a batched sweep therefore run the same arithmetic, and a
fleet row is bit-identical to that model alone.

Numerical contract: the fused forward follows one fixed operation sequence
(GEMM shapes, reduction orders, dtype promotions), and every engine path —
any fleet width, threaded ops, a retried fit — replays it exactly.  Against
the plain autograd reference
(:meth:`~repro.core.transformer.CausalityAwareTransformer.forward`, which
transcribes the paper's equations one op at a time) it agrees up to
floating-point rounding; the tests pin that at tolerance in float64 and
float32.  When a call runs on more than one thread — by the work-size rule
or an explicit ``set_engine_threads(n)`` (see :mod:`repro.nn.parallel`) —
it runs branches plus chunks on a shared worker pool.  The convolution
and the attention, which read only the windows and meet in the
combination, run as two concurrent branches when a single model runs on
two threads, each serial inside and over its own ``conv.*`` / ``att.*``
buffers; every other op — and those two stages of a fleet, or of a call on
more threads — chunks an independent leading axis (the model axis or a
per-model axis), each chunk performing exactly the per-slice work of the
serial op on disjoint output slices.  Either way every op and its order
are the serial call's, so threaded results stay bit-identical in both
dtypes.  The forward computes in the
model dtype throughout, as the reference does —
mask modulation, convolution values, attention, combination and MLP
tail — so a float32 model's predictions are float32.  Its convolution
GEMMs write straight into a ``(model, target, source, B·T)`` values
buffer, rescaled in place, that the Eq. 6 GEMMs read as strided views.
The detector interprets on that same forward:
:meth:`StackedInferenceEngine.interpretation_forward` runs it and hands out
the buffers it leaves behind, in the one layout the kernels write — among
them the pre-activation MLP hidden and the self-series convolution rows
before the Eq. 4 shift, which relevance propagation reads as they lie — and
:meth:`StackedInferenceEngine.interpretation_gradients` evaluates its
backward for every target series in one all-ones pass, so the detector
needs no autograd graph at all; it runs the training backward's own stages,
which live here because both callers need them.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.contracts import hot_path
from .parallel import (engine_call, engine_session, get_engine_threads,
                       parallel_for, run_branches, slice_axis)


class ScratchSpace:
    """One namespace of scratch buffers and derived views.

    A space belongs to a fixed workload shape (one ``(B, N, T, dtype)``
    combination), so buffer names map to stable arrays and the strided
    views derived from them (window views, transposes, reshapes) can be
    constructed once and replayed — view construction is pure Python
    overhead on a hot path this small.

    Concurrent branches may share a space on one invariant: every buffer
    is taken before the branches start, so no ``take`` inside a branch
    allocates (and clears the views), and each branch reads and builds
    only views under its own name prefix.  Branches do build views
    concurrently — a ``take`` outside them (a new backward plan's, say)
    clears every view, and the next branched call rebuilds its views from
    both threads at once — which is safe because the keys are distinct
    and each dict lookup or insertion is atomic under the GIL.
    """

    __slots__ = ("_buffers", "_views")

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}
        self._views: Dict[str, np.ndarray] = {}

    # repro: allow(dtype-purity): scratch default is the f64 reference dtype
    def take(self, name: str, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        buffer = self._buffers.get(name)
        if buffer is None or buffer.shape != shape or buffer.dtype != dtype:
            buffer = self._buffers[name] = np.zeros(shape, dtype=dtype)
            self._views.clear()
        return buffer

    def __getitem__(self, name: str) -> np.ndarray:
        """The buffer held under ``name`` (as the last ``take`` left it)."""
        return self._buffers[name]

    def view(self, name: str, factory) -> np.ndarray:
        """A cached derived view (``factory`` builds it on first use)."""
        cached = self._views.get(name)
        if cached is None:
            cached = self._views[name] = factory()
        return cached

    @property
    def nbytes(self) -> int:
        return sum(buffer.nbytes for buffer in self._buffers.values())

    def buffers(self):
        return self._buffers.values()


class ScratchArena:
    """A pool of reusable scratch buffers, grouped into namespaces.

    ``take`` serves one-off keys; ``space`` returns a :class:`ScratchSpace`
    for a workload shape, where buffers *and* their derived strided views
    are cached.  Buffers are allocated zero-filled and are dirty afterwards
    — each call site owns its keys and fully overwrites what it reads —
    with one deliberate exception: left-padding buffers rely on the
    allocation zero-fill and the call site never writing the pad region, so
    the zeros persist across reuses.
    """

    __slots__ = ("_buffers", "_spaces")

    def __init__(self) -> None:
        self._buffers: Dict[tuple, np.ndarray] = {}
        self._spaces: Dict[tuple, ScratchSpace] = {}

    # repro: allow(dtype-purity): scratch default is the f64 reference dtype
    def take(self, name: str, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        key = (name, shape)
        buffer = self._buffers.get(key)
        if buffer is None or buffer.dtype != dtype:
            buffer = self._buffers[key] = np.zeros(shape, dtype=dtype)
        return buffer

    def space(self, key: tuple) -> ScratchSpace:
        space = self._spaces.get(key)
        if space is None:
            space = self._spaces[key] = ScratchSpace()
        return space

    def __len__(self) -> int:
        return len(self._buffers) + sum(
            len(space._buffers) for space in self._spaces.values())

    @property
    def nbytes(self) -> int:
        return sum(buffer.nbytes for buffer in self._buffers.values()) + \
            sum(space.nbytes for space in self._spaces.values())

    def buffer_ids(self) -> Tuple[int, ...]:
        """Identities of the held buffers (tests assert steady-state reuse)."""
        identifiers = [id(buffer) for buffer in self._buffers.values()]
        for space in self._spaces.values():
            identifiers.extend(id(buffer) for buffer in space.buffers())
        return tuple(sorted(identifiers))

    def clear(self) -> None:
        self._buffers.clear()
        self._spaces.clear()


@hot_path
def max_last_keepdims(values: np.ndarray,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
    """Last-axis max (keepdims) — chained over columns for short rows.

    The maximum is exact whichever way it is reduced, so rows of up to 48
    columns use one vectorised ``np.maximum`` per column instead of numpy's
    per-row reduction machinery (2–9× faster at 16–40 columns), with
    bit-identical output; by 64 columns the strided column reads make the
    reduction faster again.  Shared by the inference softmax and the
    stacked trainer so the threshold lives in exactly one place.
    """
    n = values.shape[-1]
    if out is None:
        # repro: allow(hot-path-alloc): cold fallback; engines always pass out=
        out = np.empty(values.shape[:-1] + (1,), dtype=values.dtype)
    if 1 < n <= 48:
        flat = out[..., 0]
        np.maximum(values[..., 0], values[..., 1], out=flat)
        for column in range(2, n):
            np.maximum(flat, values[..., column], out=flat)
    else:
        np.max(values, axis=-1, keepdims=True, out=out)
    return out


@hot_path
def sum_last_keepdims(values: np.ndarray,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
    """Last-axis sum (keepdims) matching numpy's summation order bit for bit.

    numpy reduces rows of fewer than eight elements sequentially, which a
    left-to-right chained ``np.add`` over the columns replicates exactly;
    from eight elements on it switches to pairwise blocking, so longer rows
    keep ``np.sum``.  If a numpy release ever moves that threshold, this is
    the single place to track it.
    """
    n = values.shape[-1]
    if out is None:
        # repro: allow(hot-path-alloc): cold fallback; engines always pass out=
        out = np.empty(values.shape[:-1] + (1,), dtype=values.dtype)
    if 1 < n < 8:
        flat = out[..., 0]
        np.add(values[..., 0], values[..., 1], out=flat)
        for column in range(2, n):
            np.add(flat, values[..., column], out=flat)
    else:
        np.sum(values, axis=-1, keepdims=True, out=out)
    return out


def sized_by_batch(method: Callable) -> Callable:
    """Run ``method(self, x, ...)`` on the engine threads its batch earns.

    ``x`` is the ``(K, B, N, T)`` batch, so the call's convolution tensor
    holds ``K·B·N²·T`` elements (see :func:`repro.nn.parallel.engine_call`).
    """
    @functools.wraps(method)
    def wrapper(self, x: np.ndarray, *args, **kwargs):
        m, batch, n, window = x.shape
        with engine_call(m * batch * n * n * window):
            return method(self, x, *args, **kwargs)
    return wrapper


def tiled_scale(space: ScratchSpace, scale_array: np.ndarray,
                batch: int) -> np.ndarray:
    """The Eq. 3 ``1/t`` rescale repeated over ``batch`` windows.

    Multiplying ``(…, B·T)`` rows by it runs one contiguous inner loop per
    row instead of one ``T``-element loop per window.
    """
    return space.view(f"conv.scale.{scale_array.dtype.str}",
                      lambda: np.tile(scale_array, batch))


def reference_cast(windows, dtype) -> np.ndarray:
    """``windows`` with the Tensor-construction casts of the autograd forward.

    The reference first builds ``Tensor(x)`` (casting to the *engine
    default* dtype), then — when that differs from the model ``dtype`` —
    rebuilds ``Tensor(x.astype(dtype))``, whose constructor casts **back**
    to the default dtype.  Net effect: the result always carries the
    default dtype, with values rounded through the model dtype when that is
    the narrower type, so mixed-dtype configurations (e.g. a float32 model
    probed under a float64 session) see the same input values as the
    reference.  Both casts are elementwise.
    """
    from repro.nn import tensor as T

    default = np.dtype(T.get_default_dtype())
    arr = np.asarray(windows, dtype=default)
    if arr.dtype != dtype:
        arr = np.asarray(arr.astype(dtype), dtype=default)
    return arr


def series_diagonal(tsbt: np.ndarray) -> np.ndarray:
    """The writable ``(M, N, …)`` view of ``tsbt[:, i, i]``.

    ``tsbt`` is an ``(M, target, source, …)`` array in any memory layout;
    the view steps both series axes at once, so one copy shifts every
    self-series row (Eq. 4) without a per-series loop or a temporary.
    """
    strides = tsbt.strides
    return np.lib.stride_tricks.as_strided(
        tsbt, shape=tsbt.shape[:2] + tsbt.shape[3:],
        strides=(strides[0], strides[1] + strides[2]) + strides[3:])


#: the scratch buffers each forward branch writes
_CONVOLUTION_WRITES = ("conv.pad", "conv.windows_flat", "conv.tsbt",
                       "conv.pre_shift")
_ATTENTION_WRITES = ("att.emb", "att.proj", "att.qk", "att.raw", "att.probs",
                     "att.max", "att.sum")


def _take_branch_buffers(space: ScratchSpace, x: np.ndarray, stage: dict
                         ) -> None:
    """Take the scratch buffers the forward's convolution and attention
    write (:data:`_CONVOLUTION_WRITES`, :data:`_ATTENTION_WRITES`).

    :meth:`StackedInferenceEngine._forward` calls this before either stage
    starts, so when they run as concurrent branches neither allocates:
    the buffers come from the calling thread's malloc arena, and no
    ``take`` inside a branch clears the views the other branch is
    building.
    """
    m, batch, n, window = x.shape
    n_heads, d_qk = stage["n_heads"], stage["d_qk"]
    d_model = stage["embed_weight"].shape[-1]
    conv = np.result_type(x.dtype, stage["kernel_eff"].dtype)
    att = np.result_type(x.dtype, stage["embed_weight"].dtype)
    probs = np.result_type(att, stage["modulation"].dtype)
    take = space.take
    take("conv.pad", (m, batch, n, 2 * window), x.dtype)
    take("conv.windows_flat", (m, n, batch * window, window), x.dtype)
    take("conv.tsbt", (m, n, n, batch, window), conv)
    take("conv.pre_shift", (m, n, batch, window), conv)
    take("att.emb", (m, batch * n, d_model), att)
    take("att.proj", (m, batch * n, 2 * n_heads * d_qk), att)
    take("att.qk", (m, 2 * n_heads, batch, n, d_qk), att)
    take("att.raw", (m, n_heads, batch, n, n), att)
    take("att.probs", (m, n_heads, batch, n, n), probs)
    take("att.max", (m, n_heads, batch, n, 1), probs)
    take("att.sum", (m, n_heads, batch, n, 1), probs)


def _forward_branch_arrays(space: ScratchSpace, x: np.ndarray, stage: dict):
    """What the forward's convolution and attention branches write and
    read, for the branch audit (:func:`repro.nn.parallel.run_branches`)."""
    return (
        ([space[name] for name in _CONVOLUTION_WRITES],
         [x, stage["kernel_eff"]]),
        ([space[name] for name in _ATTENTION_WRITES],
         [x, stage["embed_weight"], stage["embed_bias"], stage["weight_flat"],
          stage["bias_flat"], stage["modulation"]]),
    )


def _mse_plus_penalties(diff: np.ndarray, penalties: List[float]) -> float:
    """One model's Eq. 9 loss: windowed MSE, then the penalty terms in order.

    Adding the grouped penalties one float at a time fixes the accumulation
    sequence, so every engine path (any fleet width, full-batch or chunked
    evaluation) reports the same loss bit for bit.
    """
    flat = diff.reshape(-1)
    value = np.dot(flat, flat) / diff.size
    for term in penalties:
        value = value + term
    return float(np.asarray(value, dtype=diff.dtype))


def _timed_op(op: str, bound: Callable, hook: Callable) -> Callable:
    """Wrap a bound op method so each call reports its wall time to ``hook``.

    The clock runs on the thread that calls the op: ops that fan work out
    through :func:`repro.nn.parallel.parallel_for` block it until every
    chunk drains, so the recorded wall time spans the op's full (possibly
    parallel) execution and per-op timings stay meaningful at any engine
    thread count.  Ops of concurrent branches (the convolution and the
    attention) are timed on their branch's thread, so their times overlap.
    """
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = bound(*args, **kwargs)
        hook(op, time.perf_counter() - start)
        return result
    return wrapper


def profiling_hook(telemetry) -> Callable[[str, float], None]:
    """A per-op wall-time hook recording ``engine.<op>_seconds`` histograms.

    Resolves each op's :class:`~repro.telemetry.metrics.Histogram` once and
    caches it, so a steady-state observation is one dict probe plus the
    histogram's own lock-protected update — no per-call f-string
    formatting or registry round-trip.  Histogram state is guarded by the
    registry lock, so one hook instance can safely serve several engines
    and trainer threads concurrently.
    """
    cache: Dict[str, object] = {}

    def hook(op: str, seconds: float) -> None:
        histogram = cache.get(op)
        if histogram is None:
            # repro: allow(telemetry-guard): cold path; resolved once, cached
            histogram = cache[op] = telemetry.histogram(
                f"engine.{op}_seconds")
        histogram.observe(seconds)

    return hook


class ProfilingSeam:
    """Optional per-op wall-time hook over an engine's fused building blocks.

    ``enable_profiling(hook)`` shadows each method named in ``_PROFILED_OPS``
    with an instance-attribute wrapper that calls
    ``hook(op_name, seconds)`` after every invocation;
    ``disable_profiling()`` pops the shadows so the *class* methods run
    again.  Because the hook lives entirely in the instance ``__dict__``,
    an engine that never enables profiling pays nothing — not even an
    ``if``— on the hot path.

    Hooks must be safe to call from any thread that drives the engine:
    :func:`profiling_hook` (cached histograms over the lock-protected
    metrics registry) is the canonical implementation.  Threaded ops are
    timed on the thread that calls them (see :func:`_timed_op`), so a
    wrapper never fires concurrently with itself for a single engine
    instance, though two branch ops' wrappers may.
    """

    _PROFILED_OPS: Tuple[str, ...] = ()

    def enable_profiling(self, hook: Callable[[str, float], None]) -> None:
        self.disable_profiling()
        for name in self._PROFILED_OPS:
            bound = getattr(type(self), name).__get__(self)
            setattr(self, name, _timed_op(name.lstrip("_"), bound, hook))

    def disable_profiling(self) -> None:
        for name in self._PROFILED_OPS:
            self.__dict__.pop(name, None)

    @property
    def profiling_enabled(self) -> bool:
        return any(name in self.__dict__ for name in self._PROFILED_OPS)


@dataclass
class StackedInterpretationForward:
    """The training forward of ``M`` same-architecture models, kept for
    interpretation.

    The fields are the buffers :meth:`StackedInferenceEngine._forward`
    leaves in its scratch space, in the one layout its kernels write, and
    both the all-ones backward and relevance propagation read them as they
    lie.  A one-model forward is the ``M = 1`` case.  All arrays are arena
    views — valid until the next engine call.
    """

    inputs: np.ndarray                 # (M, B, N, T)
    embedding: np.ndarray              # (M, B, N, d_model)
    tsbt: np.ndarray                   # (M, target, source, B, T) values
    pre_shift: np.ndarray              # (M, N, B, T) self rows before Eq. 4
    windows_flat: np.ndarray           # (M, N, B·T, K)
    raw_scores: np.ndarray             # (M, h, B, N, N) Q·Kᵀ, unmodulated
    attention_probs: np.ndarray        # (M, h, B, N, N)
    heads: np.ndarray                  # (M, B, N, h, T) per-head outputs
    combined: np.ndarray               # (M, B, N, T)
    hidden: np.ndarray                 # (M, B, N, d_ffn) pre-activation
    slope: np.ndarray                  # (M, B·N, d_ffn)
    activated: np.ndarray              # (M, B, N, d_ffn)
    ffn_output: np.ndarray             # (M, B, N, T)
    output: np.ndarray                 # (M, B, N, T)
    stage: dict                        # the staged weights the pass ran on


class StackedInferenceEngine(ProfilingSeam):
    """Forward-only evaluator for ``M`` same-architecture models at once.

    The engine kernels of this reproduction: every buffer carries a leading
    model axis, so a whole fleet's evaluation (and its interpretation
    forward/backward) runs through one set of numpy calls.  A batched sweep
    runs its groups through it directly
    (:class:`repro.core.batched.StackedCausalFormerTrainer`,
    :func:`repro.core.detector.compute_scores_group`); a single model runs
    it at ``M = 1`` through :class:`InferenceEngine`.

    Numerical contract: batched matmuls dispatch one GEMM per 2-D slice and
    every reduction keeps its per-model order (per-row ``np.dot`` for the
    head combination, per-model loss accumulation), so each model's results
    are **bit-identical** to running it in a fleet of one — in float64 and
    float32 alike, at any fleet width.  Training, validation and
    interpretation run the one :meth:`_forward`, with the convolution
    values laid out for its GEMMs (see :meth:`_convolution`).
    """

    _PROFILED_OPS = ("_causal_windows", "_convolution", "_attention_probs",
                     "_combine_layout")

    def _model_axis_first(self, m: int, inner: int) -> bool:
        """Chunk over the model axis (True) or the inner axis (False)?

        The model axis when the fleet is at least as wide as the running
        call's thread count or the inner axis.  Either choice is
        bit-identical — chunking any leading axis of a batched matmul /
        element-wise op preserves the per-slice work exactly — so this is
        purely a load-balance decision.
        """
        if inner <= 1:
            return True
        if m <= 1:
            return False
        return m >= get_engine_threads() or m >= inner

    @staticmethod
    def _branches_concurrent(m: int) -> bool:
        """Run the convolution and attention sides of a step as concurrent
        branches (True), or in order with their ops chunked (False)?

        Either is bit-identical; branches are chosen only where paired step
        timings on a 2-CPU host showed them faster: a single model on two
        threads (``fast_preset`` N = 40 and ``lorenz_preset`` N = 10, 20 and
        40 steps 7-20% faster), where chunks must split the batch or series
        axis.  A fleet chunks whole models instead, and there branches
        lost where the attention side outweighs the value side
        (``lorenz_preset`` N = 10 at K = 3 and 4, N = 20 at K = 2: 9-18%
        slower) though they won on ``fast_preset`` fleets, so fleets chunk
        until a rule can tell the two apart.  Two branches leave a third
        thread idle, and more than two threads are unmeasured, so those
        calls chunk too.
        """
        return m == 1 and get_engine_threads() == 2

    def __init__(self, models: Sequence, arena: Optional[ScratchArena] = None) -> None:
        if not models:
            raise ValueError("need at least one model")
        self.models = list(models)
        reference = [(name, parameter.data.shape, parameter.data.dtype)
                     for name, parameter in self.models[0].named_parameters()]
        for model in self.models[1:]:
            shapes = [(name, parameter.data.shape, parameter.data.dtype)
                      for name, parameter in model.named_parameters()]
            if shapes != reference:
                raise ValueError(
                    "stacked inference requires same-architecture models "
                    "(matching parameter names, shapes and dtypes)")
            if model.convolution.single_kernel != \
                    self.models[0].convolution.single_kernel:
                raise ValueError("models disagree on single_kernel")
            # The staging below reads these scalars from the first model
            # only — a silent mismatch would misprice every other model.
            if model.attention.temperature != \
                    self.models[0].attention.temperature:
                raise ValueError("models disagree on attention temperature")
            if model.feed_forward.negative_slope != \
                    self.models[0].feed_forward.negative_slope:
                raise ValueError("models disagree on the leaky-ReLU slope")
        self.arena = arena if arena is not None else ScratchArena()

    @property
    def dtype(self):
        return self.models[0].embedding.weight.data.dtype

    # ------------------------------------------------------------------ #
    # Weight staging
    # ------------------------------------------------------------------ #
    def _stage(self) -> dict:
        """Stage the fused weight layouts for the current parameter values.

        The engine re-reads the models' parameters on every public call
        (they change between validation passes during training):
        :meth:`_parameter_stacks` serves each one as an ``(M, *shape)``
        stack, and :meth:`_fuse` builds the fused layouts from the stacks.
        """
        return self._fuse(self._parameter_stacks())

    def _parameter_stacks(self) -> Dict[str, np.ndarray]:
        """Name → ``(M, *shape)`` arena stack of every model's parameter.

        The models are independent objects here, so each stack is a copy;
        a training engine, whose models already live in one stacked
        matrix, serves views of it instead.
        """
        arena = self.arena
        m = len(self.models)
        stacks = {name: arena.take(f"stack.{name}",
                                   (m,) + parameter.data.shape,
                                   parameter.data.dtype)
                  for name, parameter in self.models[0].named_parameters()}
        for row, model in enumerate(self.models):
            for name, parameter in model.named_parameters():
                stacks[name][row] = parameter.data
        return stacks

    def _fuse(self, stacked: Dict[str, np.ndarray]) -> dict:
        """The fused weight layouts over ``(M, *shape)`` parameter stacks.

        Concatenated Q/K projections, the scaled mask modulation and the
        broadcast single kernel are copied into arena buffers; every other
        entry is the stack itself.  A stack's per-model slice is
        C-contiguous whether it is an arena copy or a view of a stacked
        parameter matrix, so every per-slice GEMM is the same bit for bit.
        """
        arena = self.arena
        first = self.models[0]
        attention = first.attention
        dtype = self.dtype
        m = len(self.models)
        n_heads = attention.n_heads
        d_qk = attention.query_weights[0].data.shape[-1]
        d_model = first.embedding.weight.data.shape[-1]
        n = first.convolution.n_series
        window = first.convolution.window
        head_names = [f"attention.heads.{h}" for h in range(n_heads)]

        weight_flat = arena.take("stack.weight_flat",
                                 (m, d_model, 2 * n_heads * d_qk), dtype)
        bias_flat = arena.take("stack.bias_flat", (m, 2 * n_heads * d_qk),
                               dtype)
        stacks = [stacked[f"{name}.w_query"] for name in head_names] \
            + [stacked[f"{name}.w_key"] for name in head_names]
        bias_stacks = [stacked[f"{name}.b_query"] for name in head_names] \
            + [stacked[f"{name}.b_key"] for name in head_names]
        for index, (weights, biases) in enumerate(zip(stacks, bias_stacks)):
            columns = slice(index * d_qk, (index + 1) * d_qk)
            weight_flat[:, :, columns] = weights
            bias_flat[:, columns] = biases

        # The modulation is staged in the model dtype, as the reference
        # scales its scores by a default-dtype scalar, so the attention
        # downstream of it runs in the model dtype too.  ``scale`` is a
        # float64 numpy scalar: each element rounds once, after the product.
        scale = 1.0 / (attention.temperature * np.sqrt(attention.d_qk))
        modulation = arena.take("stack.modulation", (m, n_heads, 1, n, n),
                                dtype)
        for index, name in enumerate(head_names):
            modulation[:, index, 0] = stacked[f"{name}.mask"]
        modulation *= scale

        kernel_stack = stacked["convolution.kernel"]
        if first.convolution.single_kernel:
            kernel_eff = arena.take("stack.kernel", (m, n, n, window), dtype)
            np.multiply(kernel_stack,
                        first.convolution._ones_broadcast.data,
                        out=kernel_eff)
        else:
            kernel_eff = kernel_stack

        return {
            "dtype": dtype,
            "n_heads": n_heads,
            "d_qk": d_qk,
            "weight_flat": weight_flat,
            "bias_flat": bias_flat,
            "modulation": modulation,
            "kernel_eff": kernel_eff,
            "scale_array": first.convolution._scale_array,
            "embed_weight": stacked["embedding.weight"],
            "embed_bias": stacked["embedding.bias"],
            "w1": stacked["feed_forward.w1"],
            "b1": stacked["feed_forward.b1"],
            "w2": stacked["feed_forward.w2"],
            "b2": stacked["feed_forward.b2"],
            "w3": stacked["output_layer.weight"],
            "b3": stacked["output_layer.bias"],
            "negative_slope": first.feed_forward.negative_slope,
            "w_output": stacked["attention.w_output"],
        }

    # ------------------------------------------------------------------ #
    # Fused building blocks (leading model axis, same per-slice ops)
    # ------------------------------------------------------------------ #
    @hot_path
    def _causal_windows(self, space: ScratchSpace, x: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Left-zero-pad ``x`` and return ``(padded, windows_flat)``.

        ``windows_flat`` is the ``(M, N, B·T, K)`` contiguous GEMM layout of
        the causal window view (one batched GEMM per source series).
        """
        m, batch, n, window = x.shape
        padded = space["conv.pad"]
        padded[..., window:] = x
        flat = space["conv.windows_flat"]
        source = space.view("conv.window_view", lambda: np.lib.stride_tricks
                            .sliding_window_view(padded, window, axis=-1)
                            [..., 1:, :].transpose(0, 2, 1, 3, 4))
        target = space.view("conv.windows_flat.5d",
                            lambda: flat.reshape(m, n, batch, window, window))
        axis = 0 if self._model_axis_first(m, n) else 1

        def body(lo: int, hi: int) -> None:
            np.copyto(slice_axis(target, axis, lo, hi),
                      slice_axis(source, axis, lo, hi))

        parallel_for(body, target.shape[axis], outputs=((target, axis),))
        return padded, flat

    @hot_path
    def _convolution(self, space: ScratchSpace, x: np.ndarray, stage: dict
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """Fused causal convolution (Eq. 3) with the Eq. 4 right-shift.

        Returns ``(tsbt, windows_flat)``: the ``(M, target, source, B, T)``
        convolution values and the window layout (reused by the
        convolution backward), both in the convolution dtype.  One GEMM per
        source series writes its ``(target, B·T)`` rows straight into the
        values buffer, which the Eq. 6 GEMMs read as strided views, and one
        in-place multiply applies the 1/t rescale over runs of ``B·T``
        elements.  The self-series rows are kept in ``conv.pre_shift``
        before the shift, for relevance propagation.
        """
        m, batch, n, window = x.shape
        kernel = stage["kernel_eff"]
        _padded, flat = self._causal_windows(space, x)
        flat_t = space.view("conv.windows_flat.t",
                            lambda: flat.transpose(0, 1, 3, 2))
        tsbt = space["conv.tsbt"]
        # T nests inside B, so merging them is a view; the GEMMs write
        # (M, source, target, B·T) through its transpose.
        tsbt_flat = space.view("conv.tsbt.flat", lambda: tsbt.reshape(
            m, n, n, batch * window))
        stbt = space.view("conv.tsbt.st",
                          lambda: tsbt_flat.transpose(0, 2, 1, 3))
        axis = 0 if self._model_axis_first(m, n) else 1

        def matmul_body(lo: int, hi: int) -> None:
            np.matmul(slice_axis(kernel, axis, lo, hi),
                      slice_axis(flat_t, axis, lo, hi),
                      out=slice_axis(stbt, axis, lo, hi))

        parallel_for(matmul_body, stbt.shape[axis], outputs=((stbt, axis),))
        scale = tiled_scale(space, stage["scale_array"], batch)

        def scale_body(lo: int, hi: int) -> None:
            rows = slice_axis(tsbt_flat, axis, lo, hi)
            np.multiply(rows, scale, out=rows)

        parallel_for(scale_body, tsbt_flat.shape[axis],
                     outputs=((tsbt_flat, axis),))
        diagonal = space.view("conv.diagonal", lambda: series_diagonal(tsbt))
        pre_shift = space["conv.pre_shift"]
        np.copyto(pre_shift, diagonal)
        np.copyto(diagonal[..., 1:], pre_shift[..., :-1])
        diagonal[..., 0] = 0.0
        return tsbt, flat

    @hot_path
    def _softmax_inplace(self, space: ScratchSpace, probs: np.ndarray) -> None:
        """Tempered-softmax normalisation along the last axis, in place.

        Bit-identical to ``x -= x.max(…); exp; x /= x.sum(…)`` — see
        :func:`max_last_keepdims` / :func:`sum_last_keepdims` for why the
        chained reductions are exact replicas.  Normalisation is row-wise
        over a contiguous arena buffer, so the (model, head, batch) leading
        axes flatten into one parallel axis.
        """
        flat = probs.reshape((-1,) + probs.shape[-2:])
        ext = space["att.max"].reshape(flat.shape[:-1] + (1,))
        tot = space["att.sum"].reshape(flat.shape[:-1] + (1,))

        def body(lo: int, hi: int) -> None:
            rows = flat[lo:hi]
            rows -= max_last_keepdims(rows, out=ext[lo:hi])
            np.exp(rows, out=rows)
            rows /= sum_last_keepdims(rows, out=tot[lo:hi])

        parallel_for(body, flat.shape[0],
                     outputs=((flat, 0), (ext, 0), (tot, 0)))

    @hot_path
    def _attention_probs(self, space: ScratchSpace, x: np.ndarray, stage: dict
                         ) -> np.ndarray:
        """Embedding → all-head Q/K projection → masked tempered softmax."""
        m, batch, n, window = x.shape
        n_heads, d_qk = stage["n_heads"], stage["d_qk"]
        x2d = x.reshape(m, batch * n, window)
        emb, proj = space["att.emb"], space["att.proj"]
        embed_weight, embed_bias = stage["embed_weight"], stage["embed_bias"]
        weight_flat, bias_flat = stage["weight_flat"], stage["bias_flat"]

        # The embedding/projection GEMMs are batched over the model axis
        # only (per-model weights), so they always chunk across models.
        def project_body(lo: int, hi: int) -> None:
            np.matmul(x2d[lo:hi], embed_weight[lo:hi], out=emb[lo:hi])
            emb[lo:hi] += embed_bias[lo:hi, None, :]
            np.matmul(emb[lo:hi], weight_flat[lo:hi], out=proj[lo:hi])
            proj[lo:hi] += bias_flat[lo:hi, None, :]

        parallel_for(project_body, m, outputs=((emb, 0), (proj, 0)))
        qk = space["att.qk"]
        proj_t = space.view("att.proj.t",
                            lambda: proj.reshape(m, batch, n, 2 * n_heads, d_qk)
                            .transpose(0, 3, 1, 2, 4))
        raw = space["att.raw"]
        k_t = space.view("att.k.t",
                         lambda: qk[:, n_heads:].transpose(0, 1, 2, 4, 3))
        modulation = stage["modulation"]
        probs = space["att.probs"]
        query = qk[:, :n_heads]
        # Layout copy + per-(m, h, b) score GEMMs + modulation multiply in
        # one round: the batch axis sits at index 2 of every operand, the
        # model axis at 0.  ``modulation`` is (m, h, 1, n, n): sliced along
        # the model axis, broadcast (unsliced) along the batch axis.
        axis = 0 if self._model_axis_first(m, batch) else 2

        def body(lo: int, hi: int) -> None:
            np.copyto(slice_axis(qk, axis, lo, hi),
                      slice_axis(proj_t, axis, lo, hi))
            np.matmul(slice_axis(query, axis, lo, hi),
                      slice_axis(k_t, axis, lo, hi),
                      out=slice_axis(raw, axis, lo, hi))
            np.multiply(slice_axis(raw, axis, lo, hi),
                        modulation[lo:hi] if axis == 0 else modulation,
                        out=slice_axis(probs, axis, lo, hi))

        parallel_for(body, raw.shape[axis],
                     outputs=((qk, axis), (raw, axis), (probs, axis)))
        self._softmax_inplace(space, probs)
        return probs

    @hot_path
    def _combine_layout(self, space: ScratchSpace, probs: np.ndarray,
                        tsbt: np.ndarray) -> np.ndarray:
        """Per-head application of the attention to the values (Eq. 6).

        Returns the ``(M, B, i, h, T)`` head outputs.  One GEMM per
        ``(model, target, batch)`` slice reads the attention probabilities
        and the :meth:`_convolution` buffer as strided views.
        """
        m, n_heads, batch, n, _ = probs.shape
        window = tsbt.shape[-1]
        out_dtype = np.result_type(probs.dtype, tsbt.dtype)
        head_outputs = space.take("comb.ho", (m, batch, n, n_heads, window),
                                  out_dtype)
        # The batch axis sits innermost, so consecutive GEMMs read
        # neighbouring ``T``-runs of the values buffer.
        a_ib = space.view("comb.a.ib", lambda: probs.transpose(0, 3, 2, 1, 4))
        v_ib = space.view("comb.v.ib", lambda: tsbt.transpose(0, 1, 3, 2, 4))
        ho_ib = space.view("comb.ho.ib", lambda: head_outputs.swapaxes(1, 2))
        axis = 0 if self._model_axis_first(m, n) else 1

        def body(lo: int, hi: int) -> None:
            np.matmul(slice_axis(a_ib, axis, lo, hi),
                      slice_axis(v_ib, axis, lo, hi),
                      out=slice_axis(ho_ib, axis, lo, hi))

        parallel_for(body, ho_ib.shape[axis], outputs=((ho_ib, axis),))
        return head_outputs

    @hot_path
    @sized_by_batch
    def _forward(self, x: np.ndarray, stage: dict) -> np.ndarray:
        m, batch, n, window = x.shape
        space = self._space(x)
        # The convolution and the attention both read only the windows and
        # meet in the combination, so they may run as concurrent branches
        # over their disjoint ``conv.*`` / ``att.*`` buffers, which are all
        # taken here, before either starts.
        _take_branch_buffers(space, x, stage)
        convolution = functools.partial(self._convolution, space, x, stage)
        attention = functools.partial(self._attention_probs, space, x, stage)
        if self._branches_concurrent(m):
            (tsbt, _flat), probs = run_branches(
                convolution, attention,
                audit=lambda: _forward_branch_arrays(space, x, stage))
        else:
            (tsbt, _flat), probs = convolution(), attention()
        head_outputs = self._combine_layout(space, probs, tsbt)
        n_heads = stage["n_heads"]
        dtype = head_outputs.dtype
        at = space.take("comb.at", (m, batch, n, window, n_heads), dtype)
        ho_t = space.view("comb.ho.t",
                          lambda: head_outputs.transpose(0, 1, 2, 4, 3))
        at_axis = 0 if self._model_axis_first(m, batch) else 1

        def at_body(lo: int, hi: int) -> None:
            np.copyto(slice_axis(at, at_axis, lo, hi),
                      slice_axis(ho_t, at_axis, lo, hi))

        parallel_for(at_body, at.shape[at_axis], outputs=((at, at_axis),))
        combined = space.take("comb.out", (m, batch * n * window, 1), dtype)
        at2d = space.view("comb.at.2d",
                          lambda: at.reshape(m, batch * n * window, n_heads))
        w_output = stage["w_output"]

        # Per-row np.dot, replicating the single engine's GEMV-dot exactly;
        # each row writes only its own ``combined[row]``, so the row loop
        # chunks across models.
        def dot_body(lo: int, hi: int) -> None:
            for row in range(lo, hi):
                np.dot(at2d[row],
                       w_output[row].reshape(n_heads, 1)
                       .astype(dtype, copy=False),
                       out=combined[row])

        parallel_for(dot_body, m, outputs=((combined, 0),))
        x2d = space.view("comb.out.2d",
                         lambda: combined.reshape(m, batch * n, window))
        d_ffn = stage["w1"].shape[-1]
        hidden = space.take("mlp.hidden", (m, batch * n, d_ffn), dtype)
        activated = space.take("mlp.activated", hidden.shape, dtype)
        ffn = space.take("mlp.ffn", (m, batch * n, window), dtype)
        out2d = space.take("mlp.out", (m, batch * n, window), dtype)
        slope = space.take("mlp.slope", hidden.shape, dtype)
        mask = space.take("mlp.slope.mask", hidden.shape, np.bool_)
        w1, b1 = stage["w1"], stage["b1"]
        w2, b2 = stage["w2"], stage["b2"]
        w3, b3 = stage["w3"], stage["b3"]
        low = dtype.type(stage["negative_slope"])
        one = dtype.type(1.0)

        # The MLP tail's GEMMs are batched over the model axis (per-model
        # weights), so the whole tail chunks across models.  The slope is
        # ``np.where(hidden > 0, 1, negative_slope)`` (the reference's
        # leaky ReLU) without temporaries: the constants are written
        # exactly.  The pre-activation hidden stays for relevance
        # propagation.
        def mlp_body(lo: int, hi: int) -> None:
            np.matmul(x2d[lo:hi], w1[lo:hi], out=hidden[lo:hi])
            hidden[lo:hi] += b1[lo:hi, None, :]
            np.greater(hidden[lo:hi], 0, out=mask[lo:hi])
            slope[lo:hi].fill(low)
            np.copyto(slope[lo:hi], one, where=mask[lo:hi])
            np.multiply(hidden[lo:hi], slope[lo:hi], out=activated[lo:hi])
            np.matmul(activated[lo:hi], w2[lo:hi], out=ffn[lo:hi])
            ffn[lo:hi] += b2[lo:hi, None, :]
            np.matmul(ffn[lo:hi], w3[lo:hi], out=out2d[lo:hi])
            out2d[lo:hi] += b3[lo:hi, None, :]

        parallel_for(mlp_body, m,
                     outputs=((hidden, 0), (activated, 0), (ffn, 0),
                              (out2d, 0), (slope, 0), (mask, 0)))
        return space.view("mlp.out.4d",
                          lambda: out2d.reshape(m, batch, n, window))

    # ------------------------------------------------------------------ #
    # Backward stages shared by the training step and the detector
    # ------------------------------------------------------------------ #
    @hot_path
    def _mlp_input_backward(self, grad_output: np.ndarray, stage: dict,
                            slope: np.ndarray, grad_ffn: np.ndarray,
                            grad_hidden: np.ndarray,
                            grad_combined: np.ndarray) -> None:
        """Back through the MLP tail's linears, from the ``(M, B·N, T)``
        prediction gradient to ``grad_combined``; the GEMMs carry per-model
        weights, so the chain chunks across models only."""
        w3_t = stage["w3"].transpose(0, 2, 1)
        w2_t = stage["w2"].transpose(0, 2, 1)
        w1_t = stage["w1"].transpose(0, 2, 1)

        def body(lo: int, hi: int) -> None:
            np.matmul(grad_output[lo:hi], w3_t[lo:hi], out=grad_ffn[lo:hi])
            np.matmul(grad_ffn[lo:hi], w2_t[lo:hi], out=grad_hidden[lo:hi])
            grad_hidden[lo:hi] *= slope[lo:hi]
            np.matmul(grad_hidden[lo:hi], w1_t[lo:hi],
                      out=grad_combined[lo:hi])

        parallel_for(body, len(grad_output),
                     outputs=((grad_ffn, 0), (grad_hidden, 0),
                              (grad_combined, 0)))

    @hot_path
    def _combine_backward(self, grad_combined: np.ndarray, stage: dict,
                          grad_heads: np.ndarray) -> None:
        """Back through the head combination, into the ``(M, B, i, h, T)``
        head gradients that both Eq. 6 halves read."""
        m, batch, n, n_heads, _ = grad_heads.shape
        grad_in = grad_combined.reshape(m, batch, n, 1, -1).swapaxes(1, 2)
        heads_ib = grad_heads.swapaxes(1, 2)
        w_out5 = stage["w_output"][:, None, None, :, None]
        axis = 0 if self._model_axis_first(m, n) else 1

        def body(lo: int, hi: int) -> None:
            np.multiply(slice_axis(grad_in, axis, lo, hi),
                        w_out5[lo:hi] if axis == 0 else w_out5,
                        out=slice_axis(heads_ib, axis, lo, hi))

        parallel_for(body, heads_ib.shape[axis], outputs=((heads_ib, axis),))

    @hot_path
    def _combine_attention_backward(self, grad_heads: np.ndarray,
                                    tsbt: np.ndarray,
                                    grad_probs: np.ndarray) -> None:
        """Eq. 6's attention half: the attention gradient, in the softmax's
        layout, one GEMM per ``(model, target, batch)`` slice, batch axis
        innermost, as :meth:`_combine_layout`."""
        m, n = tsbt.shape[:2]
        heads_ib = grad_heads.swapaxes(1, 2)
        values_t = tsbt.transpose(0, 1, 3, 4, 2)
        grad_a = grad_probs.transpose(0, 3, 2, 1, 4)
        axis = 0 if self._model_axis_first(m, n) else 1

        def body(lo: int, hi: int) -> None:
            np.matmul(slice_axis(heads_ib, axis, lo, hi),
                      slice_axis(values_t, axis, lo, hi),
                      out=slice_axis(grad_a, axis, lo, hi))

        parallel_for(body, grad_a.shape[axis], outputs=((grad_a, axis),))

    @hot_path
    def _combine_values_backward(self, grad_heads: np.ndarray,
                                 probs: np.ndarray,
                                 grad_tsbt: np.ndarray) -> None:
        """Eq. 6's value half: the value gradient, in ``tsbt``'s layout,
        sliced as :meth:`_combine_attention_backward`."""
        m, n = grad_tsbt.shape[:2]
        heads_ib = grad_heads.swapaxes(1, 2)
        probs_t = probs.transpose(0, 3, 2, 4, 1)
        grad_v = grad_tsbt.swapaxes(2, 3)
        axis = 0 if self._model_axis_first(m, n) else 1

        def body(lo: int, hi: int) -> None:
            np.matmul(slice_axis(probs_t, axis, lo, hi),
                      slice_axis(heads_ib, axis, lo, hi),
                      out=slice_axis(grad_v, axis, lo, hi))

        parallel_for(body, grad_v.shape[axis], outputs=((grad_v, axis),))

    @hot_path
    def _convolution_backward(self, grad_tsbt: np.ndarray,
                              unshift: np.ndarray, scale: np.ndarray,
                              windows_flat: np.ndarray,
                              kernel_grads: np.ndarray) -> None:
        """Back through the Eq. 4 shift (via the ``(M, N, B, T − 1)``
        ``unshift`` scratch) and the convolution: the 1/t rescale in place,
        then one GEMM per source series into ``(M, source, target, K)``."""
        m, n, _, batch, window = grad_tsbt.shape
        diagonal = series_diagonal(grad_tsbt)
        np.copyto(unshift, diagonal[..., 1:])
        np.copyto(diagonal[..., :-1], unshift)
        diagonal[..., -1] = 0.0
        grad_stbt = grad_tsbt.reshape(m, n, n, batch * window) \
            .transpose(0, 2, 1, 3)
        axis = 0 if self._model_axis_first(m, n) else 1

        def body(lo: int, hi: int) -> None:
            grad = slice_axis(grad_stbt, axis, lo, hi)
            np.multiply(grad, scale, out=grad)
            np.matmul(grad, slice_axis(windows_flat, axis, lo, hi),
                      out=slice_axis(kernel_grads, axis, lo, hi))

        parallel_for(body, kernel_grads.shape[axis],
                     outputs=((grad_stbt, axis), (kernel_grads, axis)))

    # ------------------------------------------------------------------ #
    # Batch staging and evaluation
    # ------------------------------------------------------------------ #
    def _as_model_batch(self, windows_list: Sequence[np.ndarray]) -> np.ndarray:
        """Stack ``M`` window sets into one contiguous ``(M, B, N, T)`` buffer,
        each cast as the autograd forward casts it (:func:`reference_cast`)."""
        cast: List[np.ndarray] = []
        for windows in windows_list:
            arr = reference_cast(windows, self.dtype)
            if arr.ndim == 2:
                arr = arr[None, :, :]
            cast.append(arr)
        shapes = {arr.shape for arr in cast}
        if len(shapes) != 1:
            raise ValueError("stacked evaluation requires same-shape window sets")
        batch = self.arena.take("stack.batch", (len(cast),) + cast[0].shape,
                                cast[0].dtype)
        for row, arr in enumerate(cast):
            batch[row] = arr
        return batch

    @hot_path
    def _windowed_diff(self, prediction: np.ndarray, target: np.ndarray,
                       start_slot: int = 1) -> np.ndarray:
        diff_shape = prediction.shape[:-1] + (prediction.shape[-1] - start_slot,)
        diff = self.arena.take("stack.loss.diff", diff_shape, prediction.dtype)
        np.subtract(prediction[..., start_slot:], target[..., start_slot:],
                    out=diff)
        return diff

    def _penalty_terms(self, row: int) -> List[float]:
        """Model ``row``'s Eq. 9 L1 penalty contributions, one per coefficient.

        Groups equal-coefficient penalties (insertion order: kernel first,
        then the per-head masks), so adding the returned floats in order
        gives one fixed accumulation sequence.  The arena keys carry the
        row, so the fleet's models never share penalty scratch buffers of
        coincidentally equal size.
        """
        model = self.models[row]
        arena = self.arena
        prefix = f"m{row}."
        config = model.config
        pairs = []
        if config.lambda_kernel > 0:
            pairs.append((config.lambda_kernel, model.convolution.kernel))
        if config.lambda_mask > 0:
            pairs.extend((config.lambda_mask, head.mask)
                         for head in model.attention.heads)
        groups: Dict[float, List[np.ndarray]] = {}
        for coefficient, tensor in pairs:
            groups.setdefault(coefficient, []).append(tensor.data.ravel())
        terms: List[float] = []
        for group_index, (coefficient, arrays) in enumerate(groups.items()):
            if len(arrays) == 1:
                flat = arrays[0]
            else:
                total = sum(array.size for array in arrays)
                flat = arena.take(f"{prefix}loss.penalty{group_index}",
                                  (total,), arrays[0].dtype)
                offset = 0
                for array in arrays:
                    flat[offset:offset + array.size] = array
                    offset += array.size
            magnitude = arena.take(f"{prefix}loss.abs{group_index}",
                                   flat.shape, flat.dtype)
            np.abs(flat, out=magnitude)
            terms.append(coefficient * float(magnitude.sum()))
        return terms

    def forward(self, windows_list: Sequence[np.ndarray]) -> np.ndarray:
        """Stacked fused forward; returns the ``(M, B, N, T)`` prediction view."""
        stage = self._stage()
        return self._forward(self._as_model_batch(windows_list), stage)

    #: largest per-model ``B·N²·T`` intermediate (elements) evaluated as one
    #: batch; larger window sets fall back to the chunk-by-chunk loop to keep
    #: peak memory proportional to the batch size.
    FULL_BATCH_ELEMENT_LIMIT = 4_000_000

    def evaluate(self, windows_list: Sequence[np.ndarray],
                 batch_size: int) -> List[float]:
        """Per-model window-weighted mean losses over ``batch_size`` chunks.

        Each loss matches chunked evaluation of the autograd reference loss
        up to rounding, at zero steady-state allocation.  When the
        ``(M, B, N, N, T)`` convolution intermediate fits the memory budget,
        the whole window set runs as one forward pass — identical rows, one
        GEMM dispatch instead of one per chunk — and the chunk losses are
        then read off slices of the shared windowed-difference buffer,
        preserving the chunk-weighted mean exactly.  Either way a model's
        loss is bit-identical to evaluating it in a fleet of one.
        """
        stage = self._stage()
        arrays = [np.asarray(windows) for windows in windows_list]
        if len(arrays) != len(self.models):
            raise ValueError("one window set per model required")
        shapes = {arr.shape for arr in arrays}
        if len(shapes) != 1:
            raise ValueError("stacked evaluation requires same-shape window sets")
        shape = arrays[0].shape
        m = len(self.models)
        penalties = [self._penalty_terms(row) for row in range(m)]
        # The element budget bounds the *total* scratch footprint, and the
        # stacked buffers carry a leading model axis — so each model's share
        # is the per-model limit divided by the fleet size.  The full-batch
        # and chunked paths are bit-identical per model, so this only moves
        # the memory/speed trade-off, never the results.
        if len(shape) == 3 and shape[0] and (
                shape[0] * shape[1] ** 2 * shape[2]
                <= self.FULL_BATCH_ELEMENT_LIMIT // m):
            batch = self._as_model_batch(arrays)
            diff = self._windowed_diff(self._forward(batch, stage), batch)
            results: List[float] = []
            for row in range(m):
                total = 0.0
                count = 0
                for start in range(0, shape[0], batch_size):
                    chunk = diff[row, start:start + batch_size]
                    total += _mse_plus_penalties(
                        chunk, penalties[row]) * len(chunk)
                    count += len(chunk)
                results.append(total / count)
            return results
        totals = [0.0] * m
        count = 0
        for start in range(0, shape[0], batch_size):
            chunk = self._as_model_batch(
                [arr[start:start + batch_size] for arr in arrays])
            diff = self._windowed_diff(self._forward(chunk, stage), chunk)
            for row in range(m):
                totals[row] += _mse_plus_penalties(
                    diff[row], penalties[row]) * chunk.shape[1]
            count += chunk.shape[1]
        return [total / count if count else float("nan") for total in totals]

    def evaluate_grouped(self, window_sets: Sequence[np.ndarray],
                         batch_size: int) -> List[float]:
        """The stacked trainer's per-epoch validation pass.

        The trainer's lanes carry equal validation counts, so this is
        :meth:`evaluate` over the whole fleet; it stays a method of its own
        so that a profiler can time validation apart from other stacked
        evaluations.
        """
        return self.evaluate(window_sets, batch_size)

    # ------------------------------------------------------------------ #
    # Detector support: the training forward + all-targets backward
    # ------------------------------------------------------------------ #
    def interpretation_forward(self, windows_list: Sequence[np.ndarray]
                               ) -> StackedInterpretationForward:
        """One stacked forward shared by every model and target."""
        return self._interpretation_pass(windows_list)

    def interpretation_gradients(self, forward: StackedInterpretationForward
                                 ) -> Tuple[np.ndarray, np.ndarray]:
        """Every target's gradients in one all-ones pass, stacked over models.

        Returns ``(attention_grads, kernel_grads)`` of shapes
        ``(M, h, B, N, N)`` ``[model, head, batch, target, source]`` and
        ``(M, N, N, K)`` ``[model, source, target, τ]`` (``(M, 1, N, K)``
        for the single-kernel ablation: each target's kernel gradient
        summed over its sources).
        """
        return self._interpretation_gradients(forward)

    def _space(self, x: np.ndarray) -> ScratchSpace:
        """The scratch space of the ``(M, B, N, T)`` batch ``x``.

        Keyed by the model dtype too: engines of different dtypes may share
        an arena, and were they to share a space, one engine's reallocation
        of a buffer would leave the other's cached
        :class:`~repro.nn.training_engine._StackedBackwardPlan` handles
        pointing at stale buffers.
        """
        return self.arena.space(("stack.eval", x.shape, x.dtype.str,
                                 self.dtype.str))

    def _interpretation_pass(self, windows_list: Sequence[np.ndarray]
                             ) -> StackedInterpretationForward:
        """:meth:`_forward` on the windows, with views of what it leaves."""
        stage = self._stage()
        x = self._as_model_batch(windows_list)
        output = self._forward(x, stage)
        m, batch, n, window = x.shape
        space = self._space(x)

        def per_series(name: str) -> np.ndarray:
            return space[name].reshape(m, batch, n, -1)

        return StackedInterpretationForward(
            inputs=x, embedding=per_series("att.emb"),
            tsbt=space["conv.tsbt"], pre_shift=space["conv.pre_shift"],
            windows_flat=space["conv.windows_flat"],
            raw_scores=space["att.raw"], attention_probs=space["att.probs"],
            heads=space["comb.ho"], combined=per_series("comb.out"),
            hidden=per_series("mlp.hidden"), slope=space["mlp.slope"],
            activated=per_series("mlp.activated"),
            ffn_output=per_series("mlp.ffn"), output=output, stage=stage)

    def _interpretation_gradients(self, forward: StackedInterpretationForward
                                  ) -> Tuple[np.ndarray, np.ndarray]:
        """The backward of :meth:`_forward`, seeded with ones on every
        output row.

        The FFN and output linears act along time only, so effect rows
        never mix after the attention: row ``g`` of the attention gradients
        and effect column ``g`` of the kernel gradients are exactly what a
        backward seeded on output row ``g`` alone computes.  The tests pin
        this against one autograd ``backward()`` per target on the
        reference forward.

        The stages are the training backward's
        (:meth:`repro.nn.training_engine.StackedTrainingEngine._backward`);
        only the all-ones seed, the kernel-dtype cast and the per-target
        single-kernel sum are the detector's own.  The buffers are allocated
        per call, so none stays in the arena while relevance propagation
        runs.  The pass holds BLAS at one thread like any engine call
        (:func:`~repro.nn.parallel.engine_session`) but is not sized by its
        batch: under the work-size rule it runs serially, under an explicit
        count its stages thread.  (Sizing it would run the Lorenz-96
        N = 40 detector's pass on two threads for 4 MB more peak memory
        and no measured time.)
        """
        stage = forward.stage
        m, batch, n, window = forward.output.shape
        with engine_session():
            rows = (m, batch * n)
            dtype = forward.output.dtype
            grad_combined = np.empty(rows + (window,), dtype)
            self._mlp_input_backward(
                np.ones(rows + (window,), dtype), stage, forward.slope,
                np.empty(rows + (window,), dtype),
                np.empty(forward.slope.shape, dtype), grad_combined)
            grad_heads = np.empty((m, batch, n, stage["n_heads"], window),
                                  dtype)
            self._combine_backward(grad_combined, stage, grad_heads)
            attention_grads = np.empty(forward.attention_probs.shape, dtype)
            self._combine_attention_backward(grad_heads, forward.tsbt,
                                             attention_grads)
            grad_tsbt = np.empty(forward.tsbt.shape, dtype)
            self._combine_values_backward(grad_heads, forward.attention_probs,
                                          grad_tsbt)
            kernel_grads = np.empty((m, n, n, window), dtype)   # (M,N,N,K)
            self._convolution_backward(
                grad_tsbt, np.empty((m, n, batch, window - 1), dtype),
                tiled_scale(self._space(forward.inputs), stage["scale_array"],
                            batch),
                forward.windows_flat, kernel_grads)
        kernel_dtype = self.models[0].convolution.kernel.data.dtype
        if kernel_grads.dtype != kernel_dtype:
            # The node-boundary cast happens before the single-kernel
            # unbroadcast sum in the autograd graph; keep that order.
            kernel_grads = np.asarray(kernel_grads, dtype=kernel_dtype)
        if self.models[0].convolution.single_kernel:
            # Per target the shared kernel's gradient sums over both series
            # axes; only the target's effect column is non-zero there, so
            # the per-effect sum over sources keeps the targets apart.
            kernel_grads = kernel_grads.sum(axis=1, keepdims=True)
        return attention_grads, kernel_grads


class InferenceEngine:
    """One model's face of :class:`StackedInferenceEngine`: the fleet at K = 1.

    Parameters
    ----------
    model:
        A :class:`~repro.core.transformer.CausalityAwareTransformer` (or any
        object with the same ``embedding`` / ``convolution`` / ``attention``
        / ``feed_forward`` / ``output_layer`` / ``config`` attributes).
    arena:
        Optional shared :class:`ScratchArena`; a private one is created when
        omitted.

    Every method adds the model axis to its arguments, runs the fleet's
    kernels and strips the axis from the result, so a solo pass is
    bit-identical to that model's row in any fleet.  The faces call the
    fleet's private bodies rather than its public methods, so code that
    wraps both (the benchmark's tracing) sees each call once.
    """

    def __init__(self, model, arena: Optional[ScratchArena] = None) -> None:
        self.model = model
        self._fleet = StackedInferenceEngine([model], arena)

    @property
    def fleet(self) -> StackedInferenceEngine:
        """The one-model fleet whose kernels this face runs."""
        return self._fleet

    @property
    def arena(self) -> ScratchArena:
        return self._fleet.arena

    @property
    def dtype(self):
        return self.model.embedding.weight.data.dtype

    # ------------------------------------------------------------------ #
    # Per-op profiling (the fleet's ProfilingSeam)
    # ------------------------------------------------------------------ #
    def enable_profiling(self, hook: Callable[[str, float], None]) -> None:
        self._fleet.enable_profiling(hook)

    def disable_profiling(self) -> None:
        self._fleet.disable_profiling()

    @property
    def profiling_enabled(self) -> bool:
        return self._fleet.profiling_enabled

    # ------------------------------------------------------------------ #
    # Forward, loss (paper Eq. 9) and evaluation
    # ------------------------------------------------------------------ #
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Fused forward pass; returns the ``(B, N, T)`` prediction buffer.

        ``x`` must already be C-contiguous in the model dtype.  The returned
        array is an arena view, valid until the next engine call.
        """
        fleet = self.fleet
        return fleet._forward(x[None], fleet._stage())[0]

    def loss(self, windows: np.ndarray) -> float:
        """Eq. 9 training loss of the model on a batch of windows."""
        fleet = self.fleet
        stage = fleet._stage()
        batch = fleet._as_model_batch([windows])
        diff = fleet._windowed_diff(fleet._forward(batch, stage), batch)
        return _mse_plus_penalties(diff[0], fleet._penalty_terms(0))

    def evaluate(self, windows: np.ndarray, batch_size: int) -> float:
        """Window-weighted mean loss over ``batch_size`` chunks
        (:meth:`StackedInferenceEngine.evaluate` at K = 1)."""
        return self.fleet.evaluate([windows], batch_size)[0]

    def predict(self, windows: np.ndarray) -> np.ndarray:
        """Numpy-in / numpy-out prediction (returns an owned copy)."""
        squeeze = np.ndim(windows) == 2
        prediction = self.fleet.forward([windows])[0]
        return prediction[0].copy() if squeeze else prediction.copy()

    # ------------------------------------------------------------------ #
    # Detector support
    # ------------------------------------------------------------------ #
    def interpretation_forward(self, windows: np.ndarray
                               ) -> StackedInterpretationForward:
        """The fused forward, kept for the detector: the one-model
        :class:`StackedInterpretationForward`, shared by every target
        series."""
        return self.fleet._interpretation_pass([windows])

    def interpretation_gradients(self, forward: StackedInterpretationForward
                                 ) -> Tuple[np.ndarray, np.ndarray]:
        """Gradients of ``Σ_t prediction[:, g, :]`` for every target ``g``.

        Returns ``(attention_grads, kernel_grads)`` of shapes
        ``(h, B, N, N)`` ``[head, batch, target, source]`` and ``(N, N, K)``
        ``[source, target, τ]`` (``(1, N, K)`` for the single-kernel
        ablation): row 0 of :meth:`StackedInferenceEngine
        .interpretation_gradients`.
        """
        attention, kernel = self.fleet._interpretation_gradients(forward)
        return attention[0], kernel[0]
