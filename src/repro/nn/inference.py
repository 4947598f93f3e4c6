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
any fleet width, threaded ops, a resumed fit — replays it exactly.  Against
the plain autograd reference
(:meth:`~repro.core.transformer.CausalityAwareTransformer.forward`, which
transcribes the paper's equations one op at a time) it agrees up to
floating-point rounding; the tests pin that at tolerance in float64 and
float32.  With ``set_engine_threads(n)`` (see :mod:`repro.nn.parallel`) the
dominant ops chunk an independent leading axis — the model axis or the
widest per-model axis — across a shared worker pool; each chunk performs
exactly the per-slice work of the serial op on disjoint output slices, so
threaded results stay bit-identical in both dtypes.  The detector-facing
:meth:`StackedInferenceEngine.interpretation_forward` follows a second fixed
sequence (per-head outputs, 3-D linears, einsum head combination,
source-major convolution layout) that the detector's scores depend on, and
:meth:`StackedInferenceEngine.interpretation_gradients` hand-evaluates the
backward of that sequence for every target series in one all-ones pass —
the detector needs no autograd graph at all.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.contracts import hot_path
from .parallel import get_engine_threads, parallel_for, slice_axis


class ScratchSpace:
    """One namespace of scratch buffers and derived views.

    A space belongs to a fixed workload shape (one ``(B, N, T, dtype)``
    combination), so buffer names map to stable arrays and the strided
    views derived from them (window views, transposes, reshapes) can be
    constructed once and replayed — view construction is pure Python
    overhead on a hot path this small.
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


@dataclass
class InterpretationForward:
    """One model's row of a :class:`StackedInterpretationForward`.

    ``cache`` is a :class:`~repro.core.transformer.TransformerCache`-shaped
    object consumed by regression relevance propagation; the remaining
    arrays are the forward internals the hand-derived all-targets backward
    reads.  ``stacked``/``row`` name the fleet forward this row belongs to,
    which :meth:`InferenceEngine.interpretation_gradients` differentiates.
    All arrays are views into the engine's arena — valid until the next
    engine call.
    """

    cache: object
    attention_probs: np.ndarray        # (h, B, N, N)
    slope: np.ndarray                  # (B, N, d_ffn) leaky-ReLU slopes
    a_bihj: np.ndarray                 # (B, i, h, j) attention, GEMM layout
    v_bijt: np.ndarray                 # (B, i, j, t) values, GEMM layout
    windows_flat: np.ndarray           # (N, B·T, K) causal windows, GEMM layout
    stacked: "StackedInterpretationForward"
    row: int


@hot_path
def max_last_keepdims(values: np.ndarray,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
    """Last-axis max (keepdims) — chained over columns for short rows.

    The maximum is exact whichever way it is reduced, so short rows use one
    vectorised ``np.maximum`` per column instead of numpy's per-row
    reduction machinery (~6× faster at this project's row lengths), with
    bit-identical output.  Shared by the inference softmax and the stacked
    trainer so the threshold lives in exactly one place.
    """
    n = values.shape[-1]
    if out is None:
        # repro: allow(hot-path-alloc): cold fallback; engines always pass out=
        out = np.empty(values.shape[:-1] + (1,), dtype=values.dtype)
    if 1 < n <= 16:
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


@hot_path
def _leaky_slope(space: ScratchSpace, name: str, pre_activation: np.ndarray,
                 negative_slope: float) -> np.ndarray:
    """``np.where(x > 0, 1, negative_slope)`` without temporaries.

    The constants are written exactly (``copyto`` with a mask), matching
    ``np.where``'s selection (:func:`repro.nn.functional.leaky_relu`) bit
    for bit.
    """
    dtype = pre_activation.dtype
    slope = space.take(name, pre_activation.shape, dtype)
    mask = space.take(name + ".mask", pre_activation.shape, np.bool_)
    np.greater(pre_activation, 0, out=mask)
    slope.fill(dtype.type(negative_slope))
    np.copyto(slope, dtype.type(1.0), where=mask)
    return slope


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

    The clock runs on the *dispatching* thread: ops that fan work out
    through :func:`repro.nn.parallel.parallel_for` block the caller until
    every chunk drains, so the recorded wall time spans the op's full
    (possibly parallel) execution and per-op timings stay meaningful at any
    engine thread count.
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
    timed on the dispatching thread (see :func:`_timed_op`), so a wrapper
    never fires concurrently with itself for a single engine instance.
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
    """One fused cache forward for ``M`` same-architecture models at once.

    The stacked arrays feed the model-axis gradient backward and relevance
    propagation; :meth:`row` views model ``m`` as an ordinary
    :class:`InterpretationForward` (its cache arrays are row-``m`` views of
    these buffers), so every per-model consumer (gradient modulation,
    raw-weight ablation, graph construction) runs on bit-identical data.
    All arrays are arena views — valid until the next engine call.
    """

    inputs: np.ndarray                 # (M, B, N, T)
    embedding: np.ndarray              # (M, B, N, d_model)
    output: np.ndarray                 # (M, B, N, T)
    values: np.ndarray                 # (M, B, N, N, T) source-major layout
    values_pre: np.ndarray             # (M, B, N, N, T) pre-shift, float64
    conv_windows: np.ndarray           # (M, B, N, T, K) strided float64 view
    scores: np.ndarray                 # (M, h, B, N, N) pre-softmax
    attention_probs: np.ndarray        # (M, h, B, N, N)
    head_outputs: np.ndarray           # (M, h, B, N, T)
    combined: np.ndarray               # (M, B, N, T)
    hidden: np.ndarray                 # (M, B, N, d_ffn) pre-activation
    activated: np.ndarray              # (M, B, N, d_ffn)
    ffn_output: np.ndarray             # (M, B, N, T)
    slope: np.ndarray                  # (M, B, N, d_ffn)
    a_bihj: np.ndarray                 # (M, B, i, h, j)
    v_bijt: np.ndarray                 # (M, B, i, j, t)
    windows_flat: np.ndarray           # (M, N, B·T, K)
    stage: dict                        # the staged weights the pass ran on

    @property
    def forwards(self) -> List[InterpretationForward]:
        return [self.row(index) for index in range(self.output.shape[0])]

    def row(self, index: int) -> InterpretationForward:
        """Model ``index``'s forward, cache included, as row views."""
        from repro.core.attention import AttentionHeadCache
        from repro.core.transformer import TransformerCache

        head_caches = [
            AttentionHeadCache(
                attention=None, head_output=None,
                attention_data=self.attention_probs[index, head],
                head_output_data=self.head_outputs[index, head],
                scores_data=self.scores[index, head],
            )
            for head in range(self.attention_probs.shape[1])
        ]
        cache = TransformerCache(
            inputs=self.inputs[index],
            embedding=self.embedding[index],
            values_pre_shift=self.values_pre[index],
            values=self.values[index],
            conv_windows=self.conv_windows[index],
            head_caches=head_caches,
            attention_combined=self.combined[index],
            ffn_hidden=self.hidden[index],
            ffn_activated=self.activated[index],
            ffn_output=self.ffn_output[index],
            output=self.output[index],
            values_tensor=None,
        )
        return InterpretationForward(
            cache=cache, attention_probs=self.attention_probs[index],
            slope=self.slope[index], a_bihj=self.a_bihj[index],
            v_bijt=self.v_bijt[index], windows_flat=self.windows_flat[index],
            stacked=self, row=index)


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
    float32 alike, at any fleet width.  The per-model memory layouts are
    fixed (including the source-major convolution layout), because einsum
    summation order — hence detector bit-identity — depends on operand
    strides.
    """

    _PROFILED_OPS = ("_causal_windows", "_convolution", "_attention_probs",
                     "_combine_layout")

    #: Which axis stacked ops chunk across under ``set_engine_threads``:
    #: ``True`` → the model axis ``K``, ``False`` → the widest per-model
    #: inner axis, ``None`` (default) → whichever offers more lanes for the
    #: configured thread count.  The batching layer
    #: (:class:`repro.core.batched.StackedCausalFormerTrainer`) sets this
    #: per group.  Either choice is bit-identical — chunking any leading
    #: axis of a batched matmul / element-wise op preserves the per-slice
    #: work exactly — so this is purely a load-balance knob.
    parallel_model_axis: Optional[bool] = None

    def _model_axis_first(self, m: int, inner: int) -> bool:
        """Chunk over the model axis (True) or the inner axis (False)?"""
        if inner <= 1:
            return True
        if m <= 1:
            return False
        prefer = self.parallel_model_axis
        if prefer is None:
            prefer = m >= get_engine_threads() or m >= inner
        return bool(prefer)

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
        (they change between validation passes during training), copying
        them into stacked arena buffers and building the fused layouts:
        concatenated Q/K projections, the scaled mask modulation and the
        broadcast single kernel.
        """
        arena = self.arena
        models = self.models
        m = len(models)
        first = models[0]
        attention = first.attention
        dtype = self.dtype
        n_heads = attention.n_heads
        d_qk = attention.query_weights[0].data.shape[-1]
        d_model = first.embedding.weight.data.shape[-1]
        n = first.convolution.n_series
        window = first.convolution.window

        weight_flat = arena.take("stack.weight_flat",
                                 (m, d_model, 2 * n_heads * d_qk), dtype)
        bias_flat = arena.take("stack.bias_flat", (m, 2 * n_heads * d_qk), dtype)
        for row, model in enumerate(models):
            weights = model.attention.query_weights + model.attention.key_weights
            biases = model.attention.query_biases + model.attention.key_biases
            for index, (weight, bias) in enumerate(zip(weights, biases)):
                columns = slice(index * d_qk, (index + 1) * d_qk)
                weight_flat[row, :, columns] = weight.data
                bias_flat[row, columns] = bias.data

        # ``scale`` is a float64 numpy scalar, so ``mask_stack * scale``
        # promotes the modulation — and everything downstream of the
        # attention scores — to float64 even under the float32 engine.
        # Every engine path keeps that promotion.
        scale = 1.0 / (attention.temperature * np.sqrt(attention.d_qk))
        modulation = arena.take("stack.modulation", (m, n_heads, 1, n, n),
                                np.float64)
        for row, model in enumerate(models):
            for index, mask in enumerate(model.attention.mask_parameters):
                modulation[row, index, 0] = mask.data
        modulation *= scale

        kernel_eff = arena.take("stack.kernel", (m, n, n, window), dtype)
        for row, model in enumerate(models):
            convolution = model.convolution
            if convolution.single_kernel:
                np.multiply(convolution.kernel.data,
                            convolution._ones_broadcast.data,
                            out=kernel_eff[row])
            else:
                kernel_eff[row] = convolution.kernel.data

        def stacked_copy(name: str, arrays: List[np.ndarray]) -> np.ndarray:
            buffer = arena.take(name, (m,) + arrays[0].shape, arrays[0].dtype)
            for row, array in enumerate(arrays):
                buffer[row] = array
            return buffer

        return {
            "dtype": dtype,
            "n_heads": n_heads,
            "d_qk": d_qk,
            "weight_flat": weight_flat,
            "bias_flat": bias_flat,
            "modulation": modulation,
            "kernel_eff": kernel_eff,
            "scale_array": first.convolution._scale_array,
            "embed_weight": stacked_copy(
                "stack.embed_w", [model.embedding.weight.data for model in models]),
            "embed_bias": stacked_copy(
                "stack.embed_b", [model.embedding.bias.data for model in models]),
            "w1": stacked_copy("stack.w1", [model.feed_forward.w1.data for model in models]),
            "b1": stacked_copy("stack.b1", [model.feed_forward.b1.data for model in models]),
            "w2": stacked_copy("stack.w2", [model.feed_forward.w2.data for model in models]),
            "b2": stacked_copy("stack.b2", [model.feed_forward.b2.data for model in models]),
            "w3": stacked_copy("stack.w3", [model.output_layer.weight.data for model in models]),
            "b3": stacked_copy("stack.b3", [model.output_layer.bias.data for model in models]),
            "negative_slope": first.feed_forward.negative_slope,
            "w_output": stacked_copy(
                "stack.w_out", [model.attention.w_output.data for model in models]),
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
        padded = space.take("conv.pad", (m, batch, n, 2 * window), x.dtype)
        padded[..., window:] = x
        flat = space.take("conv.windows_flat",
                          (m, n, batch * window, window), x.dtype)
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
    def _convolution(self, space: ScratchSpace, x: np.ndarray, stage: dict,
                     legacy_layout: bool = False
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """Fused causal convolution with the Eq. 4 right-shift.

        Returns ``(values, windows_flat)`` — the convolution output and the
        window layout (reused by the detector backward).  ``legacy_layout``
        allocates the output in source-major memory order, which einsum
        summation order — hence the detector's scores and graphs — depends
        on.  The evaluation path only ever reads the values through
        contiguous re-layouts, so it uses a C-ordered buffer.
        """
        m, batch, n, window = x.shape
        kernel = stage["kernel_eff"]
        cdtype = np.result_type(x.dtype, kernel.dtype)
        _padded, flat = self._causal_windows(space, x)
        k_out = kernel.shape[2]
        raw = space.take("conv.raw", (m, n, batch * window, k_out), cdtype)
        kernel_t = kernel.transpose(0, 1, 3, 2)
        axis = 0 if self._model_axis_first(m, n) else 1

        def matmul_body(lo: int, hi: int) -> None:
            np.matmul(slice_axis(flat, axis, lo, hi),
                      slice_axis(kernel_t, axis, lo, hi),
                      out=slice_axis(raw, axis, lo, hi))

        parallel_for(matmul_body, raw.shape[axis], outputs=((raw, axis),))
        if legacy_layout:
            buffer = space.take("conv.values", (m, n, batch, window, k_out),
                                cdtype)
            values = space.view("conv.values.t",
                                lambda: buffer.transpose(0, 2, 1, 4, 3))
        else:
            values = space.take("conv.values", (m, batch, n, k_out, window),
                                cdtype)
        raw_t = space.view("conv.raw.t",
                           lambda: raw.reshape(m, n, batch, window, k_out)
                           .transpose(0, 2, 1, 4, 3))
        scale_array = stage["scale_array"]
        scale_axis = 0 if self._model_axis_first(m, batch) else 1

        def scale_body(lo: int, hi: int) -> None:
            np.multiply(slice_axis(raw_t, scale_axis, lo, hi), scale_array,
                        out=slice_axis(values, scale_axis, lo, hi))

        parallel_for(scale_body, values.shape[scale_axis],
                     outputs=((values, scale_axis),))
        shift = space.take("conv.shift", (m, batch, window), cdtype)
        for index in range(n):
            np.copyto(shift, values[:, :, index, index, :])
            values[:, :, index, index, 1:] = shift[..., :-1]
            values[:, :, index, index, 0] = 0.0
        return values, flat

    @hot_path
    def _softmax_inplace(self, space: ScratchSpace, probs: np.ndarray) -> None:
        """Tempered-softmax normalisation along the last axis, in place.

        Bit-identical to ``x -= x.max(…); exp; x /= x.sum(…)`` — see
        :func:`max_last_keepdims` / :func:`sum_last_keepdims` for why the
        chained reductions are exact replicas.  Normalisation is row-wise
        over a contiguous arena buffer, so the (model, head, batch) leading
        axes flatten into one parallel axis.
        """
        extreme = space.take("att.max", probs.shape[:-1] + (1,), probs.dtype)
        total = space.take("att.sum", probs.shape[:-1] + (1,), probs.dtype)
        flat = probs.reshape((-1,) + probs.shape[-2:])
        ext = extreme.reshape((-1,) + extreme.shape[-2:])
        tot = total.reshape((-1,) + total.shape[-2:])

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
        d_model = stage["embed_weight"].shape[-1]
        cdtype = np.result_type(x.dtype, stage["embed_weight"].dtype)
        x2d = x.reshape(m, batch * n, window)
        emb = space.take("att.emb", (m, batch * n, d_model), cdtype)
        proj = space.take("att.proj", (m, batch * n, 2 * n_heads * d_qk), cdtype)
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
        qk = space.take("att.qk", (m, 2 * n_heads, batch, n, d_qk), cdtype)
        proj_t = space.view("att.proj.t",
                            lambda: proj.reshape(m, batch, n, 2 * n_heads, d_qk)
                            .transpose(0, 3, 1, 2, 4))
        raw = space.take("att.raw", (m, n_heads, batch, n, n), cdtype)
        k_t = space.view("att.k.t",
                         lambda: qk[:, n_heads:].transpose(0, 1, 2, 4, 3))
        probs = space.take("att.probs", (m, n_heads, batch, n, n), np.float64)
        query = qk[:, :n_heads]
        modulation = stage["modulation"]
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
                        values: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Contiguous GEMM layouts + per-head application (Eq. 6)."""
        m, n_heads, batch, n, _ = probs.shape
        window = values.shape[-1]
        out_dtype = np.result_type(probs.dtype, values.dtype)
        a_bihj = space.take("comb.a", (m, batch, n, n_heads, n), probs.dtype)
        probs_t = space.view("comb.probs.t",
                             lambda: probs.transpose(0, 2, 3, 1, 4))
        # Float64 attention meets model-dtype values here, which numpy
        # resolves by casting the values up internally on every call;
        # staging the cast copy once is bit-identical and skips the hidden
        # per-call buffer.
        v_bijt = space.take("comb.v", (m, batch, n, n, window), out_dtype)
        values_t = space.view("comb.values.t",
                              lambda: values.transpose(0, 1, 3, 2, 4))
        head_outputs = space.take("comb.ho", (m, batch, n, n_heads, window),
                                  out_dtype)
        axis = 0 if self._model_axis_first(m, batch) else 1

        def body(lo: int, hi: int) -> None:
            np.copyto(slice_axis(a_bihj, axis, lo, hi),
                      slice_axis(probs_t, axis, lo, hi))
            np.copyto(slice_axis(v_bijt, axis, lo, hi),
                      slice_axis(values_t, axis, lo, hi))
            np.matmul(slice_axis(a_bihj, axis, lo, hi),
                      slice_axis(v_bijt, axis, lo, hi),
                      out=slice_axis(head_outputs, axis, lo, hi))

        parallel_for(body, head_outputs.shape[axis],
                     outputs=((a_bihj, axis), (v_bijt, axis),
                              (head_outputs, axis)))
        return a_bihj, v_bijt, head_outputs

    @hot_path
    def _forward(self, x: np.ndarray, stage: dict) -> np.ndarray:
        m, batch, n, window = x.shape
        space = self.arena.space(("stack.eval", x.shape, x.dtype.str))
        values, _flat = self._convolution(space, x, stage)
        probs = self._attention_probs(space, x, stage)
        _a, _v, head_outputs = self._combine_layout(space, probs, values)
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
        # weights), so the whole tail — including the inlined
        # ``_leaky_slope`` selection, same buffers, same ops — chunks
        # across models.
        def mlp_body(lo: int, hi: int) -> None:
            np.matmul(x2d[lo:hi], w1[lo:hi], out=hidden[lo:hi])
            hidden[lo:hi] += b1[lo:hi, None, :]
            np.greater(hidden[lo:hi], 0, out=mask[lo:hi])
            slope[lo:hi].fill(low)
            np.copyto(slope[lo:hi], one, where=mask[lo:hi])
            hidden[lo:hi] *= slope[lo:hi]
            np.matmul(hidden[lo:hi], w2[lo:hi], out=ffn[lo:hi])
            ffn[lo:hi] += b2[lo:hi, None, :]
            np.matmul(ffn[lo:hi], w3[lo:hi], out=out2d[lo:hi])
            out2d[lo:hi] += b3[lo:hi, None, :]

        parallel_for(mlp_body, m,
                     outputs=((hidden, 0), (ffn, 0), (out2d, 0), (slope, 0),
                              (mask, 0)))
        return space.view("mlp.out.4d",
                          lambda: out2d.reshape(m, batch, n, window))

    # ------------------------------------------------------------------ #
    # Batch staging and evaluation
    # ------------------------------------------------------------------ #
    def _as_model_batch(self, windows_list: Sequence[np.ndarray]) -> np.ndarray:
        """Stack ``M`` window sets into one contiguous ``(M, B, N, T)`` buffer.

        Replays the Tensor-construction casts of the autograd forward per
        model: the reference first builds ``Tensor(x)`` (casting to the
        *engine default* dtype), then — when that differs from the model
        dtype — rebuilds ``Tensor(x.astype(model_dtype))``, whose
        constructor casts **back** to the default dtype.  Net effect: the
        batch always carries the default dtype, with values rounded through
        the model dtype when that is the narrower type, so mixed-dtype
        configurations (e.g. a float32 model probed under a float64
        session) see the same input values as the reference.
        """
        from repro.nn import tensor as T

        default = np.dtype(T.get_default_dtype())
        dtype = self.dtype
        cast: List[np.ndarray] = []
        for windows in windows_list:
            arr = np.asarray(windows, dtype=default)
            if arr.dtype != dtype:
                arr = np.asarray(arr.astype(dtype), dtype=default)
            if arr.ndim == 2:
                arr = arr[None, :, :]
            cast.append(arr)
        shapes = {arr.shape for arr in cast}
        if len(shapes) != 1:
            raise ValueError("stacked evaluation requires same-shape window sets")
        batch = self.arena.take("stack.batch", (len(cast),) + cast[0].shape,
                                default)
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

    def evaluate_grouped(self, window_sets: Sequence[Optional[np.ndarray]],
                         batch_size: int,
                         cache: Optional[dict] = None
                         ) -> List[Optional[float]]:
        """Per-model losses when the fleet's window sets differ in count.

        The heterogeneous stacked trainer validates lanes whose datasets
        carry different window counts (pad-and-mask bucketing).  Padding a
        model's own batch axis is off the table — a different GEMM ``M``
        dimension may pick a different BLAS kernel — so instead the rows are
        grouped by shape and each group runs :meth:`evaluate` at its exact
        shape: all rows together through this engine when they share one
        shape, otherwise through a sub-fleet :class:`StackedInferenceEngine`
        per shape group (one row is a fleet of one) over the same arena.

        ``None`` entries (lanes without a validation split) are skipped and
        returned as ``None``.  Every returned loss is bit-identical to
        evaluating that model's windows alone.

        ``cache`` (optional) is a caller-owned dict that keeps the sub-fleet
        engines alive across calls — validation groups are stable between
        epochs, so a trainer passes one dict per lane era and the engines
        (with their staged buffers) rebuild only when membership changes.
        The caller must discard it whenever ``self.models`` changes, because
        the cached engines hold references to the models by row.
        """
        m = len(self.models)
        if len(window_sets) != m:
            raise ValueError("one window set per model required")
        results: List[Optional[float]] = [None] * m
        groups: Dict[tuple, List[tuple]] = {}
        for row, windows in enumerate(window_sets):
            if windows is None:
                continue
            arr = np.asarray(windows)
            groups.setdefault(arr.shape, []).append((row, arr))
        for members in groups.values():
            rows = [row for row, _arr in members]
            arrays = [arr for _row, arr in members]
            if len(rows) == m:
                losses = self.evaluate(arrays, batch_size)
            else:
                key = tuple(rows)
                sub = cache.get(key) if cache is not None else None
                if sub is None:
                    sub = StackedInferenceEngine(
                        [self.models[row] for row in rows], arena=self.arena)
                    sub.parallel_model_axis = self.parallel_model_axis
                    if cache is not None:
                        cache[key] = sub
                losses = sub.evaluate(arrays, batch_size)
            for row, loss in zip(rows, losses):
                results[row] = loss
        return results

    # ------------------------------------------------------------------ #
    # Detector support: stacked cache forward + all-targets backward
    # ------------------------------------------------------------------ #
    def interpretation_forward(self, windows_list: Sequence[np.ndarray]
                               ) -> StackedInterpretationForward:
        """One stacked cache-path forward shared by every model and target."""
        return self._interpretation_forward(windows_list)

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

    def _interpretation_forward(self, windows_list: Sequence[np.ndarray]
                                ) -> StackedInterpretationForward:
        arena = self.arena
        stage = self._stage()
        # repro: allow(dtype-purity): ingestion cast to the f64 reference
        x = self._as_model_batch([np.asarray(w, dtype=float)
                                  for w in windows_list])
        m, batch, n, window = x.shape
        n_heads, d_qk = stage["n_heads"], stage["d_qk"]
        space = arena.space(("stack.cache", x.shape, x.dtype.str))

        values, windows_flat = self._convolution(space, x, stage,
                                                 legacy_layout=True)
        cdtype = np.result_type(x.dtype, stage["embed_weight"].dtype)
        d_model = stage["embed_weight"].shape[-1]
        emb3d = arena.take("stack.cache.emb", (m, batch, n, d_model), cdtype)
        np.matmul(x, stage["embed_weight"][:, None], out=emb3d)
        emb3d += stage["embed_bias"][:, None, None, :]
        proj = arena.take("stack.att.proj", (m, batch * n, 2 * n_heads * d_qk),
                          cdtype)
        np.matmul(emb3d.reshape(m, batch * n, d_model), stage["weight_flat"],
                  out=proj)
        proj += stage["bias_flat"][:, None, :]
        qk = arena.take("stack.att.qk", (m, 2 * n_heads, batch, n, d_qk), cdtype)
        np.copyto(qk, proj.reshape(m, batch, n, 2 * n_heads, d_qk)
                  .transpose(0, 3, 1, 2, 4))
        q_data, k_data = qk[:, :n_heads], qk[:, n_heads:]
        raw = arena.take("stack.att.raw", (m, n_heads, batch, n, n), cdtype)
        np.matmul(q_data, k_data.transpose(0, 1, 2, 4, 3), out=raw)
        probs = arena.take("stack.att.probs", (m, n_heads, batch, n, n),
                           np.float64)
        np.multiply(raw, stage["modulation"], out=probs)
        scores = arena.take("stack.att.scores", (m, n_heads, batch, n, n),
                            np.float64)
        np.copyto(scores, probs)
        self._softmax_inplace(space, probs)

        a_bihj, v_bijt, head_outputs = self._combine_layout(space, probs,
                                                            values)
        dtype = head_outputs.dtype
        ho_hbit = arena.take("stack.cache.ho", (m, n_heads, batch, n, window),
                             dtype)
        np.copyto(ho_hbit, head_outputs.transpose(0, 3, 1, 2, 4))
        combined = arena.take("stack.cache.combined", (m, batch, n, window),
                              dtype)
        np.einsum("mhbit,mh->mbit", ho_hbit,
                  stage["w_output"].astype(dtype, copy=False), out=combined)

        d_ffn = stage["w1"].shape[-1]
        hidden = arena.take("stack.cache.hidden", (m, batch, n, d_ffn), dtype)
        np.matmul(combined, stage["w1"][:, None], out=hidden)
        hidden += stage["b1"][:, None, None, :]
        slope = _leaky_slope(space, "cache.slope", hidden,
                             stage["negative_slope"])
        activated = arena.take("stack.cache.activated", (m, batch, n, d_ffn),
                               dtype)
        np.multiply(hidden, slope, out=activated)
        ffn_output = arena.take("stack.cache.ffn", (m, batch, n, window), dtype)
        np.matmul(activated, stage["w2"][:, None], out=ffn_output)
        ffn_output += stage["b2"][:, None, None, :]
        prediction = arena.take("stack.cache.out", (m, batch, n, window), dtype)
        np.matmul(ffn_output, stage["w3"][:, None], out=prediction)
        prediction += stage["b3"][:, None, None, :]

        # repro: allow(dtype-purity): relevance propagation is f64 by spec
        x64 = np.asarray(x, dtype=float)
        padded64 = arena.take("stack.cache.pad64", (m, batch, n, 2 * window),
                              np.float64)
        padded64[..., window:] = x64
        view64 = np.lib.stride_tricks.sliding_window_view(
            padded64, window, axis=-1)[..., 1:, :]         # (M, B, N, T, K)
        values_pre = arena.take("stack.cache.values_pre",
                                (m, batch, n, n, window),
                                np.result_type(np.float64, x.dtype))
        np.einsum("mbitk,mijk->mbijt", view64, stage["kernel_eff"],
                  out=values_pre)
        values_pre *= stage["scale_array"]

        return StackedInterpretationForward(
            inputs=x, embedding=emb3d, output=prediction, values=values,
            values_pre=values_pre, conv_windows=view64, scores=scores,
            attention_probs=probs, head_outputs=ho_hbit, combined=combined,
            hidden=hidden, activated=activated, ffn_output=ffn_output,
            slope=slope, a_bihj=a_bihj, v_bijt=v_bijt,
            windows_flat=windows_flat, stage=stage,
        )

    def _interpretation_gradients(self, forward: StackedInterpretationForward
                                  ) -> Tuple[np.ndarray, np.ndarray]:
        """Hand-evaluated backward of :meth:`interpretation_forward`, seeded
        with ones on every output row.

        The FFN and output linears act along time only, so effect rows
        never mix after the attention: row ``g`` of the attention gradients
        and effect column ``g`` of the kernel gradients are exactly what a
        backward seeded on output row ``g`` alone computes.  The tests pin
        this against one autograd ``backward()`` per target on the
        reference forward.
        """
        stage = forward.stage
        m, batch, n, window = forward.output.shape
        dtype = forward.output.dtype
        diag = np.arange(n)

        # All-ones output seed → back through the three cache-path linears.
        grad_pred = np.ones((m, batch, n, window), dtype=dtype)
        grad_ffn = grad_pred @ stage["w3"].transpose(0, 2, 1)[:, None]
        grad_hidden = grad_ffn @ stage["w2"].transpose(0, 2, 1)[:, None]
        grad_hidden *= forward.slope
        grad_combined = grad_hidden \
            @ stage["w1"].transpose(0, 2, 1)[:, None]          # (M,B,N,T)

        # Head-combination einsum backward: grad per head = grad ⊗ w_output,
        # then the attention application backward (Eq. 6).
        grad_heads = np.einsum("mbit,mh->mhbit", grad_combined,
                               stage["w_output"])
        grad_biht = np.ascontiguousarray(grad_heads.transpose(0, 2, 3, 1, 4))
        grad_a = grad_biht \
            @ forward.v_bijt.transpose(0, 1, 2, 4, 3)           # (M,B,i,h,j)
        attention_grads = grad_a.transpose(0, 3, 1, 2, 4)       # (M,h,B,i,j)
        grad_v = forward.a_bihj.transpose(0, 1, 2, 4, 3) \
            @ grad_biht                                         # (M,B,i,j,t)
        grad_values = grad_v.transpose(0, 1, 3, 2, 4)           # (M,B,j,i,t)

        # Causal convolution backward: undo the Eq. 4 right-shift, rescale,
        # contract against the causal windows.  The autograd engine casts the
        # routed gradient to the values tensor's dtype at the node boundary,
        # and the final accumulation casts to the kernel parameter's dtype —
        # replicate both.
        grad_values = np.ascontiguousarray(grad_values,
                                           dtype=forward.values.dtype)
        diagonal = grad_values[:, :, diag, diag, :]
        grad_values[:, :, diag, diag, :-1] = diagonal[..., 1:]
        grad_values[:, :, diag, diag, -1] = 0.0
        grad_values = grad_values * stage["scale_array"]
        flat = np.ascontiguousarray(grad_values.transpose(0, 2, 3, 1, 4)) \
            .reshape(m, n, n, batch * window)
        kernel_grads = flat @ forward.windows_flat              # (M,N,N,K)
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
        # repro: allow(dtype-purity): ingestion cast to the f64 reference
        prediction = self.fleet.forward([np.asarray(windows, dtype=float)])[0]
        return prediction[0].copy() if squeeze else prediction.copy()

    # ------------------------------------------------------------------ #
    # Detector support
    # ------------------------------------------------------------------ #
    def interpretation_forward(self, windows: np.ndarray
                               ) -> InterpretationForward:
        """One fused forward in the detector's fixed operation order.

        Fills a :class:`~repro.core.transformer.TransformerCache` for
        relevance propagation plus the internals the all-targets backward
        needs.  Shared by every target series.
        """
        return self.fleet._interpretation_forward([windows]).row(0)

    def interpretation_gradients(self, forward: InterpretationForward
                                 ) -> Tuple[np.ndarray, np.ndarray]:
        """Gradients of ``Σ_t prediction[:, g, :]`` for every target ``g``.

        Returns ``(attention_grads, kernel_grads)`` of shapes
        ``(h, B, N, N)`` ``[head, batch, target, source]`` and ``(N, N, K)``
        ``[source, target, τ]`` (``(1, N, K)`` for the single-kernel
        ablation); see :meth:`StackedInferenceEngine
        .interpretation_gradients`.
        """
        attention, kernel = self.fleet._interpretation_gradients(
            forward.stacked)
        return attention[forward.row], kernel[forward.row]
