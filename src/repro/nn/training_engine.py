"""Autograd-free training step: fused forward + hand-derived backward.

An autograd training step builds and walks a fresh :class:`~repro.nn.tensor
.Tensor` graph every mini-batch: node objects, backward closures, a
topological sort, a gradient dict and a fresh temporary for almost every
routed gradient.  CausalFormer training runs none of that.

:class:`StackedTrainingEngine` trains ``K`` same-architecture models in
lockstep.  It runs the fused forward of
:class:`~repro.nn.inference.StackedInferenceEngine` (causal convolution with
the folded Eq. 4 right-shift, embedding + Q/K projection + masked tempered
softmax, attention combination, the MLP tail and the Eq. 9 loss with its
grouped L1 penalties) and then hand-evaluates the **exact backward pass** of
that graph with a leading model axis — every parameter gradient, written
directly into ``(K, *shape)`` views of a flat gradient matrix, with every
temporary drawn from the same scratch arena the forward uses.  A
steady-state training step performs no heap allocation of large arrays and
no autograd bookkeeping at all.

There is one set of kernels, and one optimizer: :class:`TrainingEngine`,
one model's training step, is the same engine at ``K = 1``.  It packs the
model's parameters into a ``(1, P)`` :class:`~repro.nn.optim.ParameterStack`
once, trains on ``(1, *shape)`` views of it and of its gradient matrix, and
finishes each step with :meth:`~repro.nn.optim.StackedAdam.step` on its
one row.  The batched sweep
(:class:`repro.core.batched.StackedCausalFormerTrainer`) drives the engine
at full width over a ``(K, P)`` stack of the same kind, with the same
:class:`~repro.nn.optim.StackedAdam`.

Buffer-handle plans
-------------------
A steady-state backward would spend dozens of ``space.take`` probes per
step on buffers whose identity never changes for a fixed ``(batch shape,
dtype)`` workload.  The engine builds a backward *plan* per workload key —
one object holding every scratch handle, derived transpose/reshape view and
gradient view — and revalidates it with a handful of identity checks per
step (the scratch space and the compute dtype).  Rebinding the engine to
new parameter or gradient views drops every plan.

Dtype and convolution layout
----------------------------
Every forward and backward buffer is in the model dtype (unless the batch
is wider): a float32 model trains in float32, as its autograd reference
does, and a float64 model in float64.  The training step keeps the
convolution values in the ``(K, target, source, B·T)`` buffer the forward
writes (see
:meth:`~repro.nn.inference.StackedInferenceEngine._convolution`), and the
backward reads it and the attention as strided views.

Five backward stages are methods of
:class:`~repro.nn.inference.StackedInferenceEngine`, because the detector's
all-ones backward
(:meth:`~repro.nn.inference.StackedInferenceEngine.interpretation_gradients`)
runs them too: the MLP input-gradient chain (``_mlp_input_backward``), the
head gradients of the combination (``_combine_backward``), Eq. 6's
attention and value halves (``_combine_attention_backward``,
``_combine_values_backward``) and the Eq. 4 shift undo with the kernel
GEMMs (``_convolution_backward``).  They write into buffers the
caller passes: the plan's arena buffers here, buffers allocated per call
there.  Every parameter gradient is :meth:`StackedTrainingEngine._backward`'s
own.

Threaded execution
------------------
A training step runs on the engine threads the work-size rule gives its
``K·B·N²·T`` convolution tensor, unless a count is set explicitly
(:mod:`repro.nn.parallel`).  After the head gradients the backward splits
into two sides that share no buffer — the value side (Eq. 6's value half,
then :meth:`StackedTrainingEngine._values_backward`: the MLP weight
gradients and the convolution) and the attention side (Eq. 6's attention
half, then :meth:`StackedTrainingEngine._attention_backward`:
``w_output``, the softmax and Q/K backward, the embedding and the masks).
A single model on two threads runs them as two concurrent branches, each
serial inside, as its forward runs the convolution and the attention;
every other step runs both halves right behind the head gradients, then
the rest of each side
(:meth:`~repro.nn.inference.StackedInferenceEngine._branches_concurrent`
says why).  Every op outside concurrent branches runs through
:func:`repro.nn.parallel.parallel_for` across the model axis or the inner
axis picked by
:meth:`~repro.nn.inference.StackedInferenceEngine._model_axis_first`.
Chunking is bit-exact by construction: numpy dispatches batched (3D+)
matmuls as one 2-D GEMM per leading-axes slice, elementwise ops and
last-axis reductions are per-row, and every chunk writes a disjoint slice of
a pre-allocated arena buffer.  Cross-row weight-gradient reductions
(``ffn.T @ grad2d`` style, ``.sum(axis=1)``) chunk only across models, so
each model's reduction stays whole.  Either schedule is bit-exact: the
two sides share no buffer, so each op computes the same values whatever
runs beside or before it.  On one thread every ``body(0, n)`` call is the
exact serial path.  Every step, threaded or not, runs with BLAS held at one
thread, and a fit holds it from start to end
(:func:`repro.nn.parallel.engine_session`), so no GEMM's summation order
depends on BLAS's own thread count.

Numerical contract
------------------
The backward is the exact derivative of the fused forward, evaluated in one
fixed operation sequence per layer — the loss, the MLP tail, the attention
combination, the softmax Jacobian and the causal convolution — with the
autograd engine's routing semantics:

* each routed gradient is cast to the receiving parameter's dtype *before*
  accumulation (as ``Tensor._push``/``_accumulate`` do), so an L1 sign
  written first and a main-path term added second round in one fixed
  order;
* the single-kernel ablation takes the ``effective_kernel`` broadcast's
  backward: gradient × constant ones (an exact ×1.0, elided), then the
  unbroadcast sum down to ``(1, 1, T)``.

Gradients therefore match ``loss.backward()`` on the plain autograd
reference (:meth:`~repro.core.transformer.CausalityAwareTransformer.forward`
and ``loss``) up to floating-point rounding, and the tests in
``tests/nn/test_training_engine.py`` pin that at tolerance across the
Table 3 training ablation grid in float64 and float32.  Inside the engine
everything is exact: a fleet row, every thread count and a retried fit
reproduce a one-model serial fit bit for bit.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.contracts import hot_path
from repro.nn.inference import (InferenceEngine, ScratchArena, ScratchSpace,
                                StackedInferenceEngine, _mse_plus_penalties,
                                reference_cast, sized_by_batch,
                                sum_last_keepdims, tiled_scale)
from repro.nn.optim import ParameterStack, StackedAdam
from repro.nn.parallel import (get_engine_threads, parallel_for,
                               run_branches, slice_axis)


@hot_path
def _scaled_sign(destination: np.ndarray, source: np.ndarray,
                 coefficient: np.float64) -> None:
    """``destination = coefficient · sign(source)``, autograd-cast-exact.

    An L1 loss term routes ``(coefficient · 1.0) · sign(W)`` — a float64
    product — which autograd casts to the parameter dtype on
    accumulation.  Writing the sign first and scaling in place computes the
    same float64 product per element before the cast (sign values are exact
    in every float dtype).
    """
    np.sign(source, out=destination)
    destination *= coefficient


class _StackedBackwardPlan:
    """Every stacked-backward scratch handle, derived view and grad view.

    The stacked gradient views are fixed at trainer construction (they view
    the trainer's ``(K, P)`` matrix), so the per-step validation only needs
    the scratch-space identity and the compute dtype.  Every forward and
    backward buffer is in that dtype: the model dtype, or the batch dtype
    when it is wider.
    """

    def __init__(self, space: ScratchSpace, stage: dict, engine,
                 xb_shape, xb_dtype) -> None:
        model = engine.models[0]
        config = model.config
        views = engine._grad_views
        stacked = engine._stacked
        m, batch, n, window = xb_shape
        n_heads, d_qk = stage["n_heads"], stage["d_qk"]
        d_model = stage["embed_weight"].shape[-1]
        d_ffn = stage["w1"].shape[-1]
        bn = batch * n
        dtype = engine.dtype
        cdtype = np.result_type(xb_dtype, dtype)

        self.space = space
        self.cdtype = cdtype
        self.has_l1_kernel = config.lambda_kernel > 0
        self.has_l1_mask = config.lambda_mask > 0
        self.single_kernel = config.single_kernel

        head_names = [f"attention.heads.{h}" for h in range(n_heads)]
        self.kernel_view = views["convolution.kernel"]
        self.kernel_src = stacked["convolution.kernel"]
        self.mask_views = [views[f"{name}.mask"] for name in head_names]
        self.mask_srcs = [stacked[f"{name}.mask"] for name in head_names]
        self.w3_view = views["output_layer.weight"]
        self.b3_view = views["output_layer.bias"]
        self.w2_view = views["feed_forward.w2"]
        self.b2_view = views["feed_forward.b2"]
        self.w1_view = views["feed_forward.w1"]
        self.b1_view = views["feed_forward.b1"]
        self.wout_view = views["attention.w_output"]
        self.ew_view = views["embedding.weight"]
        self.eb_view = views["embedding.bias"]
        self.head_views = []
        for index, name in enumerate(head_names):
            query = slice(index * d_qk, (index + 1) * d_qk)
            key = slice((n_heads + index) * d_qk,
                        (n_heads + index + 1) * d_qk)
            self.head_views.append(
                (views[f"{name}.w_query"], views[f"{name}.b_query"],
                 views[f"{name}.w_key"], views[f"{name}.b_key"],
                 query, key))

        take = space.take
        self.grad_pred = take("bwd.pred", (m, batch, n, window), cdtype)
        self.grad2d = self.grad_pred.reshape(m, bn, window)
        self.ffn = take("mlp.ffn", (m, bn, window), cdtype)
        self.ffn_t = self.ffn.transpose(0, 2, 1)
        self.activated = take("mlp.activated", (m, bn, d_ffn), cdtype)
        self.activated_t = self.activated.transpose(0, 2, 1)
        self.slope = take("mlp.slope", (m, bn, d_ffn), cdtype)
        self.w3_tmp = take("bwd.w3", (m, window, window), cdtype)
        self.b3_tmp = take("bwd.b3", (m, window), cdtype)
        self.grad_ffn = take("bwd.ffn", (m, bn, window), cdtype)
        self.w2_tmp = take("bwd.w2", (m, d_ffn, window), cdtype)
        self.b2_tmp = take("bwd.b2", (m, window), cdtype)
        self.grad_hidden = take("bwd.hidden", (m, bn, d_ffn), cdtype)
        self.combined2d = take("comb.out", (m, bn * window, 1), cdtype) \
            .reshape(m, bn, window)
        self.combined2d_t = self.combined2d.transpose(0, 2, 1)
        self.w1_tmp = take("bwd.w1", (m, window, d_ffn), cdtype)
        self.b1_tmp = take("bwd.b1", (m, d_ffn), cdtype)
        self.grad_combined = take("bwd.comb", (m, bn, window), cdtype)

        self.probs = take("att.probs", (m, n_heads, batch, n, n), cdtype)
        self.values = take("conv.tsbt", (m, n, n, batch, window), cdtype)
        self.head_outputs = take("comb.ho", (m, batch, n, n_heads, window),
                                 cdtype)
        self.grad_heads = take("comb.bwd.heads",
                               (m, batch, n, n_heads, window), cdtype)
        self.grad_probs = take("bwd.ga", (m, n_heads, batch, n, n), cdtype)
        self.grad_tsbt = take("bwd.gv", (m, n, n, batch, window), cdtype)
        self.ho_flat = take("bwd.ho_flat", (m, n_heads, bn * window), cdtype)
        self.ho_flat_r = self.ho_flat.reshape(m, n_heads, batch, n, window)
        self.ho_src = self.head_outputs.transpose(0, 3, 1, 2, 4)
        # One (n_heads, 1) slice per model so the per-row GEMV outputs are
        # disjoint under model-axis threading (formerly one shared buffer).
        self.wout_tmp = take("bwd.wout", (m, n_heads, 1), cdtype)

        self.raw = take("att.raw", (m, n_heads, batch, n, n), cdtype)
        self.qk = take("att.qk", (m, 2 * n_heads, batch, n, d_qk), cdtype)
        self.emb = take("att.emb", (m, bn, d_model), cdtype)
        self.emb_t = self.emb.transpose(0, 2, 1)
        self.product = take("bwd.att.prod", (m, n_heads, batch, n, n), cdtype)
        self.dot = take("bwd.att.dot", (m, n_heads, batch, n, 1), cdtype)
        self.grad_masked = take("bwd.att.masked", (m, n_heads, batch, n, n),
                                cdtype)
        self.grad_raw = take("bwd.att.raw", (m, n_heads, batch, n, n), cdtype)
        self.grad_raw_t = self.grad_raw.transpose(0, 1, 2, 4, 3)
        self.grad_qk = take("bwd.att.qk", (m, 2 * n_heads, batch, n, d_qk),
                            cdtype)
        self.gq = self.grad_qk[:, :n_heads]
        self.gk = self.grad_qk[:, n_heads:]
        self.query_half = self.qk[:, :n_heads]
        self.key_half = self.qk[:, n_heads:]
        self.grad_2d = take("bwd.att.2d", (m, bn, 2 * n_heads * d_qk),
                            cdtype)
        self.grad_2d_r = self.grad_2d.reshape(m, batch, n, 2 * n_heads, d_qk)
        self.grad_qk_src = self.grad_qk.transpose(0, 2, 3, 1, 4)
        self.grad_emb = take("bwd.att.emb", (m, bn, d_model), cdtype)
        self.ew_tmp = take("bwd.ew", (m, window, d_model), cdtype)
        self.eb_tmp = take("bwd.eb", (m, d_model), cdtype)
        self.gw = take("bwd.att.gw", (m, d_model, 2 * n_heads * d_qk),
                       cdtype)
        self.gb = take("bwd.att.gb", (m, 2 * n_heads * d_qk), cdtype)
        self.gmask = take("bwd.att.gmask", (m, n_heads, n, n), cdtype)
        self.mask_cast = take("bwd.att.gmask_cast", (m, n, n), dtype)

        self.windows_flat = take("conv.windows_flat",
                                 (m, n, batch * window, window), xb_dtype)
        self.unshift = take("bwd.conv.unshift", (m, n, batch, window - 1),
                            cdtype)
        self.ksum = None
        if self.single_kernel:
            self.kgrad = take("bwd.conv.geff", (m, n, n, window), cdtype)
            self.ksum = take("bwd.conv.ksum", (m, 1, 1, window), cdtype)
        else:
            self.kgrad = take("bwd.conv.kgrad", (m, n, n, window), cdtype)

    def branch_arrays(self, space: ScratchSpace, stage: dict,
                      xb: np.ndarray):
        """What the backward's value and attention branches write and
        read, for the branch audit (:func:`repro.nn.parallel.run_branches`).
        """
        values_writes = [self.w3_tmp, self.b3_tmp, self.w2_tmp, self.b2_tmp,
                         self.w1_tmp, self.b1_tmp, self.w3_view, self.b3_view,
                         self.w2_view, self.b2_view, self.w1_view,
                         self.b1_view, self.grad_tsbt, self.unshift,
                         self.kgrad, self.kernel_view]
        if self.ksum is not None:
            values_writes.append(self.ksum)
        values_reads = [self.grad_heads, self.probs, self.ffn,
                        self.grad_pred, self.activated, self.grad_ffn,
                        self.combined2d, self.grad_hidden, self.windows_flat,
                        tiled_scale(space, stage["scale_array"], xb.shape[1])]
        attention_writes = [self.grad_probs, self.ho_flat, self.wout_tmp,
                            self.wout_view,
                            self.product, self.dot, self.grad_masked,
                            self.grad_raw, self.grad_qk, self.grad_2d,
                            self.gw, self.gb, self.grad_emb, self.ew_tmp,
                            self.eb_tmp, self.ew_view, self.eb_view,
                            self.gmask, self.mask_cast, *self.mask_views]
        attention_writes.extend(view for head in self.head_views
                                for view in head[:4])
        attention_reads = [self.grad_heads, self.values, self.head_outputs,
                           self.grad_combined, self.probs, self.qk, self.raw,
                           self.emb, xb, stage["weight_flat"],
                           stage["modulation"]]
        return ((values_writes, values_reads),
                (attention_writes, attention_reads))


class StackedTrainingEngine(StackedInferenceEngine):
    """Lockstep fused training step for ``K`` same-architecture models.

    One fused forward (the inherited :class:`~repro.nn.inference
    .StackedInferenceEngine` forward) and one hand-derived backward with a
    leading model axis, writing every gradient into ``(K, *shape)`` views
    of a flat ``(K, P)`` gradient matrix.  All backward temporaries live in
    the engine's arena, so steady-state steps allocate nothing.  The batched
    sweep (:class:`repro.core.batched.StackedCausalFormerTrainer`) runs it
    at full width; :class:`TrainingEngine` runs it at ``K = 1``.

    Because this *is* a stacked inference engine, a trainer runs its
    validation passes through the same object — and the batched sweep hands
    the same arena to the group detector interpretation — so one buffer
    pool serves every phase.

    Parameters
    ----------
    models:
        The fleet (parameters already re-pointed at the stacked views).
    stacked:
        Name → ``(K, *shape)`` stacked parameter views.
    grad_views:
        Name → ``(K, *shape)`` views into the flat gradient matrix.
    """

    _PROFILED_OPS = StackedInferenceEngine._PROFILED_OPS + ("_backward",)

    #: The most engine threads any training step of this engine ran on —
    #: the count the rule (or an explicit count) gave its widest step; the
    #: trainers report it as the ``engine.threads`` gauge.
    threads: int = 0

    def __init__(self, models: Sequence, stacked: Dict[str, np.ndarray],
                 grad_views: Dict[str, np.ndarray],
                 arena: Optional[ScratchArena] = None) -> None:
        super().__init__(models, arena)
        self._stacked = stacked
        self._grad_views = grad_views
        self._backward_plans: Dict[tuple, _StackedBackwardPlan] = {}

    def rebind(self, models: Sequence, stacked: Dict[str, np.ndarray],
               grad_views: Dict[str, np.ndarray]) -> None:
        """Re-point the engine at new parameter and gradient views.

        The stacked trainer repacks its ``(K, P)`` matrices in place when a
        lane retires, then hands the engine the fresh ``(K - 1, *shape)``
        views of the surviving prefix.  Re-running the
        architecture validation through ``StackedInferenceEngine.__init__``
        keeps the compatibility guarantees while preserving the arena (and
        with it every per-shape scratch space), any installed profiling
        hooks (instance-dict state, untouched here) and the thread-count
        record.  Cached backward plans are dropped:
        plans for the new width rebuild on the next step, and stale-width
        plans must not outlive views they no longer describe.
        """
        StackedInferenceEngine.__init__(self, models, arena=self.arena)
        self._stacked = stacked
        self._grad_views = grad_views
        self._backward_plans.clear()

    def _parameter_stacks(self) -> Dict[str, np.ndarray]:
        """The trainer's live ``(K, *shape)`` parameter views: the models
        are backed by its ``(K, P)`` matrix, so only the fused layouts
        need a per-step copy."""
        return self._stacked

    def train_step(self, batch: np.ndarray) -> List[float]:
        """Fused forward + per-model losses + backward into the grad matrix.

        ``batch`` is the gathered ``(K, B, N, T)`` mini-batch in the model
        dtype.  Returns one Eq. 9 loss per model; the caller applies the
        stacked Adam update.
        """
        return self._step(batch)

    @sized_by_batch
    def _step(self, batch: np.ndarray) -> List[float]:
        self.threads = max(self.threads, get_engine_threads())
        stage = self._stage()
        space = self._space(batch)
        prediction = self._forward(batch, stage)
        diff = self._windowed_diff(prediction, batch)
        losses = [_mse_plus_penalties(diff[row], self._penalty_terms(row))
                  for row in range(len(self.models))]
        self._backward(space, stage, batch, diff)
        return losses

    def _backward_plan(self, space: ScratchSpace, stage: dict,
                       xb: np.ndarray) -> _StackedBackwardPlan:
        """The cached handle plan for this workload, rebuilt when stale."""
        key = (xb.shape, xb.dtype.str)
        plan = self._backward_plans.get(key)
        if plan is None or plan.space is not space \
                or plan.cdtype != np.result_type(xb.dtype, self.dtype):
            plan = _StackedBackwardPlan(space, stage, self, xb.shape,
                                        xb.dtype)
            self._backward_plans[key] = plan
        return plan

    # ------------------------------------------------------------------ #
    # Hand-derived backward (stacked transcription, arena-buffered)
    # ------------------------------------------------------------------ #
    @hot_path
    def _backward(self, space: ScratchSpace, stage: dict, xb: np.ndarray,
                  diff: np.ndarray) -> None:
        p = self._backward_plan(space, stage, xb)
        config = self.models[0].config
        batch = xb.shape[1]
        f64 = np.float64  # repro: allow(dtype-purity): L1 signs are f64
        one = f64(1.0)

        # --- loss node: L1 signs + windowed-MSE seed --------------------- #
        if p.has_l1_kernel:
            _scaled_sign(p.kernel_view, p.kernel_src,
                         config.lambda_kernel * one)
        if p.has_l1_mask:
            for view, source in zip(p.mask_views, p.mask_srcs):
                _scaled_sign(view, source, config.lambda_mask * one)
        # Slot 0 is never written; the allocation zero-fill persists there.
        np.multiply(diff, 2.0 / diff[0].size, out=p.grad_pred[..., 1:])

        # --- MLP tail input-gradient chain, then the combination -------- #
        self._mlp_input_backward(p.grad2d, stage, p.slope, p.grad_ffn,
                                 p.grad_hidden, p.grad_combined)
        self._combine_backward(p.grad_combined, stage, p.grad_heads)
        # The gradients split there: Eq. 6's value half, the MLP weights
        # and the convolution on one side, its attention half, the
        # attention weights and the masks on the other, over disjoint
        # buffers.
        values_half = functools.partial(
            self._combine_values_backward, p.grad_heads, p.probs, p.grad_tsbt)
        attention_half = functools.partial(
            self._combine_attention_backward, p.grad_heads, p.values,
            p.grad_probs)
        if self._branches_concurrent(xb.shape[0]):
            run_branches(
                lambda: (values_half(),
                         self._values_backward(p, space, stage, batch)),
                lambda: (attention_half(),
                         self._attention_backward(p, stage, xb)),
                audit=lambda: p.branch_arrays(space, stage, xb))
        else:
            # In order, both halves run right behind the head gradients
            # they read, while those are still in cache: at K = 3, N = 40,
            # running each half at the head of its side instead made the
            # backward about 6% slower.
            attention_half()
            values_half()
            self._values_backward(p, space, stage, batch)
            self._attention_backward(p, stage, xb)

    @hot_path
    def _values_backward(self, p: _StackedBackwardPlan, space: ScratchSpace,
                         stage: dict, batch: int) -> None:
        """The MLP weight gradients, then the convolution backward and the
        kernel gradient."""
        # Threaded over the model axis: each row is an independent 2-D
        # GEMM / reduction, unchanged per model.
        def mlp_weights_body(lo, hi):
            np.matmul(p.ffn_t[lo:hi], p.grad2d[lo:hi], out=p.w3_tmp[lo:hi])
            p.w3_view[lo:hi] = p.w3_tmp[lo:hi]
            p.grad2d[lo:hi].sum(axis=1, out=p.b3_tmp[lo:hi])
            p.b3_view[lo:hi] = p.b3_tmp[lo:hi]
            np.matmul(p.activated_t[lo:hi], p.grad_ffn[lo:hi],
                      out=p.w2_tmp[lo:hi])
            p.w2_view[lo:hi] = p.w2_tmp[lo:hi]
            p.grad_ffn[lo:hi].sum(axis=1, out=p.b2_tmp[lo:hi])
            p.b2_view[lo:hi] = p.b2_tmp[lo:hi]
            np.matmul(p.combined2d_t[lo:hi], p.grad_hidden[lo:hi],
                      out=p.w1_tmp[lo:hi])
            p.w1_view[lo:hi] = p.w1_tmp[lo:hi]
            p.grad_hidden[lo:hi].sum(axis=1, out=p.b1_tmp[lo:hi])
            p.b1_view[lo:hi] = p.b1_tmp[lo:hi]

        parallel_for(mlp_weights_body, p.w3_tmp.shape[0],
                     outputs=((p.w3_tmp, 0), (p.b3_tmp, 0), (p.w2_tmp, 0),
                              (p.b2_tmp, 0), (p.w1_tmp, 0), (p.b1_tmp, 0),
                              (p.w3_view, 0), (p.b3_view, 0),
                              (p.w2_view, 0), (p.b2_view, 0),
                              (p.w1_view, 0), (p.b1_view, 0)))

        # --- causal convolution backward ------------------------------- #
        self._convolution_backward(
            p.grad_tsbt, p.unshift,
            tiled_scale(space, stage["scale_array"], batch), p.windows_flat,
            p.kgrad)
        if p.single_kernel:
            # Broadcast-multiply backward: gradient × constant ones (exact
            # ×1.0, elided), then the unbroadcast sum down to (K, 1, 1, T).
            p.kgrad.sum(axis=(1, 2), keepdims=True, out=p.ksum)
            if p.has_l1_kernel:
                p.kernel_view += p.ksum
            else:
                p.kernel_view[...] = p.ksum
        elif p.has_l1_kernel:
            p.kernel_view += p.kgrad
        else:
            p.kernel_view[...] = p.kgrad

    @hot_path
    def _attention_backward(self, p: _StackedBackwardPlan, stage: dict,
                            xb: np.ndarray) -> None:
        """``w_output``, then the softmax and Q/K backward into the Q/K,
        embedding and mask gradients."""
        m, batch, n, window = xb.shape
        bn = batch * n
        # Per-model np.tensordot(head_outputs, grad_combined, ([0,1,3],
        # [0,1,2])) unrolled to its transpose-copy + dot, one row at a time.
        ho_axis = 0 if self._model_axis_first(m, batch) else 2

        def ho_body(lo, hi):
            np.copyto(slice_axis(p.ho_flat_r, ho_axis, lo, hi),
                      slice_axis(p.ho_src, ho_axis, lo, hi))

        parallel_for(ho_body, p.ho_flat_r.shape[ho_axis],
                     outputs=((p.ho_flat_r, ho_axis),))

        def wout_body(lo, hi):
            for row in range(lo, hi):
                np.dot(p.ho_flat[row],
                       p.grad_combined[row].reshape(bn * window, 1),
                       out=p.wout_tmp[row])
                p.wout_view[row] = p.wout_tmp[row, :, 0]

        parallel_for(wout_body, m,
                     outputs=((p.wout_tmp, 0), (p.wout_view, 0)))

        # --- attention probabilities backward (model or batch axis; the
        # modulation broadcast axis is only sliced on the model axis) ---- #
        att_axis = 0 if self._model_axis_first(m, batch) else 2
        modulation = stage["modulation"]

        def attention_body(lo, hi):
            grad_probs = slice_axis(p.grad_probs, att_axis, lo, hi)
            probs = slice_axis(p.probs, att_axis, lo, hi)
            product = slice_axis(p.product, att_axis, lo, hi)
            dot = slice_axis(p.dot, att_axis, lo, hi)
            grad_masked = slice_axis(p.grad_masked, att_axis, lo, hi)
            np.multiply(grad_probs, probs, out=product)
            sum_last_keepdims(product, out=dot)
            np.subtract(grad_probs, dot, out=grad_masked)
            np.multiply(probs, grad_masked, out=grad_masked)
            mod = modulation[lo:hi] if att_axis == 0 else modulation
            np.multiply(grad_masked, mod,
                        out=slice_axis(p.grad_raw, att_axis, lo, hi))
            np.matmul(slice_axis(p.grad_raw, att_axis, lo, hi),
                      slice_axis(p.key_half, att_axis, lo, hi),
                      out=slice_axis(p.gq, att_axis, lo, hi))
            np.matmul(slice_axis(p.grad_raw_t, att_axis, lo, hi),
                      slice_axis(p.query_half, att_axis, lo, hi),
                      out=slice_axis(p.gk, att_axis, lo, hi))

        parallel_for(attention_body, p.probs.shape[att_axis],
                     outputs=((p.product, att_axis), (p.dot, att_axis),
                              (p.grad_masked, att_axis),
                              (p.grad_raw, att_axis),
                              (p.gq, att_axis), (p.gk, att_axis)))
        g2d_axis = 0 if self._model_axis_first(m, batch) else 1

        def grad2d_body(lo, hi):
            np.copyto(slice_axis(p.grad_2d_r, g2d_axis, lo, hi),
                      slice_axis(p.grad_qk_src, g2d_axis, lo, hi))

        parallel_for(grad2d_body, p.grad_2d_r.shape[g2d_axis],
                     outputs=((p.grad_2d_r, g2d_axis),))
        # Weight gradients: per-model GEMMs + in-model reductions, threaded
        # over the model axis only (each row's reduction stays whole).
        weight_flat_t = stage["weight_flat"].transpose(0, 2, 1)
        x2d_t = xb.reshape(m, bn, window).transpose(0, 2, 1)

        def weights_body(lo, hi):
            np.matmul(p.emb_t[lo:hi], p.grad_2d[lo:hi], out=p.gw[lo:hi])
            p.grad_2d[lo:hi].sum(axis=1, out=p.gb[lo:hi])
            for wq_view, bq_view, wk_view, bk_view, query, key \
                    in p.head_views:
                wq_view[lo:hi] = p.gw[lo:hi, :, query]
                bq_view[lo:hi] = p.gb[lo:hi, query]
                wk_view[lo:hi] = p.gw[lo:hi, :, key]
                bk_view[lo:hi] = p.gb[lo:hi, key]
            np.matmul(p.grad_2d[lo:hi], weight_flat_t[lo:hi],
                      out=p.grad_emb[lo:hi])
            np.matmul(x2d_t[lo:hi], p.grad_emb[lo:hi], out=p.ew_tmp[lo:hi])
            p.ew_view[lo:hi] = p.ew_tmp[lo:hi]
            p.grad_emb[lo:hi].sum(axis=1, out=p.eb_tmp[lo:hi])
            p.eb_view[lo:hi] = p.eb_tmp[lo:hi]

        parallel_for(weights_body, m,
                     outputs=((p.gw, 0), (p.gb, 0), (p.grad_emb, 0),
                              (p.ew_tmp, 0), (p.eb_tmp, 0),
                              (p.ew_view, 0), (p.eb_view, 0))
                     + tuple((view, 0) for head in p.head_views
                             for view in head[:4]))
        # Masks: second accumulation on top of the L1 signs, cast first.
        # Threaded over the model axis — the cross-batch sum reduces an
        # in-chunk axis, so each model row's reduction is unchanged.
        attention = self.models[0].attention
        mask_scale = 1.0 / (attention.temperature * np.sqrt(attention.d_qk))

        def mask_body(lo, hi):
            np.multiply(p.grad_masked[lo:hi], p.raw[lo:hi],
                        out=p.product[lo:hi])
            p.product[lo:hi].sum(axis=2, out=p.gmask[lo:hi])
            p.gmask[lo:hi] *= mask_scale
            for index, mask_view in enumerate(p.mask_views):
                if p.has_l1_mask:
                    np.copyto(p.mask_cast[lo:hi], p.gmask[lo:hi, index])
                    mask_view[lo:hi] += p.mask_cast[lo:hi]
                else:
                    mask_view[lo:hi] = p.gmask[lo:hi, index]

        parallel_for(mask_body, m,
                     outputs=((p.product, 0), (p.gmask, 0),
                              (p.mask_cast, 0))
                     + tuple((view, 0) for view in p.mask_views))


class TrainingEngine(InferenceEngine):
    """One model's fused training step: :class:`StackedTrainingEngine` at K = 1.

    Parameters
    ----------
    model:
        A :class:`~repro.core.transformer.CausalityAwareTransformer`; its
        config gives the learning rate and the gradient clip norm.
    arena:
        Optional shared :class:`~repro.nn.inference.ScratchArena`; a private
        one is created when omitted.

    At construction the model's parameters are packed into a ``(1, P)``
    :class:`~repro.nn.optim.ParameterStack` (their ``.data`` arrays become
    views of its row), and the fleet of one is bound, once, to
    ``(1, *shape)`` views of its parameter and gradient matrices.
    :meth:`train_step` writes the gradients into that matrix and updates the
    row with :class:`~repro.nn.optim.StackedAdam`, as the stacked trainer
    does for each of its lanes.  Being an :class:`InferenceEngine`, the same
    engine (and arena) also runs the trainer's validation passes.
    """

    def __init__(self, model, arena: Optional[ScratchArena] = None) -> None:
        self.model = model
        config = model.config
        named = list(model.named_parameters())
        self.stack = ParameterStack([name for name, _p in named],
                                    [[parameter for _n, parameter in named]])
        stacked, grad_views = self.stack.views(1)
        self._fleet = StackedTrainingEngine([model], stacked, grad_views,
                                            arena)
        self.optimizer = StackedAdam(self.stack.params,
                                     lr=config.learning_rate,
                                     clip_norm=config.grad_clip)

    def prepare_windows(self, windows: np.ndarray) -> np.ndarray:
        """Replay the per-batch Tensor-construction cast chain once, up front.

        An autograd loop builds ``Tensor(windows[order[...]])`` per batch;
        :func:`~repro.nn.inference.reference_cast` replays its casts.  Both
        are elementwise, so applying them to the whole window set once and
        gathering rows afterwards is bit-identical to gathering first.
        """
        return np.ascontiguousarray(reference_cast(windows, self.dtype))

    def train_step(self, batch: np.ndarray) -> float:
        """One fused forward + backward + Adam update; returns the Eq. 9 loss.

        ``batch`` must be a C-contiguous ``(B, N, T)`` array prepared via
        :meth:`prepare_windows` (or already in the engine default dtype).
        """
        loss = self.forward_backward(batch)
        self.optimizer.step(self.stack.grads, 1)
        return loss

    def forward_backward(self, batch: np.ndarray) -> float:
        """Fused forward + loss + hand-derived backward into the gradient row."""
        return self._fleet._step(batch[None])[0]

    def gradients(self, batch: np.ndarray) -> Dict[str, np.ndarray]:
        """Per-parameter gradient copies for one batch (no optimizer step).

        Test hook: the returned dict maps parameter names to owned arrays,
        directly comparable against autograd ``parameter.grad`` values.
        """
        batch = self.prepare_windows(batch)
        if batch.ndim == 2:
            batch = batch[None]
        self.forward_backward(batch)
        return {name: view[0].copy()
                for name, view in self._fleet._grad_views.items()}
