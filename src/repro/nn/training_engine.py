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

There is one set of kernels: :class:`TrainingEngine`, one model's training
step, is the same engine at ``K = 1`` over ``(1, *shape)`` views of the
model's parameters and of the fused flat Adam buffer
(:meth:`repro.nn.optim.Adam.ensure_flat`), finishing each step with
:meth:`~repro.nn.optim.Adam.step_flat`.  The batched sweep
(:class:`repro.core.batched.StackedCausalFormerTrainer`) drives the engine
at full width and applies its own row-masked stacked Adam.

Buffer-handle plans
-------------------
A steady-state backward would spend dozens of ``space.take`` probes per
step on buffers whose identity never changes for a fixed ``(batch shape,
dtype)`` workload.  The engine builds a backward *plan* per workload key —
one object holding every scratch handle, derived transpose/reshape view and
gradient view — and revalidates it with a handful of identity checks per
step (the scratch space and the derived dtypes).  Rebinding the engine to
new parameter or gradient views drops every plan.

Threaded execution
------------------
The dominant backward ops run through :func:`repro.nn.parallel.parallel_for`
across the model or batch axis picked by
:meth:`~repro.nn.inference.StackedInferenceEngine._model_axis_first`.
Chunking is bit-exact by construction: numpy dispatches batched (3D+)
matmuls as one 2-D GEMM per leading-axes slice, elementwise ops and
last-axis reductions are per-row, and every chunk writes a disjoint slice of
a pre-allocated arena buffer.  Cross-row weight-gradient reductions
(``ffn.T @ grad2d`` style, ``.sum(axis=1)``) chunk only across models, so
each model's reduction stays whole.  At ``engine threads = 1`` every
``body(0, n)`` call is the exact serial path.

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
everything is exact: a fleet row, every thread count and a resumed fit
reproduce a one-model serial fit bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.contracts import hot_path
from repro.nn.inference import (InferenceEngine, ScratchArena, ScratchSpace,
                                StackedInferenceEngine, _mse_plus_penalties,
                                sum_last_keepdims)
from repro.nn.parallel import parallel_for, slice_axis


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
    the scratch-space identity and the derived-dtype signature.
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
        f64 = np.float64  # repro: allow(dtype-purity): grads are f64
        cdtype = np.result_type(xb_dtype, stage["kernel_eff"].dtype)
        adtype = np.result_type(xb_dtype, stage["embed_weight"].dtype)
        sdtype = np.result_type(cdtype, stage["scale_array"].dtype)

        self.space = space
        self.signature = (np.dtype(adtype).str, np.dtype(cdtype).str,
                          np.dtype(sdtype).str)
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
        self.grad_pred = take("bwd.pred", (m, batch, n, window), f64)
        self.grad2d = self.grad_pred.reshape(m, bn, window)
        self.ffn = take("mlp.ffn", (m, bn, window), f64)
        self.ffn_t = self.ffn.transpose(0, 2, 1)
        self.hidden = take("mlp.hidden", (m, bn, d_ffn), f64)    # activated
        self.hidden_t = self.hidden.transpose(0, 2, 1)
        self.slope = take("mlp.slope", (m, bn, d_ffn), f64)
        self.w3_tmp = take("bwd.w3", (m, window, window), f64)
        self.b3_tmp = take("bwd.b3", (m, window), f64)
        self.grad_ffn = take("bwd.ffn", (m, bn, window), f64)
        self.w2_tmp = take("bwd.w2", (m, d_ffn, window), f64)
        self.b2_tmp = take("bwd.b2", (m, window), f64)
        self.grad_hidden = take("bwd.hidden", (m, bn, d_ffn), f64)
        self.combined2d = take("comb.out", (m, bn * window, 1), f64) \
            .reshape(m, bn, window)
        self.combined2d_t = self.combined2d.transpose(0, 2, 1)
        self.w1_tmp = take("bwd.w1", (m, window, d_ffn), f64)
        self.b1_tmp = take("bwd.b1", (m, d_ffn), f64)
        self.grad_combined = take("bwd.comb", (m, bn, window), f64)
        self.grad_comb4d = self.grad_combined.reshape(m, batch, n, window)
        self.gc5 = self.grad_comb4d[:, :, :, None, :]

        self.a_bihj = take("comb.a", (m, batch, n, n_heads, n), f64)
        self.v_bijt = take("comb.v", (m, batch, n, n, window), f64)
        self.head_outputs = take("comb.ho", (m, batch, n, n_heads, window),
                                 f64)
        self.grad_heads = take("comb.bwd.heads",
                               (m, batch, n, n_heads, window), f64)
        self.grad_a = take("bwd.ga", (m, batch, n, n_heads, n), f64)
        self.grad_probs = self.grad_a.transpose(0, 3, 1, 2, 4)
        self.grad_v = take("bwd.gv", (m, batch, n, n, window), f64)
        self.v_t = self.v_bijt.transpose(0, 1, 2, 4, 3)
        self.a_t = self.a_bihj.transpose(0, 1, 2, 4, 3)
        self.ho_flat = take("bwd.ho_flat", (m, n_heads, bn * window), f64)
        self.ho_flat_r = self.ho_flat.reshape(m, n_heads, batch, n, window)
        self.ho_src = self.head_outputs.transpose(0, 3, 1, 2, 4)
        # One (n_heads, 1) slice per model so the per-row GEMV outputs are
        # disjoint under model-axis threading (formerly one shared buffer).
        self.wout_tmp = take("bwd.wout", (m, n_heads, 1), f64)

        self.probs = take("att.probs", (m, n_heads, batch, n, n), f64)
        self.raw = take("att.raw", (m, n_heads, batch, n, n), adtype)
        self.qk = take("att.qk", (m, 2 * n_heads, batch, n, d_qk), adtype)
        self.emb = take("att.emb", (m, bn, d_model), adtype)
        self.emb_t = self.emb.transpose(0, 2, 1)
        self.product = take("bwd.att.prod", (m, n_heads, batch, n, n), f64)
        self.dot = take("bwd.att.dot", (m, n_heads, batch, n, 1), f64)
        self.grad_masked = take("bwd.att.masked", (m, n_heads, batch, n, n),
                                f64)
        self.grad_raw = take("bwd.att.raw", (m, n_heads, batch, n, n), f64)
        self.grad_raw_t = self.grad_raw.transpose(0, 1, 2, 4, 3)
        self.grad_qk = take("bwd.att.qk", (m, 2 * n_heads, batch, n, d_qk),
                            adtype)
        self.gq = self.grad_qk[:, :n_heads]
        self.gk = self.grad_qk[:, n_heads:]
        self.query_half = self.qk[:, :n_heads]
        self.key_half = self.qk[:, n_heads:]
        self.grad_2d = take("bwd.att.2d", (m, bn, 2 * n_heads * d_qk),
                            adtype)
        self.grad_2d_r = self.grad_2d.reshape(m, batch, n, 2 * n_heads, d_qk)
        self.grad_qk_src = self.grad_qk.transpose(0, 2, 3, 1, 4)
        self.grad_emb = take("bwd.att.emb", (m, bn, d_model), adtype)
        self.ew_tmp = take("bwd.ew", (m, window, d_model), adtype)
        self.eb_tmp = take("bwd.eb", (m, d_model), adtype)
        self.gw = take("bwd.att.gw", (m, d_model, 2 * n_heads * d_qk),
                       adtype)
        self.gb = take("bwd.att.gb", (m, 2 * n_heads * d_qk), adtype)
        self.gmask = take("bwd.att.gmask", (m, n_heads, n, n), f64)
        self.mask_cast = take("bwd.att.gmask_cast", (m, n, n), dtype)

        self.windows_flat = take("conv.windows_flat",
                                 (m, n, batch * window, window), xb_dtype)
        self.shifted = take("bwd.conv.grad", (m, batch, n, n, window),
                            cdtype)
        self.grad_v_t = self.grad_v.transpose(0, 1, 3, 2, 4)
        self.shift_buf = take("bwd.conv.shift", (m, batch, window), cdtype)
        self.grad_scaled = take("bwd.conv.scaled",
                                (m, batch, n, n, window), sdtype)
        self.grad_scaled_t = self.grad_scaled.transpose(0, 2, 3, 1, 4)
        self.flat_k = take("bwd.conv.flat_k", (m, n, n, batch * window),
                           sdtype)
        self.flat_k_r = self.flat_k.reshape(m, n, n, batch, window)
        self.ksum = None
        if self.single_kernel:
            self.kgrad = take("bwd.conv.geff", (m, n, n, window), sdtype)
            self.ksum = take("bwd.conv.ksum", (m, 1, 1, window), sdtype)
        else:
            self.kgrad = take("bwd.conv.kgrad", (m, n, n, window), sdtype)


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
        lane retires or a freed lane is refilled from the job queue, then
        hands the engine the fresh ``(K', *shape)`` views; a
        :class:`TrainingEngine` rebinds when its optimizer re-fuses the flat
        buffers.  Re-running the
        architecture validation through ``StackedInferenceEngine.__init__``
        keeps the compatibility guarantees while preserving the arena (and
        with it every per-shape scratch space), any installed profiling
        hooks (instance-dict state, untouched here) and the
        ``parallel_model_axis`` choice.  Cached backward plans are dropped:
        plans for the new width rebuild on the next step, and stale-width
        plans must not outlive views they no longer describe.
        """
        StackedInferenceEngine.__init__(self, models, arena=self.arena)
        self._stacked = stacked
        self._grad_views = grad_views
        self._backward_plans.clear()

    def _stage(self) -> dict:
        """Stage only the genuinely fused layouts; serve the rest as views.

        The base class copies every model's weights into stacked arena
        buffers because its models are independent objects.  This engine's
        models are backed by the trainer's ``(K, P)`` matrix, so the plain
        per-parameter stacks already exist as live views — only the fused
        layouts (concatenated Q/K projections, the float64 mask modulation,
        the broadcast single-kernel) still need a per-step copy.  Each
        stacked view's per-model slice is C-contiguous like the buffer rows
        it replaces, so every per-slice GEMM is unchanged bit for bit.
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
        stacked = self._stacked
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

        scale = 1.0 / (attention.temperature * np.sqrt(attention.d_qk))
        modulation = arena.take("stack.modulation", (m, n_heads, 1, n, n),
                                np.float64)
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

    def train_step(self, batch: np.ndarray) -> List[float]:
        """Fused forward + per-model losses + backward into the grad matrix.

        ``batch`` is the gathered ``(K, B, N, T)`` mini-batch in the model
        dtype.  Returns one Eq. 9 loss per model; the caller applies the
        stacked Adam update.
        """
        return self._step(batch)

    def _step(self, batch: np.ndarray) -> List[float]:
        stage = self._stage()
        space = self.arena.space(("stack.eval", batch.shape, batch.dtype.str))
        prediction = self._forward(batch, stage)
        diff = self._windowed_diff(prediction, batch)
        losses = [_mse_plus_penalties(diff[row], self._penalty_terms(row))
                  for row in range(len(self.models))]
        self._backward(space, stage, batch, diff)
        return losses

    def _backward_plan(self, space: ScratchSpace, stage: dict,
                       xb: np.ndarray) -> _StackedBackwardPlan:
        """The cached handle plan for this workload, rebuilt when stale."""
        cdtype = np.result_type(xb.dtype, stage["kernel_eff"].dtype)
        adtype = np.result_type(xb.dtype, stage["embed_weight"].dtype)
        sdtype = np.result_type(cdtype, stage["scale_array"].dtype)
        signature = (adtype.str, cdtype.str, sdtype.str)
        key = (xb.shape, xb.dtype.str)
        plan = self._backward_plans.get(key)
        if plan is None or plan.space is not space \
                or plan.signature != signature:
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
        model = self.models[0]
        config = model.config
        m, batch, n, window = xb.shape
        bn = batch * n
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

        # --- MLP tail backward (threaded over the model axis: each row
        # is an independent 2-D GEMM / reduction, unchanged per model) --- #
        w3_t = stage["w3"].transpose(0, 2, 1)
        w2_t = stage["w2"].transpose(0, 2, 1)
        w1_t = stage["w1"].transpose(0, 2, 1)

        def mlp_body(lo, hi):
            np.matmul(p.ffn_t[lo:hi], p.grad2d[lo:hi], out=p.w3_tmp[lo:hi])
            p.w3_view[lo:hi] = p.w3_tmp[lo:hi]
            p.grad2d[lo:hi].sum(axis=1, out=p.b3_tmp[lo:hi])
            p.b3_view[lo:hi] = p.b3_tmp[lo:hi]
            np.matmul(p.grad2d[lo:hi], w3_t[lo:hi], out=p.grad_ffn[lo:hi])
            np.matmul(p.hidden_t[lo:hi], p.grad_ffn[lo:hi],
                      out=p.w2_tmp[lo:hi])
            p.w2_view[lo:hi] = p.w2_tmp[lo:hi]
            p.grad_ffn[lo:hi].sum(axis=1, out=p.b2_tmp[lo:hi])
            p.b2_view[lo:hi] = p.b2_tmp[lo:hi]
            np.matmul(p.grad_ffn[lo:hi], w2_t[lo:hi],
                      out=p.grad_hidden[lo:hi])
            p.grad_hidden[lo:hi] *= p.slope[lo:hi]
            np.matmul(p.combined2d_t[lo:hi], p.grad_hidden[lo:hi],
                      out=p.w1_tmp[lo:hi])
            p.w1_view[lo:hi] = p.w1_tmp[lo:hi]
            p.grad_hidden[lo:hi].sum(axis=1, out=p.b1_tmp[lo:hi])
            p.b1_view[lo:hi] = p.b1_tmp[lo:hi]
            np.matmul(p.grad_hidden[lo:hi], w1_t[lo:hi],
                      out=p.grad_combined[lo:hi])

        parallel_for(mlp_body, m,
                     outputs=((p.w3_tmp, 0), (p.b3_tmp, 0), (p.grad_ffn, 0),
                              (p.w2_tmp, 0), (p.b2_tmp, 0),
                              (p.grad_hidden, 0), (p.w1_tmp, 0),
                              (p.b1_tmp, 0), (p.grad_combined, 0),
                              (p.w3_view, 0), (p.b3_view, 0),
                              (p.w2_view, 0), (p.b2_view, 0),
                              (p.w1_view, 0), (p.b1_view, 0)))

        # --- attention combination backward (model or batch axis) ------- #
        axis = 0 if self._model_axis_first(m, batch) else 1
        w_out5 = stage["w_output"][:, None, None, :, None]

        def combine_body(lo, hi):
            w_out = w_out5[lo:hi] if axis == 0 else w_out5
            np.multiply(slice_axis(p.gc5, axis, lo, hi), w_out,
                        out=slice_axis(p.grad_heads, axis, lo, hi))
            np.matmul(slice_axis(p.grad_heads, axis, lo, hi),
                      slice_axis(p.v_t, axis, lo, hi),
                      out=slice_axis(p.grad_a, axis, lo, hi))
            np.matmul(slice_axis(p.a_t, axis, lo, hi),
                      slice_axis(p.grad_heads, axis, lo, hi),
                      out=slice_axis(p.grad_v, axis, lo, hi))

        parallel_for(combine_body, p.grad_heads.shape[axis],
                     outputs=((p.grad_heads, axis), (p.grad_a, axis),
                              (p.grad_v, axis)))
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
        x2d = xb.reshape(m, bn, window)
        x2d_t = x2d.transpose(0, 2, 1)

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
        attention = model.attention
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

        # --- causal convolution backward -------------------------------- #
        conv_axis = 0 if self._model_axis_first(m, batch) else 1

        def shifted_body(lo, hi):
            np.copyto(slice_axis(p.shifted, conv_axis, lo, hi),
                      slice_axis(p.grad_v_t, conv_axis, lo, hi))

        parallel_for(shifted_body, p.shifted.shape[conv_axis],
                     outputs=((p.shifted, conv_axis),))
        for index in range(n):
            np.copyto(p.shift_buf, p.shifted[:, :, index, index, :])
            p.shifted[:, :, index, index, :-1] = p.shift_buf[..., 1:]
            p.shifted[:, :, index, index, -1] = 0.0
        scale_array = stage["scale_array"]

        def scaled_body(lo, hi):
            np.multiply(slice_axis(p.shifted, conv_axis, lo, hi),
                        scale_array,
                        out=slice_axis(p.grad_scaled, conv_axis, lo, hi))

        parallel_for(scaled_body, p.grad_scaled.shape[conv_axis],
                     outputs=((p.grad_scaled, conv_axis),))
        k_axis = 0 if self._model_axis_first(m, n) else 1

        def kernel_body(lo, hi):
            np.copyto(slice_axis(p.flat_k_r, k_axis, lo, hi),
                      slice_axis(p.grad_scaled_t, k_axis, lo, hi))
            np.matmul(slice_axis(p.flat_k, k_axis, lo, hi),
                      slice_axis(p.windows_flat, k_axis, lo, hi),
                      out=slice_axis(p.kgrad, k_axis, lo, hi))

        parallel_for(kernel_body, p.flat_k.shape[k_axis],
                     outputs=((p.flat_k_r, k_axis), (p.kgrad, k_axis)))
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


class TrainingEngine(InferenceEngine):
    """One model's fused training step: :class:`StackedTrainingEngine` at K = 1.

    Parameters
    ----------
    model:
        A :class:`~repro.core.transformer.CausalityAwareTransformer`.
    optimizer:
        The model's :class:`~repro.nn.optim.Adam` over all of its
        parameters; gradients are written directly into its fused flat
        buffer and :meth:`train_step` finishes with
        :meth:`~repro.nn.optim.Adam.step_flat`.
    arena:
        Optional shared :class:`~repro.nn.inference.ScratchArena`; a private
        one is created when omitted.

    The fleet of one trains on ``(1, *shape)`` views: of each parameter's
    live data, and of the Adam flat gradient buffer viewed as ``(1, P)``.
    The views are rebuilt whenever the optimizer re-fuses its buffers or a
    parameter's storage is replaced.  Being an :class:`InferenceEngine`,
    the same engine (and arena) also runs the trainer's validation passes.
    """

    def __init__(self, model, optimizer,
                 arena: Optional[ScratchArena] = None) -> None:
        self.model = model
        self.optimizer = optimizer
        self._fleet = StackedTrainingEngine([model], {}, {}, arena)
        self._binding: Optional[tuple] = None

    @property
    def fleet(self) -> StackedTrainingEngine:
        """The one-model training fleet, bound to the current buffers."""
        flat_views = self.optimizer.ensure_flat()
        gradient = self.optimizer.flat_gradient
        binding = (id(gradient),) + tuple(
            id(parameter.data) for parameter, _slice, _shape in flat_views)
        if binding != self._binding:
            names = {id(parameter): name
                     for name, parameter in self.model.named_parameters()}
            rows = gradient.reshape(1, -1)
            stacked, grad_views = {}, {}
            for parameter, view_slice, shape in flat_views:
                name = names[id(parameter)]
                stacked[name] = parameter.data[None]
                grad_views[name] = rows[:, view_slice].reshape((1,) + shape)
            self._fleet.rebind([self.model], stacked, grad_views)
            self._binding = binding
        return self._fleet

    def prepare_windows(self, windows: np.ndarray) -> np.ndarray:
        """Replay the per-batch Tensor-construction cast chain once, up front.

        An autograd loop builds ``Tensor(windows[order[...]])`` per batch
        (casting to the engine default dtype) and the reference forward
        re-casts through the model dtype when they differ.  Both casts are
        elementwise, so applying them to the whole window set once and
        gathering rows afterwards is bit-identical to gathering first.
        """
        from repro.nn import tensor as T

        default = np.dtype(T.get_default_dtype())
        arr = np.asarray(windows, dtype=default)
        dtype = self.dtype
        if arr.dtype != dtype:
            arr = np.asarray(arr.astype(dtype), dtype=default)
        return np.ascontiguousarray(arr)

    def train_step(self, batch: np.ndarray) -> float:
        """One fused forward + backward + Adam update; returns the Eq. 9 loss.

        ``batch`` must be a C-contiguous ``(B, N, T)`` array prepared via
        :meth:`prepare_windows` (or already in the engine default dtype).
        """
        loss = self.forward_backward(batch)
        self.optimizer.step_flat()
        return loss

    def forward_backward(self, batch: np.ndarray) -> float:
        """Fused forward + loss + hand-derived backward into the flat buffer."""
        return self.fleet._step(batch[None])[0]

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
