"""Regression relevance propagation (RRP), paper Sec. 4.2.1.

RRP extends layer-wise relevance propagation (LRP) to regression models.  The
between-layer rule (Eq. 17) is

.. math::

    R^{(l)}_i = \\sum_j x_i \\; \\frac{\\partial f^{(l)}(x)_j}{\\partial x_i}
                \\; \\frac{R^{(l+1)}_j}{f^{(l)}(x)_j}

and non-parametric operations (matrix products) propagate relevance through
both operands with the two-operand variant (Eq. 18).  The bias term is kept
in the denominator (Eq. 15–16) so that the relevance the bias would claim is
subtracted from the inputs' relevance — removing it is the "w/o bias"
ablation of Table 3.

The propagation implemented here starts at the model output and walks back
through the output layer, the feed-forward layer, the head-concatenation
weight, the attention application, and the causal convolution, stopping at
the attention matrix ``A`` and the convolution kernel ``K`` — exactly the
two tensors the causal-graph construction reads (Sec. 4.2.3).

There is one propagation body, and it reads one layout: the buffers the
engine's forward leaves behind
(:class:`~repro.nn.inference.StackedInterpretationForward`), as they lie.
:class:`StackedRelevancePropagation` runs it for ``M`` same-architecture
models at once (every array carries a leading model axis);
:class:`RegressionRelevancePropagation` is one model's face of it for the
autograd reference's forward — the same body at ``M = 1``, over that
forward's :class:`~repro.core.transformer.TransformerCache` translated
into the engine's layout.

The paper seeds one pass per target series ``g`` with a one-hot relevance on
output row ``g`` (Fig. 6a).  The detector seeds a single pass with ones on
every row instead, and the two agree exactly: every rule is linear in the
incoming relevance, and each step down to the attention application acts
on one effect row at a time (the linears along time, the head combination
and the denominators elementwise).  Row ``g`` of that pass therefore
carries the same numbers as the pass seeded on row ``g`` alone, and the
attention application and convolution route it only into row ``g`` of
``A`` and effect column ``g`` of ``K`` — the entries the paper reads for
target ``g``.  :meth:`RegressionRelevancePropagation.propagate` keeps the
one-hot pass as a diagnostic.

The kernel relevance is returned summed over heads.  Eq. 19 averages
``|∇K| ⊙ R_h(K)`` over heads, and the kernel gradient ``∇K`` is one tensor
shared by every head, so only ``Σ_h R_h(K)`` is ever read.  Each head's
kernel relevance is a contraction that is linear in that head's value
relevance, and each head's value relevance is the convolution values
``tsbt[i, j, b, t]`` times ``A_h[b, i, j] · ratio_h[b, i, t]``.  The
propagation therefore mixes the heads' ratios first and builds one
``(B, N, N, T)`` value relevance, then contracts it over ``B·T`` once: one
GEMM per (model, source series) against the causal windows.  No
``(B, N, N, T)`` array is built per head, and the value relevance itself
is not returned.  Attention relevance stays per head, because Eq. 19
multiplies it by each head's own ``|∇A|``.

Relevance is float64 whatever the model dtype (:data:`RELEVANCE_DTYPE`):
the Eq. 15 output step divides by the model's predictions, which can sit
near zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import List, Optional, Sequence

import numpy as np

from repro.core.transformer import CausalityAwareTransformer, TransformerCache
from repro.nn.inference import series_diagonal


#: The dtype relevance is computed in, whatever the model dtype.
# repro: allow(dtype-purity): the Eq. 15 output step divides by near-zero predictions
RELEVANCE_DTYPE = np.float64


#: elements :func:`_stabilize_inplace` shifts per step
_STABILIZE_BLOCK = 1 << 16


def stabilize(values: np.ndarray, epsilon: float) -> np.ndarray:
    """Add a sign-preserving epsilon so divisions by activations are safe.

    Returns a :data:`RELEVANCE_DTYPE` copy; zeros move up.
    """
    return _stabilize_inplace(
        np.array(values, dtype=RELEVANCE_DTYPE, order="C"), epsilon)


def _stabilize_inplace(values: np.ndarray, epsilon: float) -> np.ndarray:
    """:func:`stabilize` on a C-contiguous :data:`RELEVANCE_DTYPE` array,
    in place.  It runs one block at a time, so the signed-epsilon
    temporary stays small and in cache."""
    flat = values.reshape(-1)
    for start in range(0, flat.size, _STABILIZE_BLOCK):
        block = flat[start:start + _STABILIZE_BLOCK]
        block += np.where(block >= 0, epsilon, -epsilon)
    return values


@dataclass
class RelevanceResult:
    """Relevance of the interpretable tensors for one output-relevance seed.

    ``target`` names the one-hot seeded series; ``None`` marks the all-ones
    seed, whose row ``g`` of ``A`` and column ``g`` of ``K`` belong to
    target ``g``.
    """

    target: Optional[int]
    attention: np.ndarray         # (h, B, N, N) — per head, of A
    kernel: np.ndarray            # (N, N, T) — of K, summed over heads
    output_relevance: np.ndarray  # the seed (B, N, T)


@dataclass
class PreparedStackedPropagation:
    """Seed-independent precomputation of one propagation over ``M`` models.

    Every denominator of the RRP rules (Eq. 15–18) depends only on the
    forward activations, not on the output-relevance seed, so it is
    stabilised once per forward.  Stabilisation is elementwise, so each row
    is bit-identical to preparing that model alone.  The weights are read
    from the forward's ``stage``.
    """

    forward: object                 # the model-axis forward it was built from
    d_output: np.ndarray            # (M, B, N, T)
    d_ffn_output: np.ndarray        # (M, B, N, T)
    d_hidden: np.ndarray            # (M, B, N, d_ffn)
    d_combined: np.ndarray          # (M, B, N, T)
    d_heads: np.ndarray             # (M, B, N, h, T)
    d_values_pre: np.ndarray        # (M, target, source, B, T)
    scaled_windows: np.ndarray      # (M, N, B·T, K)


class StackedRelevancePropagation:
    """RRP with a leading model axis over a stacked interpretation forward.

    Propagates the output relevance of ``M`` same-architecture models (a
    batched sweep group, or one model through
    :class:`RegressionRelevancePropagation`) in one vectorised pass.  Every
    between-layer matmul, Eq. 18 einsum and kernel GEMM carries a leading
    model axis; batched matmuls dispatch the same per-slice GEMMs and einsum
    keeps its per-element contraction order, so row ``m`` of every result is
    **bit-identical** to propagating model ``m`` alone (the tests assert
    exactly this, across all Table 3 ablations).

    ``forward`` arguments are
    :class:`~repro.nn.inference.StackedInterpretationForward` objects, read
    in the layout the engine's forward leaves its buffers in: the
    ``(M, target, source, B, T)`` convolution values ``tsbt`` and their
    self-series rows before the Eq. 4 shift ``pre_shift``, the
    ``(M, N, B·T, K)`` causal windows ``windows_flat``, the
    ``(M, B, N, h, T)`` head outputs ``heads``, the ``(M, h, B, N, N)``
    ``attention_probs``, the ``(M, B, N, ·)`` ``combined``, ``hidden``,
    ``activated``, ``ffn_output`` and ``output``, and the staged weights
    ``stage``.
    """

    def __init__(self, models: Sequence[CausalityAwareTransformer],
                 use_bias: bool = True, epsilon: float = 1e-9) -> None:
        if not models:
            raise ValueError("need at least one model")
        self.models = list(models)
        self.use_bias = use_bias
        self.epsilon = epsilon

    def prepare(self, forward) -> PreparedStackedPropagation:
        """Precompute everything that does not depend on the seed."""
        return self._prepare(forward)

    def propagate_targets(self, forward) -> List[RelevanceResult]:
        """Propagate every target for every model in one all-ones pass.

        Returns ``results[m]`` — one :class:`RelevanceResult` per model, row
        ``g`` of whose attention relevance and effect column ``g`` of whose
        kernel relevance belong to target ``g`` (see the module docstring).
        """
        prepared = self.prepare(forward)
        return self._propagate(
            prepared, np.ones(forward.output.shape, RELEVANCE_DTYPE), None)

    def _prepare(self, forward) -> PreparedStackedPropagation:
        stage = forward.stage
        n_models, batch, n_series, window = forward.output.shape
        scale = np.tile(1.0 / np.arange(1, window + 1, dtype=RELEVANCE_DTYPE),
                        batch)

        def denominator(outputs: np.ndarray, bias: str) -> np.ndarray:
            if not self.use_bias:
                outputs = outputs - stage[bias][:, None, None, :]
            return stabilize(outputs, self.epsilon)

        # The convolution values before the Eq. 4 shift: the shifted values
        # with their self-series rows put back.
        values_pre = np.array(forward.tsbt, dtype=RELEVANCE_DTYPE, order="C")
        np.copyto(series_diagonal(values_pre), forward.pre_shift)
        return PreparedStackedPropagation(
            forward=forward,
            d_output=denominator(forward.output, "b3"),
            d_ffn_output=denominator(forward.ffn_output, "b2"),
            d_hidden=denominator(forward.hidden, "b1"),
            d_combined=stabilize(forward.combined, self.epsilon),
            d_heads=stabilize(forward.heads, self.epsilon),
            d_values_pre=_stabilize_inplace(values_pre, self.epsilon),
            scaled_windows=forward.windows_flat * scale[:, None],
        )

    def _propagate(self, prepared: PreparedStackedPropagation,
                   seed: np.ndarray,
                   target: Optional[int]) -> List[RelevanceResult]:
        """Relevance reaching A and K from the ``(M, B, N, T)`` ``seed``."""
        forward = prepared.forward
        stage = forward.stage
        n_models, batch, n_series, window = forward.output.shape
        diag = np.arange(n_series)
        n_heads = forward.attention_probs.shape[1]

        # Output layer → feed-forward second linear → (pass-through leaky
        # ReLU) → feed-forward first linear (Eq. 15/17), model axis leading.
        relevance_ffn_out = forward.ffn_output * (
            (seed / prepared.d_output)
            @ stage["w3"].transpose(0, 2, 1)[:, None])
        relevance_activated = forward.activated * (
            (relevance_ffn_out / prepared.d_ffn_output)
            @ stage["w2"].transpose(0, 2, 1)[:, None])
        relevance_attention_combined = forward.combined * (
            (relevance_activated / prepared.d_hidden)
            @ stage["w1"].transpose(0, 2, 1)[:, None])

        # Attention application (two-operand rule, Eq. 18):
        #   head_output[b, i, t] = Σ_j attention[b, i, j] · tsbt[i, j, b, t]
        tsbt = forward.tsbt
        attention = forward.attention_probs
        relevance_attention = np.empty(attention.shape, RELEVANCE_DTYPE)
        ratios = np.empty((n_models, n_heads, batch, n_series, window),
                          RELEVANCE_DTYPE)
        for head_index in range(n_heads):
            # Head concatenation: combined = Σ_h W_O[h] · head_output_h.
            relevance_head = (forward.heads[:, :, :, head_index]
                              * stage["w_output"][:, head_index,
                                                  None, None, None]
                              * relevance_attention_combined
                              / prepared.d_combined)
            ratio = np.divide(relevance_head,
                              prepared.d_heads[:, :, :, head_index],
                              out=ratios[:, head_index])
            np.multiply(attention[:, head_index],
                        np.einsum("mijbt,mbit->mbij", tsbt, ratio),
                        out=relevance_attention[:, head_index])

        # Each head's value relevance is tsbt[i, j, b, t] times
        # attention_h[b, i, j] · ratio_h[b, i, t], and only their head sum
        # reaches the kernel.  Mix the heads first, into tsbt's (M, target,
        # source, B, T) layout: small GEMMs over h, one target row at a time
        # so that only that row of the attention is ever cast to the
        # relevance dtype.
        mixed = np.empty((n_models, n_series, n_series, batch, window),
                         RELEVANCE_DTYPE)
        for row in range(n_series):
            np.matmul(attention[:, :, :, row].transpose(0, 2, 3, 1),
                      ratios[:, :, :, row].transpose(0, 2, 1, 3),
                      out=mixed[:, row].transpose(0, 2, 1, 3))

        # The value relevance, in place: tsbt · the mixed ratio.  Then
        # undo the diagonal right-shift before touching the kernel: the
        # post-shift value at slot t+1 came from the pre-shift value at t.
        mixed *= tsbt
        mixed[:, diag, diag, :, :-1] = mixed[:, diag, diag, :, 1:]
        mixed[:, diag, diag, :, -1] = 0.0

        # Convolution (two-operand rule): values_pre[j, i, b, t] =
        #   Σ_τ kernel[i, j, τ] · windows_flat[i, b·T + t, τ] / (t + 1),
        # contracted over B·T as one GEMM per (model, source series).
        mixed /= prepared.d_values_pre
        relevance_kernel = stage["kernel_eff"] * (
            mixed.reshape(n_models, n_series, n_series, -1)
            .transpose(0, 2, 1, 3) @ prepared.scaled_windows)

        return [RelevanceResult(target=target,
                                attention=relevance_attention[row],
                                kernel=relevance_kernel[row],
                                output_relevance=seed[row])
                for row in range(n_models)]


def _model_axis_view(cache: TransformerCache,
                     model: CausalityAwareTransformer) -> SimpleNamespace:
    """The autograd reference's ``cache`` of ``model`` as a one-model fleet
    forward: the engine's layout, with a leading model axis of 1."""
    heads = cache.head_caches
    batch, n_series, window, _ = cache.conv_windows.shape
    series = np.arange(n_series)
    ffn = model.feed_forward
    weights = {"w3": model.output_layer.weight, "b3": model.output_layer.bias,
               "w2": ffn.w2, "b2": ffn.b2, "w1": ffn.w1, "b1": ffn.b1,
               "w_output": model.attention.w_output,
               "kernel_eff": model.convolution.effective_kernel()}
    return SimpleNamespace(
        output=cache.output[None],
        ffn_output=cache.ffn_output[None],
        hidden=cache.ffn_hidden[None],
        activated=cache.ffn_activated[None],
        combined=cache.attention_combined[None],
        heads=np.stack([head.head_output_data for head in heads],
                       axis=2)[None],
        attention_probs=np.stack([head.attention_data
                                  for head in heads])[None],
        tsbt=cache.values.transpose(2, 1, 0, 3)[None],
        pre_shift=cache.values_pre_shift[:, series, series]
        .transpose(1, 0, 2)[None],
        windows_flat=cache.conv_windows.transpose(1, 0, 2, 3)
        .reshape(n_series, batch * window, -1)[None],
        stage={name: tensor.data[None] for name, tensor in weights.items()},
    )


class RegressionRelevancePropagation:
    """Backward relevance decomposition of a trained causality-aware transformer.

    One model's face of :class:`StackedRelevancePropagation` for the
    autograd reference's forward: each method translates its
    :class:`~repro.core.transformer.TransformerCache` into the engine's
    layout with a model axis of one, runs the stacked propagation body and
    strips the axis from the result.

    Parameters
    ----------
    model:
        The trained transformer.
    use_bias:
        Keep the bias term in the denominators (Eq. 15).  ``False``
        reproduces the "w/o bias" ablation (z-rule denominators, Eq. 14).
    epsilon:
        Stabiliser for divisions by activations.
    """

    def __init__(self, model: CausalityAwareTransformer, use_bias: bool = True,
                 epsilon: float = 1e-9) -> None:
        self.model = model
        self.use_bias = use_bias
        self.epsilon = epsilon

    def _fleet(self) -> StackedRelevancePropagation:
        return StackedRelevancePropagation([self.model], self.use_bias,
                                           self.epsilon)

    # ------------------------------------------------------------------ #
    # Elementary propagation rules
    # ------------------------------------------------------------------ #
    def _linear_relevance(self, inputs: np.ndarray, weight: np.ndarray,
                          bias: Optional[np.ndarray], outputs: np.ndarray,
                          relevance_out: np.ndarray) -> np.ndarray:
        """Relevance through ``outputs = inputs @ weight + bias`` (Eq. 15/17)."""
        denominator = outputs if (self.use_bias or bias is None) else outputs - bias
        ratio = relevance_out / stabilize(denominator, self.epsilon)
        return inputs * (ratio @ weight.T)

    # ------------------------------------------------------------------ #
    # Full propagation
    # ------------------------------------------------------------------ #
    def one_hot_relevance(self, cache: TransformerCache, target: int) -> np.ndarray:
        """Initial relevance: ones on the target series' output row (Fig. 6a)."""
        batch, n_series, window = cache.output.shape
        if not (0 <= target < n_series):
            raise IndexError(f"target series {target} out of range [0, {n_series})")
        relevance = np.zeros((batch, n_series, window), RELEVANCE_DTYPE)
        relevance[:, target, :] = 1.0
        return relevance

    def prepare(self, cache: TransformerCache) -> PreparedStackedPropagation:
        """Precompute everything that does not depend on the seed."""
        return self._fleet()._prepare(_model_axis_view(cache, self.model))

    def propagate(self, cache: TransformerCache, target: int) -> RelevanceResult:
        """Propagate a one-hot relevance on series ``target`` (Fig. 6a)."""
        return self._propagate(cache, self.one_hot_relevance(cache, target),
                               target)

    def propagate_targets(self, cache: TransformerCache) -> RelevanceResult:
        """Propagate every target series in one all-ones pass.

        Row ``g`` of each head's attention relevance and effect column ``g``
        of the kernel relevance equal :meth:`propagate` at ``target=g``
        (see the module docstring).
        """
        return self._propagate(
            cache, np.ones(cache.output.shape, RELEVANCE_DTYPE), None)

    def _propagate(self, cache: TransformerCache, seed: np.ndarray,
                   target: Optional[int]) -> RelevanceResult:
        return self._fleet()._propagate(self.prepare(cache), seed[None],
                                        target)[0]

    # ------------------------------------------------------------------ #
    # Diagnostics used by tests
    # ------------------------------------------------------------------ #
    def conservation_gap(self, cache: TransformerCache, target: int) -> float:
        """Relative gap between output relevance and the relevance reaching A.

        Exact LRP conserves relevance layer by layer (Eq. 10); RRP's bias
        relevance deliberately breaks strict conservation (Sec. 4.2.1), so
        this returns the relative difference — useful to verify that the
        propagation neither explodes nor vanishes.
        """
        result = self.propagate(cache, target)
        total_out = float(result.output_relevance.sum())
        total_attention = float(sum(head.sum() for head in result.attention))
        if total_out == 0:
            return 0.0
        return abs(total_out - total_attention) / abs(total_out)
