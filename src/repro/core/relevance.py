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

There is one propagation body.  :class:`StackedRelevancePropagation` runs
it for ``M`` same-architecture models at once (every array carries a
leading model axis); :class:`RegressionRelevancePropagation` is one model's
face of it — the same body at ``M = 1`` over a model-axis view of a
:class:`~repro.core.transformer.TransformerCache`.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import List, Optional, Sequence

import numpy as np

from repro.core.transformer import CausalityAwareTransformer, TransformerCache


def stabilize(values: np.ndarray, epsilon: float) -> np.ndarray:
    """Add a sign-preserving epsilon so divisions by activations are safe."""
    signs = np.where(values >= 0, 1.0, -1.0)
    return values + signs * epsilon


@dataclass
class HeadRelevance:
    """Relevance scores reaching one attention head."""

    attention: np.ndarray   # (B, N, N) — relevance of the attention matrix
    values: np.ndarray      # (B, N, N, T) — relevance of the convolution output
    kernel: np.ndarray      # (N, N, T) — relevance of the convolution kernel


@dataclass
class RelevanceResult:
    """Relevance of the interpretable tensors for one output-relevance seed.

    ``target`` names the one-hot seeded series; ``None`` marks the all-ones
    seed, whose row ``g`` of ``A`` and column ``g`` of ``K`` belong to
    target ``g``.
    """

    target: Optional[int]
    heads: List[HeadRelevance]
    output_relevance: np.ndarray  # the seed (B, N, T)


@dataclass
class PreparedStackedPropagation:
    """Seed-independent precomputation of one propagation over ``M`` models.

    Every denominator of the RRP rules (Eq. 15–18) depends only on the
    forward activations, not on the output-relevance seed, so it is
    stabilised once per forward.  Stabilisation is elementwise, so each row
    is bit-identical to preparing that model alone.
    """

    forward: object                 # the model-axis forward it was built from
    d_output: np.ndarray            # (M, B, N, T)
    d_ffn_output: np.ndarray        # (M, B, N, T)
    d_hidden: np.ndarray            # (M, B, N, d_ffn)
    d_combined: np.ndarray          # (M, B, N, T)
    d_heads: np.ndarray             # (M, h, B, N, T)
    d_values_pre: np.ndarray        # (M, B, N, N, T)
    weighted_heads: np.ndarray      # (M, h, B, N, T)
    kernel: np.ndarray              # (M, N, N, T)
    scaled_windows: np.ndarray      # (M, B, N, T, K)
    w_output: np.ndarray            # (M, T, T)   output-layer weights
    w2: np.ndarray                  # (M, d_ffn, T)
    w1: np.ndarray                  # (M, T, d_ffn)


class StackedRelevancePropagation:
    """RRP with a leading model axis over a stacked interpretation forward.

    Propagates the output relevance of ``M`` same-architecture models (a
    batched sweep group, or one model through
    :class:`RegressionRelevancePropagation`) in one vectorised pass.  Every
    between-layer matmul and Eq. 18 einsum carries a leading model
    subscript; batched matmuls dispatch the same per-slice GEMMs and einsum
    keeps its per-element contraction order, so row ``m`` of every result is
    **bit-identical** to propagating model ``m`` alone (the tests assert
    exactly this, across all Table 3 ablations).

    ``forward`` arguments are
    :class:`~repro.nn.inference.StackedInterpretationForward` objects, or
    anything with the same model-axis ``output``, ``ffn_output``,
    ``hidden``, ``activated``, ``combined``, ``head_outputs``, ``values``,
    ``values_pre``, ``conv_windows`` and ``attention_probs`` arrays.
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
        return self._propagate(prepared, np.ones(forward.output.shape), None)

    def _prepare(self, forward) -> PreparedStackedPropagation:
        models = self.models
        window = models[0].config.window
        scale = 1.0 / np.arange(1, window + 1, dtype=float)

        def denominator(outputs: np.ndarray, biases: np.ndarray,
                        expand) -> np.ndarray:
            base = outputs if self.use_bias else outputs - biases[expand]
            return stabilize(base, self.epsilon)

        output_bias = np.stack([model.output_layer.bias.data
                                for model in models])
        b2 = np.stack([model.feed_forward.b2.data for model in models])
        b1 = np.stack([model.feed_forward.b1.data for model in models])
        w_out = np.stack([model.attention.w_output.data for model in models])
        channel = (slice(None), None, None, slice(None))
        return PreparedStackedPropagation(
            forward=forward,
            d_output=denominator(forward.output, output_bias, channel),
            d_ffn_output=denominator(forward.ffn_output, b2, channel),
            d_hidden=denominator(forward.hidden, b1, channel),
            d_combined=stabilize(forward.combined, self.epsilon),
            d_heads=stabilize(forward.head_outputs, self.epsilon),
            d_values_pre=stabilize(forward.values_pre, self.epsilon),
            weighted_heads=forward.head_outputs
            * w_out[:, :, None, None, None],
            kernel=np.stack([model.convolution.effective_kernel().data
                             for model in models]),
            scaled_windows=forward.conv_windows
            * scale[None, None, None, :, None],
            w_output=np.stack([model.output_layer.weight.data
                               for model in models]),
            w2=np.stack([model.feed_forward.w2.data for model in models]),
            w1=np.stack([model.feed_forward.w1.data for model in models]),
        )

    def _propagate(self, prepared: PreparedStackedPropagation,
                   seed: np.ndarray,
                   target: Optional[int]) -> List[RelevanceResult]:
        """Relevance reaching A and K from the ``(M, B, N, T)`` ``seed``."""
        forward = prepared.forward
        n_series = forward.output.shape[2]
        diag = np.arange(n_series)
        n_heads = forward.attention_probs.shape[1]

        # Output layer → feed-forward second linear → (pass-through leaky
        # ReLU) → feed-forward first linear (Eq. 15/17), model axis leading.
        relevance_ffn_out = forward.ffn_output * (
            (seed / prepared.d_output)
            @ prepared.w_output.transpose(0, 2, 1)[:, None])
        relevance_activated = forward.activated * (
            (relevance_ffn_out / prepared.d_ffn_output)
            @ prepared.w2.transpose(0, 2, 1)[:, None])
        relevance_attention_combined = forward.combined * (
            (relevance_activated / prepared.d_hidden)
            @ prepared.w1.transpose(0, 2, 1)[:, None])

        values = forward.values
        per_head: List[HeadRelevance] = []
        for head_index in range(n_heads):
            # Head concatenation: combined = Σ_h W_O[h] · head_output_h.
            relevance_head = (prepared.weighted_heads[:, head_index]
                              * relevance_attention_combined
                              / prepared.d_combined)

            # Attention application (two-operand rule, Eq. 18):
            #   head_output[b, i, t] = Σ_j attention[b, i, j] · values[b, j, i, t]
            attention = forward.attention_probs[:, head_index]
            ratio = relevance_head / prepared.d_heads[:, head_index]
            relevance_attention = attention * np.einsum(
                "mbjit,mbit->mbij", values, ratio)
            relevance_values = np.einsum(
                "mbij,mbjit,mbit->mbjit", attention, values, ratio)

            # Undo the diagonal right-shift before touching the kernel: the
            # post-shift value at slot t+1 came from the pre-shift value at t.
            relevance_pre_shift = relevance_values.copy()
            relevance_pre_shift[:, :, diag, diag, :-1] = \
                relevance_values[:, :, diag, diag, 1:]
            relevance_pre_shift[:, :, diag, diag, -1] = 0.0

            # Convolution (two-operand rule): values_pre[b, i, j, t] =
            #   Σ_τ kernel[i, j, τ] · windows[b, i, t, τ] / (t + 1)
            ratio_values = relevance_pre_shift / prepared.d_values_pre
            relevance_kernel = prepared.kernel * np.einsum(
                "mbitk,mbijt->mijk", prepared.scaled_windows, ratio_values)
            per_head.append(HeadRelevance(attention=relevance_attention,
                                          values=relevance_values,
                                          kernel=relevance_kernel))

        return [RelevanceResult(
            target=target,
            heads=[HeadRelevance(attention=head.attention[row],
                                 values=head.values[row],
                                 kernel=head.kernel[row])
                   for head in per_head],
            output_relevance=seed[row]) for row in range(len(seed))]


def _model_axis_view(cache: TransformerCache) -> SimpleNamespace:
    """``cache`` as a one-model fleet forward (a leading model axis of 1)."""
    heads = cache.head_caches
    return SimpleNamespace(
        output=cache.output[None],
        ffn_output=cache.ffn_output[None],
        hidden=cache.ffn_hidden[None],
        activated=cache.ffn_activated[None],
        combined=cache.attention_combined[None],
        head_outputs=np.stack([head.head_output_data for head in heads])[None],
        values=cache.values[None],
        values_pre=cache.values_pre_shift[None],
        conv_windows=cache.conv_windows[None],
        attention_probs=np.stack([head.attention_data for head in heads])[None],
    )


class RegressionRelevancePropagation:
    """Backward relevance decomposition of a trained causality-aware transformer.

    One model's face of :class:`StackedRelevancePropagation`: each method
    views its :class:`~repro.core.transformer.TransformerCache` with a
    model axis of one, runs the stacked propagation body and strips the
    axis from the result.

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
        relevance = np.zeros((batch, n_series, window))
        relevance[:, target, :] = 1.0
        return relevance

    def prepare(self, cache: TransformerCache) -> PreparedStackedPropagation:
        """Precompute everything that does not depend on the seed."""
        return self._fleet()._prepare(_model_axis_view(cache))

    def propagate(self, cache: TransformerCache, target: int) -> RelevanceResult:
        """Propagate a one-hot relevance on series ``target`` (Fig. 6a)."""
        return self._propagate(cache, self.one_hot_relevance(cache, target),
                               target)

    def propagate_targets(self, cache: TransformerCache) -> RelevanceResult:
        """Propagate every target series in one all-ones pass.

        Row ``g`` of each head's attention relevance and effect column ``g``
        of its kernel relevance equal :meth:`propagate` at ``target=g``
        (see the module docstring).
        """
        return self._propagate(cache, np.ones(cache.output.shape), None)

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
        total_attention = float(sum(head.attention.sum() for head in result.heads))
        if total_out == 0:
            return 0.0
        return abs(total_out - total_attention) / abs(total_out)
