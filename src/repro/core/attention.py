"""Multi-variate causal attention (paper Sec. 4.1.3, Eq. 5–7).

Each head projects the time-series embedding to queries and keys, forms the
``N×N`` attention matrix

.. math::

    A = \\mathrm{softmax}\\big( Q K^\\top / (τ \\sqrt{d_{QK}}) ⊙ M \\big)

with a learnable mask ``M`` controlling sparsity, and applies it to the value
tensor ``V`` — the multi-kernel causal convolution output — so that the
attention result for target series ``i`` aggregates, over sources ``j``, the
convolution of ``j``'s history computed *for* ``i``:

.. math::

    \\mathrm{A}_{i,t} = \\sum_j A_{ij} · V_{j,i,t}

The ``h`` head outputs are combined by a weight vector ``W_O ∈ R^h`` (Eq. 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn import tensor as T
from repro.nn.module import Module, ModuleList, Parameter
from repro.nn.tensor import Tensor


@dataclass
class AttentionHeadCache:
    """Intermediates of one attention head kept for interpretation.

    ``attention`` and ``head_output`` are the live autograd tensors (so the
    detector can read their gradients after a backward pass); the ``*_data``
    fields are plain numpy views used by relevance propagation.
    """

    attention: Tensor
    head_output: Tensor
    attention_data: np.ndarray
    head_output_data: np.ndarray
    scores_data: np.ndarray


class CausalAttentionHead(Module):
    """One head: Q/K projections, learnable mask, tempered softmax."""

    def __init__(self, n_series: int, d_model: int, d_qk: int, temperature: float,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.n_series = n_series
        self.d_qk = d_qk
        self.temperature = temperature
        rng = rng or init.default_rng()
        self.w_query = Parameter(init.he_normal((d_model, d_qk), rng))
        self.b_query = Parameter(init.zeros((d_qk,)))
        self.w_key = Parameter(init.he_normal((d_model, d_qk), rng))
        self.b_key = Parameter(init.zeros((d_qk,)))
        # Learnable attention mask M, initialised to ones (no masking).
        self.mask = Parameter(init.ones((n_series, n_series)))

    def forward(self, embedding: Tensor, values: Tensor) -> AttentionHeadCache:
        """Run the head on a batch.

        Parameters
        ----------
        embedding:
            ``(batch, N, d_model)`` output of the time-series embedding.
        values:
            ``(batch, N, N, T)`` output of the causal convolution
            (``values[b, j, i, t]`` = source ``j`` convolved for target ``i``).
        """
        query = embedding @ self.w_query + self.b_query
        key = embedding @ self.w_key + self.b_key
        scale = 1.0 / (self.temperature * np.sqrt(self.d_qk))
        scores = T.einsum("bnd,bmd->bnm", query, key) * scale
        masked = scores * self.mask
        attention = F.softmax(masked, axis=-1)
        attention.retain_grad()
        # head_output[b, i, t] = Σ_j attention[b, i, j] · values[b, j, i, t]
        head_output = T.einsum("bij,bjit->bit", attention, values)
        head_output.retain_grad()
        return AttentionHeadCache(
            attention=attention,
            head_output=head_output,
            attention_data=attention.data,
            head_output_data=head_output.data,
            scores_data=masked.data,
        )

    def l1_penalty(self) -> Tensor:
        """``‖M‖₁`` — the mask sparsity term of the loss (Eq. 9)."""
        return self.mask.abs().sum()


class MultiVariateCausalAttention(Module):
    """The full multi-head multi-variate causal attention block.

    The parameters live in per-head :class:`CausalAttentionHead` submodules
    (stable ``state_dict`` layout, and each head remains usable standalone);
    ``forward`` is the plain per-head loop.  The numpy engines
    (:mod:`repro.nn.inference`) run all heads as one batched GEMM chain.
    """

    def __init__(self, n_series: int, d_model: int, d_qk: int, n_heads: int,
                 temperature: float, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if n_heads < 1:
            raise ValueError("n_heads must be at least 1")
        self.n_series = n_series
        self.n_heads = n_heads
        self.d_qk = d_qk
        self.temperature = temperature
        rng = rng or init.default_rng()
        self.heads = ModuleList([
            CausalAttentionHead(n_series, d_model, d_qk, temperature, rng=rng)
            for _ in range(n_heads)
        ])
        # W_O ∈ R^h concatenates (weights) the head outputs (Eq. 7).
        self.w_output = Parameter(init.ones((n_heads,)) / n_heads)
        # The per-head parameter lists are fixed after construction; cache
        # them so the engines do not rebuild them every step.
        heads = list(self.heads)
        self.query_weights = [head.w_query for head in heads]
        self.query_biases = [head.b_query for head in heads]
        self.key_weights = [head.w_key for head in heads]
        self.key_biases = [head.b_key for head in heads]
        self.mask_parameters = [head.mask for head in heads]

    def forward(self, embedding: Tensor, values: Tensor
                ) -> Tuple[Tensor, List[AttentionHeadCache]]:
        """Return ``(combined, head_caches)``.

        Every head runs standalone (Eq. 5–6) and ``combined`` — shape
        ``(batch, N, T)`` — is their ``W_O``-weighted sum (Eq. 7).  The
        per-head :class:`AttentionHeadCache` list is what the causality
        detector reads.
        """
        caches = [head(embedding, values) for head in self.heads]
        head_outputs = T.stack([cache.head_output for cache in caches], axis=0)
        combined = T.einsum("hbit,h->bit", head_outputs, self.w_output)
        return combined, caches

    def mask_l1_penalty(self) -> Tensor:
        """``Σ_h ‖M_h‖₁`` — the mask sparsity term of the loss (Eq. 9)."""
        return sum(head.l1_penalty() for head in self.heads)
