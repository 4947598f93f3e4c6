"""The causality-aware transformer (paper Sec. 4.1, Fig. 3a).

The model is trained on a one-step-ahead prediction task over sliding windows
of the input time series.  Its forward pass produces, alongside the
prediction, a :class:`TransformerCache` holding every intermediate the
decomposition-based causality detector needs: the per-head attention
matrices, the causal-convolution values (pre- and post- self-shift) and the
feed-forward activations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.core.attention import AttentionHeadCache, MultiVariateCausalAttention
from repro.core.config import CausalFormerConfig
from repro.core.convolution import MultiKernelCausalConvolution
from repro.core.embedding import TimeSeriesEmbedding
from repro.core.feedforward import FeedForward, OutputLayer
from repro.nn import functional as F
from repro.nn import init
from repro.nn.inference import InferenceEngine
from repro.nn.module import Module
from repro.nn.tensor import Tensor


@dataclass
class TransformerCache:
    """Every intermediate needed by regression relevance propagation."""

    inputs: np.ndarray                       # (B, N, T)
    embedding: np.ndarray                    # (B, N, d)
    values_pre_shift: np.ndarray             # (B, N, N, T) before the diagonal shift
    values: np.ndarray                       # (B, N, N, T) after the diagonal shift
    conv_windows: np.ndarray                 # (B, N, T, T) padded history windows
    head_caches: List[AttentionHeadCache] = field(default_factory=list)
    attention_combined: np.ndarray = None    # (B, N, T)
    ffn_hidden: np.ndarray = None            # (B, N, d_ffn) pre-activation
    ffn_activated: np.ndarray = None         # (B, N, d_ffn)
    ffn_output: np.ndarray = None            # (B, N, T)
    output: np.ndarray = None                # (B, N, T)
    values_tensor: object = None             # live Tensor for gradient access


class CausalityAwareTransformer(Module):
    """Embedding → multi-kernel causal convolution → causal attention → FFN → output."""

    def __init__(self, config: CausalFormerConfig) -> None:
        super().__init__()
        if config.n_series is None:
            raise ValueError("config.n_series must be set before building the model")
        self.config = config
        rng = init.default_rng(config.seed)
        n, t = config.n_series, config.window
        self.embedding = TimeSeriesEmbedding(t, config.d_model, rng=rng)
        self.convolution = MultiKernelCausalConvolution(
            n, t, single_kernel=config.single_kernel, rng=rng)
        self.attention = MultiVariateCausalAttention(
            n, config.d_model, config.d_qk, config.n_heads, config.temperature, rng=rng)
        self.feed_forward = FeedForward(t, config.d_ffn, rng=rng)
        self.output_layer = OutputLayer(t, rng=rng)
        self._inference: Optional[InferenceEngine] = None

    # ------------------------------------------------------------------ #
    # Forward
    # ------------------------------------------------------------------ #
    def forward(self, x: Tensor) -> Tuple[Tensor, TransformerCache]:
        """Predict each series over the window; return ``(prediction, cache)``.

        This is the plain autograd reference of Eqs. 2–8: the submodules
        and generic :class:`Tensor` ops, one equation at a time, with every
        intermediate recorded in the :class:`TransformerCache`.  Training,
        validation and interpretation run on the numpy engines instead
        (:meth:`inference_engine`,
        :class:`~repro.nn.training_engine.TrainingEngine`); the tests check
        those engines against this forward.

        Parameters
        ----------
        x:
            ``(batch, N, T)`` window batch (a single ``(N, T)`` window is
            promoted to a batch of one).
        """
        dtype = self.embedding.weight.data.dtype
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=dtype))
        elif x.data.dtype != dtype and not x.requires_grad:
            # Keep the whole graph in the model dtype: a mixed-precision
            # input would silently promote every op to float64.
            x = Tensor(x.data.astype(dtype))
        if x.ndim == 2:
            x = x.unsqueeze(0)
        embedding = self.embedding(x)                                  # Eq. 2
        values_pre = self.convolution.convolve(x)                      # Eq. 3
        # The detector reads values.grad (Fig. 6b), so keep it.
        values = F.diagonal_right_shift(values_pre).retain_grad()      # Eq. 4
        combined, head_caches = self.attention(embedding, values)      # Eq. 5–7
        ffn = self.feed_forward
        ffn_hidden = F.linear(combined, ffn.w1, ffn.b1)                # Eq. 8
        ffn_activated = F.leaky_relu(ffn_hidden, ffn.negative_slope)
        ffn_output = F.linear(ffn_activated, ffn.w2, ffn.b2)
        prediction = self.output_layer(ffn_output)
        cache = TransformerCache(
            inputs=x.data,
            embedding=embedding.data,
            values_pre_shift=values_pre.data,
            values=values.data,
            conv_windows=self.convolution.convolution_windows(x.data),
            head_caches=head_caches,
            attention_combined=combined.data,
            ffn_hidden=ffn_hidden.data,
            ffn_activated=ffn_activated.data,
            ffn_output=ffn_output.data,
            output=prediction.data,
            values_tensor=values,
        )
        return prediction, cache

    def inference_engine(self) -> InferenceEngine:
        """The model's fused no-autograd inference engine (lazily built)."""
        if self._inference is None:
            self._inference = InferenceEngine(self)
        return self._inference

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Numpy-in / numpy-out prediction without building the autograd graph.

        Runs on the fused inference engine — equal to :meth:`forward` up to
        floating-point rounding, with zero steady-state allocation.
        """
        return self.inference_engine().predict(x)

    # ------------------------------------------------------------------ #
    # Loss (paper Eq. 9)
    # ------------------------------------------------------------------ #
    def loss(self, prediction: Tensor, target: Tensor) -> Tensor:
        """MSE over slots ``2..T`` plus the L1 kernel/mask penalties."""
        if not isinstance(target, Tensor):
            target = Tensor(np.asarray(target, dtype=prediction.data.dtype))
        elif target.data.dtype != prediction.data.dtype and not target.requires_grad:
            target = Tensor(target.data.astype(prediction.data.dtype))
        loss = F.mse_loss(prediction[..., 1:], target[..., 1:])
        if self.config.lambda_kernel > 0:
            loss = loss + self.config.lambda_kernel * self.convolution.l1_penalty()
        if self.config.lambda_mask > 0:
            loss = loss + self.config.lambda_mask * self.attention.mask_l1_penalty()
        return loss

    def prediction_error(self, x: np.ndarray) -> float:
        """Plain MSE (no penalties) of the model on a batch of windows."""
        prediction = self.predict(x)
        return float(np.mean((prediction[:, :, 1:] - np.asarray(x)[:, :, 1:]) ** 2))
