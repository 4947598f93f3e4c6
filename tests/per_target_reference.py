"""Per-target interpretation: the detector as the paper states it, for tests.

The paper scores target ``g`` with one gradient pass and one relevance pass
seeded on output row ``g`` alone (Fig. 6), and combines them per target
(Eq. 19).  The detector runs a single all-ones pass instead and reads row
``g``.  This module keeps the one-hot, per-target form — the same
arithmetic with a leading target axis ``G``, written against the model's
weights and one row of an interpretation forward in the engine's layout
(:class:`~repro.nn.inference.StackedInterpretationForward`), with one
kernel contraction per head — so the tests can assert that the one-pass
gradients and attention relevance equal it bit for bit, and that the
head-summed kernel relevance equals the sum of its per-head kernels to
rounding.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.core.detector import CausalScores
from repro.core.relevance import stabilize
from repro.nn.inference import InferenceEngine


class HeadRelevance(NamedTuple):
    """Relevance reaching one attention head from one seed."""

    attention: np.ndarray   # (B, N, N) — of the attention matrix
    kernel: np.ndarray      # (N, N, T) — of the convolution kernel


def one_hot_seed(shape: Tuple[int, int, int], targets: Sequence[int],
                 dtype=np.float64) -> np.ndarray:
    """``(G, B, N, T)`` output seeds, ones on row ``targets[g]`` of slice g."""
    seed = np.zeros((len(targets),) + tuple(shape), dtype=dtype)
    for index, target in enumerate(targets):
        seed[index, :, target, :] = 1.0
    return seed


def per_target_gradients(model, forward, targets: Sequence[int], row: int = 0
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """The engines' ``interpretation_gradients`` seeded one-hot per target.

    ``forward`` is an interpretation forward whose row ``row`` is
    ``model``'s.  Returns ``(G, h, B, N, N)`` attention and
    ``(G, N, N, K)`` kernel gradients (``(G, 1, 1, K)`` for the
    single-kernel ablation, summed over both series axes as the autograd
    unbroadcast does).
    """
    output = forward.output[row]
    batch, n, window = output.shape
    count = len(targets)
    seed = one_hot_seed((batch, n, window), targets, output.dtype)
    grad_ffn = seed.reshape(count, batch * n, window) \
        @ model.output_layer.weight.data.T
    grad_hidden = grad_ffn @ model.feed_forward.w2.data.T
    grad_hidden *= forward.slope[row]
    grad_combined = grad_hidden @ model.feed_forward.w1.data.T
    grad_heads = grad_combined.reshape(count, batch, n, 1, window) \
        * model.attention.w_output.data[:, None]                # (G,B,i,h,T)
    grad_heads_ib = grad_heads.swapaxes(1, 2)                   # (G,i,B,h,T)
    tsbt = forward.tsbt[row]                                    # (i,j,B,T)
    attention_grads = (grad_heads_ib @ tsbt.transpose(0, 2, 3, 1)) \
        .transpose(0, 3, 2, 1, 4)                               # (G,h,B,i,j)
    grad_tsbt = (forward.attention_probs[row].transpose(2, 1, 3, 0)
                 @ grad_heads_ib).swapaxes(2, 3)                # (G,i,j,B,T)
    diag = np.arange(n)
    grad_tsbt[:, diag, diag, :, :-1] = grad_tsbt[:, diag, diag, :, 1:]
    grad_tsbt[:, diag, diag, :, -1] = 0.0
    grad_stbt = grad_tsbt.reshape(count, n, n, batch * window) \
        .transpose(0, 2, 1, 3)
    grad_stbt *= np.tile(model.convolution._scale_array, batch)
    kernel_grads = grad_stbt @ forward.windows_flat[row]        # (G,j,i,K)
    kernel_dtype = model.convolution.kernel.data.dtype
    if kernel_grads.dtype != kernel_dtype:
        kernel_grads = np.asarray(kernel_grads, dtype=kernel_dtype)
    if model.convolution.single_kernel:
        kernel_grads = kernel_grads.sum(axis=(1, 2), keepdims=True)
    return attention_grads, kernel_grads


def per_target_relevance(model, forward, targets: Sequence[int],
                         use_bias: bool = True, epsilon: float = 1e-9,
                         row: int = 0) -> List[List[HeadRelevance]]:
    """Regression relevance propagation seeded one-hot per target.

    ``forward`` is an interpretation forward whose row ``row`` is
    ``model``'s.  Returns ``heads[g][h]``: the relevance reaching head
    ``h`` from the seed on row ``targets[g]``.
    """
    output = forward.output[row]
    batch, n_series, window = output.shape
    diag = np.arange(n_series)

    def denominator(outputs, bias):
        return stabilize(outputs if use_bias else outputs - bias, epsilon)

    tsbt = forward.tsbt[row]                                    # (i,j,B,T)
    values_pre = tsbt.copy()
    values_pre[diag, diag] = forward.pre_shift[row]
    d_values_pre = stabilize(values_pre, epsilon)
    heads = forward.heads[row]                                  # (B,i,h,T)
    d_heads = stabilize(heads, epsilon)
    d_combined = stabilize(forward.combined[row], epsilon)
    w_output = model.attention.w_output.data
    kernel = model.convolution.effective_kernel().data
    scale = 1.0 / np.arange(1, window + 1, dtype=float)
    scaled_windows = forward.windows_flat[row].reshape(
        n_series, batch, window, -1) * scale[:, None]           # (j,B,T,K)

    seed = one_hot_seed(output.shape, targets)
    relevance_ffn_out = forward.ffn_output[row] * (
        (seed / denominator(output, model.output_layer.bias.data))
        @ model.output_layer.weight.data.T)
    relevance_activated = forward.activated[row] * (
        (relevance_ffn_out / denominator(forward.ffn_output[row],
                                         model.feed_forward.b2.data))
        @ model.feed_forward.w2.data.T)
    relevance_combined = forward.combined[row] * (
        (relevance_activated / denominator(forward.hidden[row],
                                           model.feed_forward.b1.data))
        @ model.feed_forward.w1.data.T)
    per_head = []
    for head_index in range(forward.attention_probs.shape[1]):
        weighted_head = heads[:, :, head_index] * w_output[head_index]
        relevance_head = weighted_head * relevance_combined / d_combined
        attention = forward.attention_probs[row, head_index]    # (B,i,j)
        ratio = relevance_head / d_heads[:, :, head_index]
        relevance_attention = attention * np.einsum(
            "ijbt,gbit->gbij", tsbt, ratio)
        relevance_values = np.einsum(
            "bij,ijbt,gbit->gijbt", attention, tsbt, ratio)
        pre_shift = relevance_values.copy()
        pre_shift[:, diag, diag, :, :-1] = \
            relevance_values[:, diag, diag, :, 1:]
        pre_shift[:, diag, diag, :, -1] = 0.0
        relevance_kernel = kernel * np.einsum(
            "jbtk,gijbt->gjik", scaled_windows, pre_shift / d_values_pre)
        per_head.append((relevance_attention, relevance_kernel))
    return [[HeadRelevance(attention=attention[index], kernel=kernel[index])
             for attention, kernel in per_head]
            for index in range(len(targets))]


def per_target_scores(detector, windows: np.ndarray) -> CausalScores:
    """``detector.compute_scores`` with one seeded pass per target series.

    Only the interpreting detectors (``use_interpretation=True``) have a
    per-target form; the raw-weight ablation has no passes to seed.
    """
    windows = np.asarray(windows, dtype=float)
    if windows.ndim == 2:
        windows = windows[None]
    model = detector.model
    forward = InferenceEngine(model).interpretation_forward(windows)
    _models, n_heads, batch, n_series, _ = forward.attention_probs.shape
    window = forward.output.shape[-1]
    targets = list(range(n_series))
    if detector.use_gradient:
        attention_grads, kernel_grads = per_target_gradients(
            model, forward, targets)
    if detector.use_relevance:
        relevances = per_target_relevance(
            model, forward, targets, use_bias=detector.use_bias,
            epsilon=detector.config.relevance_epsilon)
    attention_scores = np.zeros((n_series, n_series))
    kernel_scores = np.zeros((n_series, n_series, window))
    for target in targets:
        attention_sum = np.zeros((n_series, n_series))
        kernel_sum = np.zeros((n_series, n_series, window))
        for head_index in range(n_heads):
            if detector.use_relevance:
                relevance_attention = relevances[target][head_index].attention
                relevance_kernel = relevances[target][head_index].kernel
            else:
                relevance_attention = np.ones(
                    (batch, n_series, n_series), forward.attention_probs.dtype)
                relevance_kernel = np.ones((n_series, n_series, window))
            if detector.use_gradient:
                attention_term = (np.abs(attention_grads[target, head_index])
                                  * relevance_attention)
                kernel_term = np.broadcast_to(
                    np.abs(kernel_grads[target]),
                    (n_series, n_series, window)) * relevance_kernel
            else:
                attention_term, kernel_term = relevance_attention, \
                    relevance_kernel
            attention_sum += attention_term.mean(axis=0)
            kernel_sum += kernel_term
        attention_scores[target] = np.maximum(attention_sum / n_heads,
                                              0.0)[target, :]
        kernel_scores[target] = np.maximum(kernel_sum / n_heads,
                                           0.0)[:, target, :]
    return CausalScores(attention=attention_scores, kernel=kernel_scores)
