"""Per-target interpretation: the detector as the paper states it, for tests.

The paper scores target ``g`` with one gradient pass and one relevance pass
seeded on output row ``g`` alone (Fig. 6), and combines them per target
(Eq. 19).  The detector runs a single all-ones pass instead and reads row
``g``.  This module keeps the one-hot, per-target form — the same
arithmetic with a leading target axis ``G``, written against the model's
weights and the interpretation cache alone — so the tests can assert that
the one-pass scores, gradients and relevance equal it bit for bit.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.detector import CausalScores
from repro.core.relevance import HeadRelevance, stabilize


def one_hot_seed(shape: Tuple[int, int, int], targets: Sequence[int],
                 dtype=np.float64) -> np.ndarray:
    """``(G, B, N, T)`` output seeds, ones on row ``targets[g]`` of slice g."""
    seed = np.zeros((len(targets),) + tuple(shape), dtype=dtype)
    for index, target in enumerate(targets):
        seed[index, :, target, :] = 1.0
    return seed


def per_target_gradients(model, forward, targets: Sequence[int]
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """The engines' ``interpretation_gradients`` seeded one-hot per target.

    ``forward`` is one model's ``InterpretationForward`` (of ``model``).
    Returns ``(G, h, B, N, N)`` attention and ``(G, N, N, K)`` kernel
    gradients (``(G, 1, 1, K)`` for the single-kernel ablation, summed over
    both series axes as the autograd unbroadcast does).
    """
    cache = forward.cache
    batch, n, window = cache.output.shape
    diag = np.arange(n)
    grad_pred = one_hot_seed(cache.output.shape, targets, cache.output.dtype)
    grad_ffn = grad_pred @ model.output_layer.weight.data.T
    grad_hidden = grad_ffn @ model.feed_forward.w2.data.T
    grad_hidden *= forward.slope
    grad_combined = grad_hidden @ model.feed_forward.w1.data.T
    grad_heads = np.einsum("gbit,h->ghbit", grad_combined,
                           model.attention.w_output.data)
    grad_biht = np.ascontiguousarray(grad_heads.transpose(0, 2, 3, 1, 4))
    grad_a = grad_biht @ forward.v_bijt.transpose(0, 1, 3, 2)
    attention_grads = grad_a.transpose(0, 3, 1, 2, 4)
    grad_v = forward.a_bihj.transpose(0, 1, 3, 2) @ grad_biht
    grad_values = np.ascontiguousarray(grad_v.transpose(0, 1, 3, 2, 4),
                                       dtype=cache.values.dtype)
    diagonal = grad_values[:, :, diag, diag, :]
    grad_values[:, :, diag, diag, :-1] = diagonal[..., 1:]
    grad_values[:, :, diag, diag, -1] = 0.0
    grad_values = grad_values * model.convolution._scale_array
    flat = np.ascontiguousarray(grad_values.transpose(0, 2, 3, 1, 4)) \
        .reshape(len(targets), n, n, batch * window)
    kernel_grads = flat @ forward.windows_flat
    kernel_dtype = model.convolution.kernel.data.dtype
    if kernel_grads.dtype != kernel_dtype:
        kernel_grads = np.asarray(kernel_grads, dtype=kernel_dtype)
    if model.convolution.single_kernel:
        kernel_grads = kernel_grads.sum(axis=(1, 2), keepdims=True)
    return attention_grads, kernel_grads


def rrp_denominators(model, cache, use_bias: bool, epsilon: float) -> dict:
    """The stabilised RRP denominators (Eq. 15–18) of one cache."""
    def denominator(outputs, bias):
        return stabilize(outputs if use_bias else outputs - bias, epsilon)

    return {
        "output": denominator(cache.output, model.output_layer.bias.data),
        "ffn_output": denominator(cache.ffn_output,
                                  model.feed_forward.b2.data),
        "hidden": denominator(cache.ffn_hidden, model.feed_forward.b1.data),
        "combined": stabilize(cache.attention_combined, epsilon),
        "heads": [stabilize(head.head_output_data, epsilon)
                  for head in cache.head_caches],
        "values_pre": stabilize(cache.values_pre_shift, epsilon),
    }


def per_target_relevance(rrp, cache, targets: Sequence[int]
                         ) -> List[List[HeadRelevance]]:
    """``RegressionRelevancePropagation`` seeded one-hot per target.

    Returns ``heads[g][h]``: the relevance reaching head ``h`` from the
    seed on row ``targets[g]``.
    """
    model = rrp.model
    d = rrp_denominators(model, cache, rrp.use_bias, rrp.epsilon)
    w_output = model.attention.w_output.data
    kernel = model.convolution.effective_kernel().data
    scale = 1.0 / np.arange(1, model.config.window + 1, dtype=float)
    scaled_windows = cache.conv_windows * scale[None, None, :, None]
    diag = np.arange(cache.output.shape[1])
    seed = one_hot_seed(cache.output.shape, targets)
    relevance_ffn_out = cache.ffn_output * (
        (seed / d["output"]) @ model.output_layer.weight.data.T)
    relevance_activated = cache.ffn_activated * (
        (relevance_ffn_out / d["ffn_output"])
        @ model.feed_forward.w2.data.T)
    relevance_combined = cache.attention_combined * (
        (relevance_activated / d["hidden"])
        @ model.feed_forward.w1.data.T)
    per_head = []
    for head_index, head_cache in enumerate(cache.head_caches):
        weighted_head = head_cache.head_output_data * w_output[head_index]
        relevance_head = (weighted_head * relevance_combined
                          / d["combined"])
        attention = head_cache.attention_data
        ratio = relevance_head / d["heads"][head_index]
        relevance_attention = attention * np.einsum(
            "bjit,gbit->gbij", cache.values, ratio)
        relevance_values = np.einsum(
            "bij,bjit,gbit->gbjit", attention, cache.values, ratio)
        pre_shift = relevance_values.copy()
        pre_shift[:, :, diag, diag, :-1] = relevance_values[:, :, diag, diag, 1:]
        pre_shift[:, :, diag, diag, -1] = 0.0
        relevance_kernel = kernel * np.einsum(
            "bitk,gbijt->gijk", scaled_windows, pre_shift / d["values_pre"])
        per_head.append((relevance_attention, relevance_values,
                         relevance_kernel))
    return [[HeadRelevance(attention=attention[index], values=values[index],
                           kernel=kernel[index])
             for attention, values, kernel in per_head]
            for index in range(len(targets))]


def per_target_scores(detector, windows: np.ndarray) -> CausalScores:
    """``detector.compute_scores`` with one seeded pass per target series.

    Only the interpreting detectors (``use_interpretation=True``) have a
    per-target form; the raw-weight ablation has no passes to seed.
    """
    windows = np.asarray(windows, dtype=float)
    if windows.ndim == 2:
        windows = windows[None]
    detector._sync_interpretation_model()
    forward = detector._engine.interpretation_forward(windows)
    cache = forward.cache
    _batch, n_series, window = cache.output.shape
    targets = list(range(n_series))
    if detector.use_gradient:
        attention_grads, kernel_grads = per_target_gradients(
            detector.model, forward, targets)
    if detector.use_relevance:
        relevances = per_target_relevance(detector._rrp, cache, targets)
    n_heads = len(cache.head_caches)
    attention_scores = np.zeros((n_series, n_series))
    kernel_scores = np.zeros((n_series, n_series, window))
    for target in targets:
        attention_sum = np.zeros((n_series, n_series))
        kernel_sum = np.zeros((n_series, n_series, window))
        for head_index, head_cache in enumerate(cache.head_caches):
            if detector.use_relevance:
                relevance_attention = relevances[target][head_index].attention
                relevance_kernel = relevances[target][head_index].kernel
            else:
                relevance_attention = np.ones_like(head_cache.attention_data)
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
