"""Decomposition-based causality detector (paper Sec. 4.2, Fig. 6).

Given a trained causality-aware transformer, the detector:

1. runs the model on a batch of windows, recording the gradients of the
   per-head attention matrices and of the causal convolution kernel with
   respect to the summed prediction of the target series (Fig. 6b);
2. runs regression relevance propagation from a one-hot output relevance to
   the attention matrices and kernel (Fig. 6a);
3. combines them with gradient modulation, ``S = E_h[|∇f| ⊙ R]⁺`` (Eq. 19);
4. clusters the attention causal scores with k-means and keeps the top
   clusters as causes, reading each cause's delay from the kernel causal
   scores (Sec. 4.2.3, Eq. 20).

Steps 1–3 run once for all targets rather than once per target.  After the
attention is applied, the feed-forward and output layers act along the time
axis only, so effect rows never mix: a gradient or relevance pass seeded on
output row ``g`` is non-zero only in row ``g`` of ``A`` and effect column
``g`` of ``K``, and equals the matching slice of a pass seeded with ones on
every row (both are linear in the seed, row by row).  The detector
therefore seeds ones once, and Eq. 19 reads target ``g``'s scores from row
``g`` of the full maps.  The one exception is the single-kernel ablation,
whose shared kernel gradient sums over both series axes; the engines take
that sum per effect column, which is exactly the per-target sum.

The constructor flags reproduce the paper's Table 3 ablations:
``use_interpretation=False`` reads the raw attention/kernel weights instead
of interpreting the model; ``use_relevance=False`` keeps only gradients;
``use_gradient=False`` keeps only relevance; ``use_bias=False`` removes the
bias term from the RRP denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.clustering import select_top_scores
from repro.core.config import CausalFormerConfig
from repro.core.relevance import RelevanceResult, StackedRelevancePropagation
from repro.core.transformer import CausalityAwareTransformer
from repro.graph.causal_graph import TemporalCausalGraph
from repro.nn.inference import StackedInferenceEngine


@dataclass
class CausalScores:
    """Causal scores for every (target, source) pair.

    ``attention[i, j]`` scores the relation "series ``j`` causes series
    ``i``"; ``kernel[i, j, τ]`` scores kernel position ``τ`` of that relation
    and is used only to read off the causal delay.
    """

    attention: np.ndarray   # (N, N): [target, source]
    kernel: np.ndarray      # (N, N, T): [target, source, kernel position]

    @property
    def n_series(self) -> int:
        return self.attention.shape[0]

    @property
    def window(self) -> int:
        return self.kernel.shape[-1]


def _combine(shape: Tuple[int, int, int],
             attention_grads: Optional[np.ndarray],
             kernel_grads: Optional[np.ndarray],
             relevance: Optional[RelevanceResult]) -> CausalScores:
    """Gradient modulation ``S = E_h[|∇f| ⊙ R]⁺`` (Eq. 19), all rows.

    Row ``i`` of the attention map and effect column ``i`` of the kernel
    map (``[source, target, τ]``) hold target ``i``'s scores.  A missing
    factor (the w/o-gradient or w/o-relevance ablation) counts as ones.
    ``shape`` is ``(heads, series, window)``.
    """
    n_heads, n_series, window = shape
    attention_accumulator = np.zeros((n_series, n_series))
    for head_index in range(n_heads):
        if relevance is None:
            attention_term = np.abs(attention_grads[head_index])
        elif attention_grads is None:
            attention_term = relevance.attention[head_index]
        else:
            attention_term = (np.abs(attention_grads[head_index])
                              * relevance.attention[head_index])
        attention_accumulator += attention_term.mean(axis=0)
    attention_scores = np.maximum(attention_accumulator / n_heads, 0.0)
    # The kernel gradient is one tensor for every head, so the head mean
    # of |∇K| ⊙ R_h(K) is |∇K| ⊙ Σ_h R_h(K) / h.
    kernel_scores = np.ones((n_series, n_series, window))
    if kernel_grads is not None:
        kernel_scores *= np.abs(kernel_grads)
    if relevance is not None:
        kernel_scores *= relevance.kernel
        kernel_scores /= n_heads
    np.maximum(kernel_scores, 0.0, out=kernel_scores)
    # The paper selects S(A)[i]_{i,:} (causes of target i) and
    # S(K)[i]_{:,i,:} (kernel scores of its sources): row i and column i.
    return CausalScores(
        attention=attention_scores,
        kernel=np.ascontiguousarray(kernel_scores.transpose(1, 0, 2)))


class DecompositionCausalityDetector:
    """Interpret a trained causality-aware transformer into causal scores."""

    def __init__(self, model: CausalityAwareTransformer,
                 config: Optional[CausalFormerConfig] = None,
                 use_interpretation: bool = True,
                 use_relevance: bool = True,
                 use_gradient: bool = True,
                 use_bias: bool = True) -> None:
        self.model = model
        self.config = config or model.config
        self.use_interpretation = use_interpretation
        self.use_relevance = use_relevance
        self.use_gradient = use_gradient
        self.use_bias = use_bias
        if not use_relevance and not use_gradient:
            raise ValueError("at least one of relevance or gradients must be used")
        # The fused no-autograd engine and relevance propagation over the
        # model itself, in its own dtype, as a fleet of one; the engine
        # re-reads the live weights and reuses its scratch arena on every
        # scoring call.
        self._fleet = StackedInferenceEngine([self.model])
        self._relevance = StackedRelevancePropagation(
            use_bias=use_bias, epsilon=self.config.relevance_epsilon)

    # ------------------------------------------------------------------ #
    # Causal scores
    # ------------------------------------------------------------------ #
    def compute_scores(self, windows: np.ndarray) -> CausalScores:
        """Causal scores of every potential relation from a batch of windows.

        The interpretation runs entirely on the fused no-autograd engine:
        the training forward, one hand-derived all-ones backward for the
        Fig. 6b gradients and one all-ones relevance propagation, shared by
        every target series (see the module docstring).  It matches one
        autograd pass per target on the reference forward up to
        floating-point rounding.
        """
        windows = self._checked_windows(windows)
        return _interpret([self], self._fleet, self._relevance, [windows])[0]

    def _checked_windows(self, windows: np.ndarray) -> np.ndarray:
        """``windows`` as a ``(B, N, T)`` batch matching the model."""
        windows = np.asarray(windows)
        if windows.ndim == 2:
            windows = windows[None, :, :]
        if windows.shape[1:] != (self.config.n_series, self.config.window):
            raise ValueError(
                f"windows of shape {windows.shape[1:]} do not match the model "
                f"({self.config.n_series} series, window {self.config.window})"
            )
        return windows

    def _raw_weight_scores(self, attention_probs: np.ndarray) -> CausalScores:
        """The "w/o interpretation" ablation: read model weights directly.

        Scores are float64 whatever the model dtype, as the interpreting
        paths' are.
        """
        # Mean ``(h, B, N, N)`` attention over heads and batch;
        # attention[b, i, j] already has target as the row index, matching
        # CausalScores' convention.
        attention = attention_probs.mean(axis=0, dtype=np.float64) \
            .mean(axis=0)
        kernel = np.abs(self.model.convolution.effective_kernel().data) \
            .astype(np.float64, copy=False)
        # kernel[source, target, τ] → scores[target, source, τ]
        kernel_scores = np.transpose(kernel, (1, 0, 2))
        return CausalScores(attention=attention, kernel=kernel_scores)

    # ------------------------------------------------------------------ #
    # Causal graph construction (Sec. 4.2.3)
    # ------------------------------------------------------------------ #
    def build_graph(self, scores: CausalScores,
                    series_names: Optional[list] = None) -> TemporalCausalGraph:
        """Cluster the causal scores and assemble the temporal causal graph."""
        n_series = scores.n_series
        window = scores.window
        rng = np.random.default_rng(self.config.seed)
        graph = TemporalCausalGraph(n_series, names=series_names)
        for target in range(n_series):
            row = scores.attention[target]
            keep = select_top_scores(row, self.config.n_clusters,
                                     self.config.top_clusters, rng=rng)
            for source in np.flatnonzero(keep):
                source = int(source)
                kernel_profile = scores.kernel[target, source]
                position = int(np.argmax(kernel_profile))
                delay = (window - 1) - position
                if source == target:
                    # The self-convolution is right-shifted by one slot, so
                    # kernel position T-1 corresponds to a delay of 1.
                    delay += 1
                    delay = max(delay, 1)
                else:
                    delay = max(delay, 0)
                graph.add_edge(source, target, delay)
        return graph

    def detect(self, windows: np.ndarray,
               series_names: Optional[list] = None
               ) -> Tuple[TemporalCausalGraph, CausalScores]:
        """Convenience: compute scores and build the causal graph."""
        scores = self.compute_scores(windows)
        graph = self.build_graph(scores, series_names=series_names)
        return graph, scores


def compute_scores_group(detectors: Sequence[DecompositionCausalityDetector],
                         windows_list: Sequence[np.ndarray],
                         arena=None) -> List[CausalScores]:
    """Causal scores for a whole group of same-architecture detectors at once.

    The stacked analogue of :meth:`DecompositionCausalityDetector
    .compute_scores` for a batched sweep group: one stacked forward,
    one stacked all-ones backward and one model-axis all-ones relevance
    propagation, each shared by every model *and* target — instead of one
    full interpretation per job.  Every returned :class:`CausalScores` is
    **bit-identical** to calling ``detectors[m].compute_scores
    (windows_list[m])`` alone, across all Table 3 ablations (the detectors
    must share their ablation flags and configuration; the window sets must
    share one shape).

    ``arena`` optionally hands the stacked engine an existing
    :class:`~repro.nn.inference.ScratchArena` — the batched sweep passes its
    trainer's engine arena so training, validation and interpretation share
    one buffer pool.  Safe because the phases run sequentially and every
    call site fully overwrites the buffers it reads before reading them.
    Each detector interprets its model in that model's dtype, re-reading
    the live weights on every call.
    """
    detectors = list(detectors)
    if not detectors:
        raise ValueError("need at least one detector")
    if len(detectors) != len(windows_list):
        raise ValueError("one window set per detector required")
    first = detectors[0]
    flags = (first.use_interpretation, first.use_relevance,
             first.use_gradient, first.use_bias)
    for detector in detectors[1:]:
        if (detector.use_interpretation, detector.use_relevance,
                detector.use_gradient, detector.use_bias) != flags:
            raise ValueError(
                "grouped interpretation requires identical detector flags")
        # The stabiliser is read from the first detector only; a silent
        # mismatch would compute every other detector's relevance with the
        # wrong epsilon (non-bit-identical to its own compute_scores).
        if detector.config.relevance_epsilon \
                != first.config.relevance_epsilon:
            raise ValueError(
                "grouped interpretation requires one relevance_epsilon")

    prepared_windows = [detector._checked_windows(windows)
                        for detector, windows in zip(detectors, windows_list)]
    if len({windows.shape for windows in prepared_windows}) != 1:
        raise ValueError(
            "grouped interpretation requires same-shape window sets")

    return _interpret(
        detectors,
        StackedInferenceEngine([detector.model for detector in detectors],
                               arena=arena),
        StackedRelevancePropagation(use_bias=first.use_bias,
                                    epsilon=first.config.relevance_epsilon),
        prepared_windows)


def _interpret(detectors: Sequence[DecompositionCausalityDetector],
               engine: StackedInferenceEngine,
               relevance: StackedRelevancePropagation,
               windows_list: Sequence[np.ndarray]) -> List[CausalScores]:
    """Causal scores of every model of one fleet, interpreted at once.

    The scoring body shared by :meth:`DecompositionCausalityDetector
    .compute_scores` (a fleet of one) and :func:`compute_scores_group`:
    one forward, then the all-ones gradient and relevance passes, each only
    when the detectors' ablation flags use it.
    """
    forward = engine.interpretation_forward(windows_list)
    first = detectors[0]
    if not first.use_interpretation:
        return [detector._raw_weight_scores(probs)
                for detector, probs in zip(detectors, forward.attention_probs)]
    count = len(detectors)
    attention_grads, kernel_grads = \
        engine.interpretation_gradients(forward) if first.use_gradient \
        else ([None] * count, [None] * count)
    relevances = relevance.propagate_targets(forward) if first.use_relevance \
        else [None] * count
    shape = (forward.attention_probs.shape[1],) + forward.output.shape[2:]
    return [_combine(shape, attention, kernel, result)
            for attention, kernel, result
            in zip(attention_grads, kernel_grads, relevances)]
