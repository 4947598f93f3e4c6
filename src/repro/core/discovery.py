"""End-to-end CausalFormer: the public facade of this reproduction.

Usage::

    from repro.core import CausalFormer, fast_preset
    from repro.data import diamond_dataset

    dataset = diamond_dataset(seed=0)
    model = CausalFormer(fast_preset())
    graph = model.discover(dataset)
    print(graph.edges)

``fit`` trains the causality-aware transformer on the prediction task
(Sec. 4.1), ``discover`` additionally runs the decomposition-based causality
detector (Sec. 4.2) and returns the temporal causal graph.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.core.config import CausalFormerConfig, fast_preset
from repro.core.detector import CausalScores, DecompositionCausalityDetector
from repro.core.training import Trainer, TrainingHistory
from repro.core.transformer import CausalityAwareTransformer
from repro.data.base import TimeSeriesDataset
from repro.data.windows import zscore_normalize
from repro.graph.causal_graph import TemporalCausalGraph

DataLike = Union[TimeSeriesDataset, np.ndarray]


class CausalFormer:
    """Interpretable transformer for temporal causal discovery.

    Parameters
    ----------
    config:
        Model and training configuration; a small fast preset is used when
        omitted.  ``config.n_series`` is filled in from the data at fit time.
    use_interpretation / use_relevance / use_gradient / use_bias:
        Detector ablation switches (paper Table 3); all true for the full
        method.
    normalize:
        Z-score normalise each series before windowing (recommended — the
        transformer's MSE loss otherwise favours high-variance series).

    Input series must be finite; a NaN or ±inf raises ``ValueError``.  A
    constant (zero-variance) series is accepted: z-scoring maps it to exact
    zeros.  Under the interpreting detector (``use_interpretation=True``)
    its attention score as a source is then exactly 0 in every row, and a
    zero score never creates an edge, so it gets no outgoing edge; it is
    still scored as a target.  The raw-weight ablation
    (``use_interpretation=False``) reads the softmax attention, which is
    positive for every source, so there it is scored like any other series.
    """

    #: name used by the experiment harness result tables
    name = "causalformer"

    def __init__(self, config: Optional[CausalFormerConfig] = None, *,
                 use_interpretation: bool = True,
                 use_relevance: bool = True,
                 use_gradient: bool = True,
                 use_bias: bool = True,
                 normalize: bool = True) -> None:
        self.config = config or fast_preset()
        self.use_interpretation = use_interpretation
        self.use_relevance = use_relevance
        self.use_gradient = use_gradient
        self.use_bias = use_bias
        self.normalize = normalize

        self.model_: Optional[CausalityAwareTransformer] = None
        self.history_: Optional[TrainingHistory] = None
        self.scores_: Optional[CausalScores] = None
        self.graph_: Optional[TemporalCausalGraph] = None
        self._fitted_values: Optional[np.ndarray] = None
        self._series_names = None

    # ------------------------------------------------------------------ #
    # Data handling
    # ------------------------------------------------------------------ #
    def _extract_values(self, data: DataLike
                        ) -> Tuple[np.ndarray, Optional[List[str]]]:
        """``(values, series_names)`` of ``data``, checked and normalised.

        Leaves the fitted state alone: :meth:`prepare_fit` adopts the names.
        """
        if isinstance(data, TimeSeriesDataset):
            names = list(data.series_names)
            values = data.values
        else:
            values = np.asarray(data, dtype=float)
            if values.ndim != 2:
                raise ValueError("expected an (n_series, n_timesteps) array")
            names = None
        bad = np.argwhere(~np.isfinite(values))
        if len(bad):
            # Reject here: a NaN or ±inf would otherwise train, get
            # interpreted, and only fail deep inside the k-means clustering.
            series, step = (int(index) for index in bad[0])
            name = names[series] if names else series
            raise ValueError(
                f"input series {name!r} holds the non-finite value "
                f"{values[series, step]} at step {step}; CausalFormer needs "
                f"finite values"
            )
        if values.shape[1] <= self.config.window:
            raise ValueError(
                f"the series ({values.shape[1]} steps) must be longer than the window "
                f"({self.config.window})"
            )
        if self.normalize:
            values = zscore_normalize(values)
        return values, names

    def _detector_windows(self, values: np.ndarray) -> np.ndarray:
        """A bounded, evenly-spaced subset of windows for interpretation."""
        from repro.data.windows import sliding_windows

        windows = sliding_windows(values, self.config.window, self.config.window_stride)
        limit = self.config.max_detector_windows
        if windows.shape[0] > limit:
            picks = np.linspace(0, windows.shape[0] - 1, limit).astype(int)
            windows = windows[picks]
        return windows

    # ------------------------------------------------------------------ #
    # Fitting and discovery
    # ------------------------------------------------------------------ #
    def prepare_fit(self, data: DataLike) -> np.ndarray:
        """Reset fitted state and build the (untrained) model for ``data``.

        Returns the normalised values the trainer should consume.  Splitting
        this from :meth:`fit` lets the batched sweep runner
        (:mod:`repro.service.batched`) train several prepared models in one
        stacked pass; afterwards it hands the history back via
        :meth:`finalize_fit`.
        """
        # Reset all fitted state first so a refit (or a failed refit) never
        # leaves a previous run's discovery results visible via summary().
        self.model_ = None
        self.history_ = None
        self.scores_ = None
        self.graph_ = None
        self._fitted_values = None
        values, self._series_names = self._extract_values(data)
        config = replace(self.config, n_series=values.shape[0])
        self.config = config
        self.model_ = CausalityAwareTransformer(config)
        return values

    def finalize_fit(self, values: np.ndarray,
                     history: TrainingHistory) -> "CausalFormer":
        """Adopt an externally produced training history (batched training)."""
        self.history_ = history
        self._fitted_values = values
        return self

    def fit(self, data: DataLike, verbose: bool = False) -> "CausalFormer":
        """Train the causality-aware transformer on the prediction task."""
        values = self.prepare_fit(data)
        trainer = Trainer(self.model_)
        return self.finalize_fit(values, trainer.fit(values, verbose=verbose))

    def build_detector(self) -> DecompositionCausalityDetector:
        """The causality detector for the trained model (ablation flags applied).

        Split out of :meth:`interpret` so the batched sweep runner
        (:mod:`repro.service.batched`) can interpret a whole group of
        trained models in one stacked pass
        (:func:`repro.core.detector.compute_scores_group`).
        """
        if self.model_ is None:
            raise RuntimeError("call fit() before interpret()")
        return DecompositionCausalityDetector(
            self.model_, self.config,
            use_interpretation=self.use_interpretation,
            use_relevance=self.use_relevance,
            use_gradient=self.use_gradient,
            use_bias=self.use_bias,
        )

    def detector_windows(self) -> np.ndarray:
        """The bounded window subset interpretation runs on (post ``fit``)."""
        if self._fitted_values is None:
            raise RuntimeError("call fit() before interpret()")
        return self._detector_windows(self._fitted_values)

    def adopt_interpretation(self, detector: DecompositionCausalityDetector,
                             scores: CausalScores) -> TemporalCausalGraph:
        """Adopt externally computed causal scores (batched interpretation)."""
        self.scores_ = scores
        self.graph_ = detector.build_graph(scores,
                                           series_names=self._series_names)
        return self.graph_

    def interpret(self) -> TemporalCausalGraph:
        """Run the causality detector on the trained model."""
        detector = self.build_detector()
        windows = self.detector_windows()
        self.graph_, self.scores_ = detector.detect(windows, series_names=self._series_names)
        return self.graph_

    def discover(self, data: DataLike,
                 verbose: bool = False) -> TemporalCausalGraph:
        """Train and interpret in one call; returns the temporal causal graph."""
        self.fit(data, verbose=verbose)
        return self.interpret()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def is_fitted(self) -> bool:
        return self.model_ is not None

    def prediction_error(self, data: Optional[DataLike] = None) -> float:
        """Window-prediction MSE of the trained transformer.

        Scores the fitted data, or ``data`` when given; either way the
        fitted state is left as it was.
        """
        if self.model_ is None:
            raise RuntimeError("call fit() first")
        if data is None:
            values = self._fitted_values
        else:
            values, _names = self._extract_values(data)
            if values.shape[0] != self.config.n_series:
                raise ValueError(
                    f"the data has {values.shape[0]} series; the model was "
                    f"fitted on {self.config.n_series}")
        windows = self._detector_windows(values)
        return self.model_.prediction_error(windows)

    def summary(self) -> dict:
        """Human-readable summary of the fitted model and discovery result."""
        payload = {
            "fitted": self.is_fitted,
            "config": self.config.to_dict(),
        }
        if self.history_ is not None:
            payload["epochs"] = self.history_.n_epochs
            payload["best_validation_loss"] = self.history_.best_validation_loss
        if self.graph_ is not None:
            payload["n_edges"] = self.graph_.n_edges
        return payload
