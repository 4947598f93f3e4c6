"""End-to-end CausalFormer facade (integration tests on small datasets)."""

import numpy as np
import pytest

from repro.core import CausalFormer, fast_preset
from repro.data import TimeSeriesDataset, fork_dataset, synthetic_dataset
from repro.graph import TemporalCausalGraph, evaluate_discovery


class TestLifecycle:
    def test_not_fitted_initially(self):
        model = CausalFormer(fast_preset())
        assert not model.is_fitted
        with pytest.raises(RuntimeError):
            model.interpret()
        with pytest.raises(RuntimeError):
            model.prediction_error()

    def test_discover_returns_graph(self, trained_causalformer, fork_data):
        graph = trained_causalformer.graph_
        assert isinstance(graph, TemporalCausalGraph)
        assert graph.n_series == fork_data.n_series
        assert graph.n_edges > 0

    def test_fitted_attributes_populated(self, trained_causalformer):
        assert trained_causalformer.is_fitted
        assert trained_causalformer.history_ is not None
        assert trained_causalformer.scores_ is not None
        assert trained_causalformer.model_ is not None

    def test_training_reduced_loss(self, trained_causalformer):
        history = trained_causalformer.history_
        assert history.train_loss[-1] < history.train_loss[0]

    def test_discovery_beats_chance(self, trained_causalformer, fork_data):
        """F1 of the discovered graph must beat the empty graph and random guessing."""
        scores = evaluate_discovery(trained_causalformer.graph_, fork_data.graph)
        assert scores.f1 > 0.4

    def test_summary_keys(self, trained_causalformer):
        summary = trained_causalformer.summary()
        assert summary["fitted"] is True
        assert "n_edges" in summary and "epochs" in summary

    def test_prediction_error_positive(self, trained_causalformer):
        assert trained_causalformer.prediction_error() > 0.0


class TestPredictionError:
    @pytest.fixture(scope="class")
    def named_fit(self):
        values = fork_dataset(seed=7, length=300).values
        dataset = TimeSeriesDataset(values=values, series_names=["x", "y", "z"])
        method = CausalFormer(fast_preset(max_epochs=2, seed=3))
        method.discover(dataset)
        return method, dataset

    def test_leaves_fitted_state_alone(self, named_fit):
        method, dataset = named_fit
        fitted_error = method.prediction_error()
        assert method.prediction_error(dataset.values) == fitted_error
        assert method.prediction_error() == fitted_error
        assert method.interpret().names == ["x", "y", "z"]

    def test_rejects_a_different_series_count(self, named_fit):
        method, dataset = named_fit
        with pytest.raises(ValueError, match="fitted on 3"):
            method.prediction_error(dataset.values[:2])


class TestInputHandling:
    def test_accepts_plain_array(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(3, 120))
        model = CausalFormer(fast_preset(max_epochs=3))
        graph = model.discover(values)
        assert graph.n_series == 3

    def test_rejects_short_series(self):
        model = CausalFormer(fast_preset())
        with pytest.raises(ValueError):
            model.fit(np.zeros((3, 5)))

    def test_rejects_one_dimensional_input(self):
        model = CausalFormer(fast_preset())
        with pytest.raises(ValueError):
            model.fit(np.zeros(100))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_dataset_values(self, bad):
        dataset = synthetic_dataset("fork", length=300)
        dataset.values[1, 42] = bad
        model = CausalFormer(fast_preset())
        with pytest.raises(ValueError,
                           match=r"series 'S1' .* non-finite .* at step 42"):
            model.discover(dataset)
        assert not model.is_fitted

    def test_rejects_non_finite_array_values(self):
        values = np.random.default_rng(0).normal(size=(3, 120))
        values[2, 7] = np.nan
        values[2, 9] = np.inf
        with pytest.raises(ValueError, match=r"series 2 .* nan at step 7"):
            CausalFormer(fast_preset()).fit(values)

    def test_series_names_carried_to_graph(self, fork_data):
        model = CausalFormer(fast_preset(max_epochs=3))
        dataset = fork_data
        dataset.series_names = ["alpha", "beta", "gamma"]
        graph = model.discover(dataset)
        assert graph.names == ["alpha", "beta", "gamma"]

    def test_detector_window_limit_respected(self, fork_data):
        model = CausalFormer(fast_preset(max_epochs=3, max_detector_windows=10))
        model.fit(fork_data)
        windows = model._detector_windows(model._fitted_values)
        assert windows.shape[0] <= 10


class TestRefitHygiene:
    def test_unfitted_state_is_none(self):
        model = CausalFormer(fast_preset())
        assert model._fitted_values is None
        assert model.graph_ is None and model.scores_ is None and model.history_ is None

    def test_refit_clears_stale_discovery_results(self, fork_data):
        model = CausalFormer(fast_preset(max_epochs=3))
        model.discover(fork_data)
        assert model.graph_ is not None
        model.fit(fork_data)
        # fit() alone must not leave the previous run's discovery visible.
        assert model.graph_ is None and model.scores_ is None
        assert "n_edges" not in model.summary()

    def test_failed_refit_does_not_keep_stale_state(self, fork_data):
        model = CausalFormer(fast_preset(max_epochs=3))
        model.discover(fork_data)
        with pytest.raises(ValueError):
            model.fit(np.zeros((3, 5)))  # shorter than the window
        assert not model.is_fitted
        assert model.summary()["fitted"] is False
        assert model.graph_ is None and model._fitted_values is None


class TestAblationsRun:
    @pytest.mark.parametrize("kwargs", [
        {"use_interpretation": False},
        {"use_relevance": False},
        {"use_gradient": False},
        {"use_bias": False},
    ])
    def test_each_ablation_produces_a_graph(self, fork_data, kwargs):
        model = CausalFormer(fast_preset(max_epochs=4), **kwargs)
        graph = model.discover(fork_data)
        assert graph.n_series == fork_data.n_series


class TestInputRescaling:
    """Metamorphic: a positive rescaling of the input leaves the graph alone.

    Z-scoring removes each series' scale, and scaling by a power of two is
    exact in floating point, so the normalised values — and with them every
    later step — should be bit-identical, on the solo path and through the
    batched group interpretation.  Today ``zscore_normalize`` divides by
    ``std + 1e-8``; that absolute guard does not scale with the data, so the
    normalised values differ by ~1e-8 and the fits drift apart.
    """

    def _values(self):
        return synthetic_dataset("diamond", seed=0, length=200).values

    def _method(self):
        return CausalFormer(fast_preset(max_epochs=5, seed=0))

    @staticmethod
    def _edges(graph):
        return sorted(edge.as_tuple() for edge in graph.edges)

    @pytest.mark.xfail(strict=True, reason=(
        "zscore_normalize's absolute 1e-8 guard is not scale-free"))
    @pytest.mark.parametrize("exponent", [-3, 5])
    def test_solo_graph_unchanged(self, exponent):
        values = self._values()
        method, scaled = self._method(), self._method()
        graph = method.discover(values)
        scaled_graph = scaled.discover(values * 2.0 ** exponent)
        assert np.array_equal(scaled._fitted_values, method._fitted_values)
        assert self._edges(scaled_graph) == self._edges(graph)

    @pytest.mark.xfail(strict=True, reason=(
        "zscore_normalize's absolute 1e-8 guard is not scale-free"))
    @pytest.mark.parametrize("exponent", [-3, 5])
    def test_group_graph_unchanged(self, exponent):
        from repro.core.batched import StackedCausalFormerTrainer
        from repro.core.detector import compute_scores_group

        values = self._values()
        methods = [self._method(), self._method()]
        prepared = [method.prepare_fit(data) for method, data
                    in zip(methods, (values, values * 2.0 ** exponent))]
        histories = StackedCausalFormerTrainer(
            [method.model_ for method in methods]).fit(prepared)
        for method, data, history in zip(methods, prepared, histories):
            method.finalize_fit(data, history)
        detectors = [method.build_detector() for method in methods]
        scores = compute_scores_group(
            detectors, [method.detector_windows() for method in methods])
        graphs = [method.adopt_interpretation(detector, score)
                  for method, detector, score
                  in zip(methods, detectors, scores)]
        assert np.array_equal(prepared[1], prepared[0])
        assert self._edges(graphs[1]) == self._edges(graphs[0])
