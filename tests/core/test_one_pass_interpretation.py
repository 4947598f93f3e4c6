"""One all-ones interpretation pass equals one seeded pass per target series.

The detector seeds gradients and relevance with ones on every output row
and reads row ``g`` of the maps for target ``g``
(:mod:`repro.core.detector`).  These tests pin that bookkeeping:

* against the per-target form the paper states
  (``tests/per_target_reference.py``), across the training ablation grid
  in float64 and float32, on the solo and the stacked path: the engine
  gradients and the attention scores and relevance bit for bit, the
  kernel scores and relevance to rounding (the propagation sums the
  heads before its one kernel contraction, the reference after one
  contraction per head);
* by call count: one scoring call makes one gradient and one relevance pass;
* without an oracle: permuting the series permutes the scores and the graph;
* on a degenerate input: a constant series scores 0 as a cause.
"""

import itertools

import numpy as np
import pytest

from repro.core import CausalFormer, fast_preset
from repro.core import detector as detector_module
from repro.core.config import CausalFormerConfig
from repro.core.detector import (DecompositionCausalityDetector,
                                 compute_scores_group)
from repro.core.relevance import (RegressionRelevancePropagation,
                                  StackedRelevancePropagation,
                                  _model_axis_view)
from repro.core.transformer import CausalityAwareTransformer
from repro.data import diamond_dataset
from repro.nn.inference import InferenceEngine, StackedInferenceEngine
from repro.nn.tensor import Tensor, default_dtype, no_grad
from tests.conftest import ABLATION_GRID, assert_matches_reference
from tests.per_target_reference import (per_target_gradients,
                                        per_target_relevance,
                                        per_target_scores)

N_SERIES, WINDOW = 5, 9

#: Table 3 detector switches that interpret the model: (relevance,
#: gradient, bias), relevance or gradient on
DETECTOR_FLAGS = [flags for flags in itertools.product((True, False), repeat=3)
                  if flags[0] or flags[1]]


def fleet(dtype=np.float64, n_models=2, n_series=N_SERIES, **overrides):
    """Same-architecture models (different seeds) and a window set each."""
    models = []
    for seed in range(n_models):
        with default_dtype(dtype):
            config = CausalFormerConfig(
                **{"n_series": n_series, "window": WINDOW, "d_model": 12,
                   "d_qk": 12, "d_ffn": 12, "n_heads": 2, "seed": seed,
                   **overrides})
            models.append(CausalityAwareTransformer(config))
    rng = np.random.default_rng(11)
    window_sets = [np.ascontiguousarray(rng.normal(size=(6, n_series, WINDOW)),
                                        dtype=dtype) for _ in models]
    return models, window_sets


def one_pass_scores(detectors, window_sets, path):
    if path == "stacked":
        return compute_scores_group(detectors, window_sets)
    return [detector.compute_scores(windows)
            for detector, windows in zip(detectors, window_sets)]


def assert_scores_equal(actual, expected):
    assert np.array_equal(actual.attention, expected.attention)
    assert actual.kernel.dtype == expected.kernel.dtype
    # Relevance runs in float64 whatever the model dtype.
    assert_matches_reference(actual.kernel, expected.kernel, np.float64)


def head_sum(heads, index=slice(None)):
    """The reference's per-head kernel relevance, summed over heads."""
    return sum(head.kernel[index] for head in heads)


class TestPerTargetParity:
    @pytest.mark.parametrize("path", ["solo", "stacked"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("overrides", ABLATION_GRID)
    def test_scores(self, overrides, dtype, path):
        models, window_sets = fleet(dtype, **overrides)
        detectors = [DecompositionCausalityDetector(model) for model in models]
        for detector, windows, scores in zip(
                detectors, window_sets,
                one_pass_scores(detectors, window_sets, path)):
            assert_scores_equal(scores, per_target_scores(detector, windows))

    @pytest.mark.parametrize("path", ["solo", "stacked"])
    @pytest.mark.parametrize("single_kernel", [False, True])
    @pytest.mark.parametrize("use_relevance,use_gradient,use_bias",
                             DETECTOR_FLAGS)
    def test_scores_under_detector_ablations(self, use_relevance,
                                             use_gradient, use_bias,
                                             single_kernel, path):
        models, window_sets = fleet(single_kernel=single_kernel)
        for model in models:
            # Non-zero biases, so the w/o-bias denominators differ.
            model.output_layer.bias.data[...] = 0.4
            model.feed_forward.b2.data[...] = 0.2
        detectors = [DecompositionCausalityDetector(
            model, use_relevance=use_relevance, use_gradient=use_gradient,
            use_bias=use_bias) for model in models]
        for detector, windows, scores in zip(
                detectors, window_sets,
                one_pass_scores(detectors, window_sets, path)):
            assert_scores_equal(scores, per_target_scores(detector, windows))

    @pytest.mark.parametrize("path", ["solo", "stacked"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("overrides", ABLATION_GRID)
    def test_gradients(self, overrides, dtype, path):
        models, window_sets = fleet(dtype, **overrides)
        if path == "stacked":
            stacked = StackedInferenceEngine(models)
            attention, kernel = stacked.interpretation_gradients(
                stacked.interpretation_forward(window_sets))
        targets = list(range(N_SERIES))
        single_kernel = models[0].config.single_kernel
        for row, (model, windows) in enumerate(zip(models, window_sets)):
            engine = InferenceEngine(model)
            forward = engine.interpretation_forward(windows)
            reference = per_target_gradients(model, forward, targets)
            if path == "solo":
                one_pass = engine.interpretation_gradients(forward)
            else:
                one_pass = attention[row], kernel[row]
            assert one_pass[0].dtype == reference[0].dtype
            assert one_pass[1].dtype == reference[1].dtype
            for target in targets:
                assert np.array_equal(one_pass[0][:, :, target],
                                      reference[0][target][:, :, target])
                expected = reference[1][target][0] if single_kernel \
                    else reference[1][target][:, target]
                assert np.array_equal(one_pass[1][:, target], expected)

    @pytest.mark.parametrize("path", ["solo", "stacked"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("overrides", ABLATION_GRID)
    def test_relevance(self, overrides, dtype, path):
        models, window_sets = fleet(dtype, **overrides)
        if path == "stacked":
            stacked = StackedInferenceEngine(models)
            results = StackedRelevancePropagation(models).propagate_targets(
                stacked.interpretation_forward(window_sets))
        targets = list(range(N_SERIES))
        for row, (model, windows) in enumerate(zip(models, window_sets)):
            forward = InferenceEngine(model).interpretation_forward(windows)
            reference = per_target_relevance(model, forward, targets)
            result = StackedRelevancePropagation([model]).propagate_targets(
                forward)[0] if path == "solo" else results[row]
            assert result.target is None
            for target in targets:
                for attention, expected in zip(result.attention,
                                               reference[target]):
                    assert np.array_equal(attention[:, target],
                                          expected.attention[:, target])
                assert_matches_reference(
                    result.kernel[:, target],
                    head_sum(reference[target], np.s_[:, target]),
                    np.float64)

    @pytest.mark.parametrize("target", range(N_SERIES))
    def test_propagate_is_the_one_hot_pass(self, target):
        """On the autograd reference's forward, which
        ``RegressionRelevancePropagation`` reads through the one adapter
        into the engine's layout."""
        (model,), (windows,) = fleet(n_models=1)
        with no_grad():
            _prediction, cache = model(Tensor(windows))
        rrp = RegressionRelevancePropagation(model)
        result = rrp.propagate(cache, target)
        expected = per_target_relevance(
            model, _model_axis_view(cache, model), [target])[0]
        assert result.target == target
        for attention, reference in zip(result.attention, expected):
            assert np.array_equal(attention, reference.attention)
        assert_matches_reference(result.kernel, head_sum(expected),
                                 np.float64)


class TestOnePassCallCounts:
    """One scoring call makes one gradient pass and one relevance pass."""

    @staticmethod
    def count_calls(monkeypatch, owner, name, counts):
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    def test_solo(self, monkeypatch):
        """A solo call runs the fleet passes at M = 1, never the group
        entry point (a profiler times that one as batched work)."""
        counts = {"interpretation_gradients": 0, "propagate_targets": 0,
                  "compute_scores_group": 0}
        self.count_calls(monkeypatch, StackedInferenceEngine,
                         "interpretation_gradients", counts)
        self.count_calls(monkeypatch, StackedRelevancePropagation,
                         "propagate_targets", counts)
        self.count_calls(monkeypatch, detector_module,
                         "compute_scores_group", counts)
        (model,), (windows,) = fleet(n_models=1, n_series=12)
        DecompositionCausalityDetector(model).compute_scores(windows)
        assert counts == {"interpretation_gradients": 1,
                          "propagate_targets": 1, "compute_scores_group": 0}

    def test_stacked(self, monkeypatch):
        counts = {"interpretation_gradients": 0, "propagate_targets": 0}
        self.count_calls(monkeypatch, StackedInferenceEngine,
                         "interpretation_gradients", counts)
        self.count_calls(monkeypatch, StackedRelevancePropagation,
                         "propagate_targets", counts)
        models, window_sets = fleet(n_models=3, n_series=12)
        compute_scores_group([DecompositionCausalityDetector(model)
                              for model in models], window_sets)
        assert counts == {"interpretation_gradients": 1,
                          "propagate_targets": 1}


def permuted_twin(model, permutation):
    """``model`` with its series relabelled: series ``a`` is ``permutation[a]``."""
    twin = CausalityAwareTransformer(model.config)
    state = {name: np.array(value) for name, value in model.state_dict().items()}
    mesh = np.ix_(permutation, permutation)
    state["convolution.kernel"] = state["convolution.kernel"][mesh]
    for index in range(model.config.n_heads):
        name = f"attention.heads.{index}.mask"
        state[name] = state[name][mesh]
    twin.load_state_dict(state)
    return twin


class TestSeriesPermutation:
    """Metamorphic: permuting the series permutes the scores and the graph.

    The series meet only through the convolution kernel and the head masks,
    so permuting the inputs together with both axes of those parameters
    relabels every interpretation result the same way.
    """

    PERMUTATION = np.array([3, 0, 4, 2, 1])

    def detectors(self):
        config = CausalFormerConfig(n_series=N_SERIES, window=WINDOW,
                                    d_model=12, d_qk=12, d_ffn=12, n_heads=2,
                                    n_clusters=3, seed=4)
        model = CausalityAwareTransformer(config)
        rng = np.random.default_rng(8)
        for head in model.attention.heads:
            # The masks start at ones; random masks make the test non-trivial.
            head.mask.data[...] = rng.uniform(0.2, 2.0, head.mask.data.shape)
        twin = permuted_twin(model, self.PERMUTATION)
        windows = rng.normal(size=(12, N_SERIES, WINDOW))
        return ([DecompositionCausalityDetector(model),
                 DecompositionCausalityDetector(twin)],
                [windows, windows[:, self.PERMUTATION]])

    def assert_relabelled(self, detectors, scores):
        mesh = np.ix_(self.PERMUTATION, self.PERMUTATION)
        np.testing.assert_allclose(scores[1].attention,
                                   scores[0].attention[mesh], rtol=1e-10)
        np.testing.assert_allclose(scores[1].kernel, scores[0].kernel[mesh],
                                   rtol=1e-10)
        graph, permuted_graph = (detector.build_graph(score)
                                 for detector, score in zip(detectors, scores))
        assert graph.n_edges > 0
        relabelled = {(int(self.PERMUTATION[source]),
                       int(self.PERMUTATION[target]), delay)
                      for source, target, delay
                      in (edge.as_tuple() for edge in permuted_graph.edges)}
        assert relabelled == {edge.as_tuple() for edge in graph.edges}

    def test_solo(self):
        detectors, window_sets = self.detectors()
        self.assert_relabelled(detectors, [
            detector.compute_scores(windows)
            for detector, windows in zip(detectors, window_sets)])

    def test_stacked(self):
        detectors, window_sets = self.detectors()
        self.assert_relabelled(detectors,
                               compute_scores_group(detectors, window_sets))


class TestConstantSeries:
    """A zero-variance series is accepted and scores 0 as a cause.

    Z-scoring maps it to exact zeros, so nothing in the model depends on
    it.  Under every interpreting detector mode its attention score is
    exactly 0 as a source in every row, and the default density (top 1 of
    2 clusters) gives it no outgoing edge.  Its kernel scores are 0 too,
    except under the single-kernel ablation without relevance, whose
    kernel gradient is one per-effect profile shared by every source.
    """

    CONSTANT = 2

    def _discover(self, single_kernel, flags):
        values = diamond_dataset(seed=0, length=200).values.copy()
        values[self.CONSTANT] = 3.7
        method = CausalFormer(
            fast_preset(max_epochs=5, seed=0, single_kernel=single_kernel),
            **flags)
        return method.discover(values), method.scores_

    @pytest.mark.parametrize("single_kernel", [False, True])
    @pytest.mark.parametrize("flags", [
        {}, {"use_relevance": False}, {"use_gradient": False}])
    def test_scores_zero_as_source_and_no_outgoing_edge(self, flags,
                                                         single_kernel):
        graph, scores = self._discover(single_kernel, flags)
        assert not scores.attention[:, self.CONSTANT].any()
        assert scores.attention.any()
        if not (single_kernel and flags == {"use_relevance": False}):
            assert not scores.kernel[:, self.CONSTANT].any()
        assert all(edge.source != self.CONSTANT for edge in graph.edges)

    def test_raw_weights_score_constant_series_like_any_other(self):
        # The w/o-interpretation ablation reads the softmax attention, which
        # is positive for every source column, constant or not.
        _, scores = self._discover(False, {"use_interpretation": False})
        assert (scores.attention[:, self.CONSTANT] > 0).all()
