"""Regression relevance propagation (RRP): shapes, rules, and diagnostics."""

import tracemalloc

import numpy as np
import pytest

from repro.core import (CausalityAwareTransformer,
                        RegressionRelevancePropagation, fast_preset)
from repro.core.relevance import StackedRelevancePropagation, stabilize
from repro.nn.inference import StackedInferenceEngine
from repro.nn.tensor import Tensor
from tests.conftest import assert_matches_reference


@pytest.fixture()
def cache_and_model(tiny_transformer, window_batch):
    _prediction, cache = tiny_transformer(Tensor(window_batch))
    return tiny_transformer, cache


class TestStabilize:
    def test_positive_values_move_up(self):
        np.testing.assert_allclose(stabilize(np.array([1.0]), 1e-3), 1.001)

    def test_negative_values_move_down(self):
        np.testing.assert_allclose(stabilize(np.array([-1.0]), 1e-3), -1.001)

    def test_zero_treated_as_positive(self):
        assert stabilize(np.array([0.0]), 1e-3)[0] == pytest.approx(1e-3)

    def test_never_returns_zero(self):
        values = np.array([-1e-12, 0.0, 1e-12])
        assert np.all(np.abs(stabilize(values, 1e-6)) >= 1e-6 - 1e-12)


class TestOneHotInitialisation:
    def test_one_hot_selects_target_row(self, cache_and_model):
        model, cache = cache_and_model
        rrp = RegressionRelevancePropagation(model)
        relevance = rrp.one_hot_relevance(cache, target=1)
        assert relevance.shape == cache.output.shape
        np.testing.assert_allclose(relevance[:, 1, :], 1.0)
        np.testing.assert_allclose(relevance[:, 0, :], 0.0)

    def test_out_of_range_target_rejected(self, cache_and_model):
        model, cache = cache_and_model
        rrp = RegressionRelevancePropagation(model)
        with pytest.raises(IndexError):
            rrp.one_hot_relevance(cache, target=99)


class TestLinearRule:
    def test_relevance_conserved_without_bias(self):
        """With zero bias the z-rule conserves total relevance exactly (Eq. 10)."""
        rng = np.random.default_rng(0)
        model_stub = RegressionRelevancePropagation.__new__(RegressionRelevancePropagation)
        model_stub.use_bias = True
        model_stub.epsilon = 1e-12
        inputs = rng.normal(size=(4, 6))
        weight = rng.normal(size=(6, 3))
        outputs = inputs @ weight
        relevance_out = rng.random((4, 3))
        relevance_in = model_stub._linear_relevance(inputs, weight, None, outputs, relevance_out)
        np.testing.assert_allclose(relevance_in.sum(axis=1), relevance_out.sum(axis=1), rtol=1e-6)

    def test_bias_absorbs_relevance(self):
        """With the bias in the denominator the inputs' relevance shrinks (Eq. 15/16)."""
        rng = np.random.default_rng(1)
        inputs = np.abs(rng.normal(size=(3, 4))) + 0.5
        weight = np.abs(rng.normal(size=(4, 2))) + 0.5
        bias = np.array([2.0, 2.0])
        outputs = inputs @ weight + bias
        relevance_out = np.ones((3, 2))

        with_bias = RegressionRelevancePropagation.__new__(RegressionRelevancePropagation)
        with_bias.use_bias = True
        with_bias.epsilon = 1e-12
        without_bias = RegressionRelevancePropagation.__new__(RegressionRelevancePropagation)
        without_bias.use_bias = False
        without_bias.epsilon = 1e-12

        r_with = with_bias._linear_relevance(inputs, weight, bias, outputs, relevance_out)
        r_without = without_bias._linear_relevance(inputs, weight, bias, outputs, relevance_out)
        assert r_with.sum() < r_without.sum()
        # Without the bias term the z-rule conserves relevance.
        np.testing.assert_allclose(r_without.sum(axis=1), relevance_out.sum(axis=1), rtol=1e-6)


class TestFullPropagation:
    def test_shapes(self, cache_and_model, tiny_config):
        model, cache = cache_and_model
        rrp = RegressionRelevancePropagation(model)
        result = rrp.propagate(cache, target=0)
        n, t = tiny_config.n_series, tiny_config.window
        batch = cache.output.shape[0]
        assert result.attention.shape == (tiny_config.n_heads, batch, n, n)
        assert result.kernel.shape == (n, n, t)

    def test_finite(self, cache_and_model):
        model, cache = cache_and_model
        rrp = RegressionRelevancePropagation(model)
        for target in range(cache.output.shape[1]):
            result = rrp.propagate(cache, target)
            assert np.isfinite(result.attention).all()
            assert np.isfinite(result.kernel).all()

    def test_different_targets_give_different_relevance(self, cache_and_model):
        model, cache = cache_and_model
        rrp = RegressionRelevancePropagation(model)
        a = rrp.propagate(cache, 0).attention[0]
        b = rrp.propagate(cache, 1).attention[0]
        assert not np.allclose(a, b)

    def test_bias_ablation_changes_result(self, tiny_config, window_batch):
        # Fresh model with non-zero biases (the default init sets biases to
        # zero, in which case the with/without-bias denominators coincide).
        from repro.core import CausalityAwareTransformer

        model = CausalityAwareTransformer(tiny_config)
        model.output_layer.bias.data = np.full_like(model.output_layer.bias.data, 0.5)
        model.feed_forward.b1.data = np.full_like(model.feed_forward.b1.data, 0.3)
        _prediction, cache = model(Tensor(window_batch))
        with_bias = RegressionRelevancePropagation(model, use_bias=True).propagate(cache, 0)
        without_bias = RegressionRelevancePropagation(model, use_bias=False).propagate(cache, 0)
        assert not np.allclose(with_bias.attention[0], without_bias.attention[0])

    def test_conservation_gap_bounded(self, cache_and_model):
        """RRP deliberately breaks strict conservation, but it must not explode."""
        model, cache = cache_and_model
        rrp = RegressionRelevancePropagation(model)
        gap = rrp.conservation_gap(cache, target=0)
        assert 0.0 <= gap < 10.0

    def test_trained_model_relevance(self, trained_causalformer):
        """On a trained model the relevance of the true cause is substantial."""
        model = trained_causalformer.model_
        windows = trained_causalformer._detector_windows(trained_causalformer._fitted_values)[:8]
        _prediction, cache = model(Tensor(windows))
        rrp = RegressionRelevancePropagation(model)
        result = rrp.propagate(cache, target=1)  # S1 is caused by S0 in the fork
        attention_relevance = result.attention.mean(axis=0)
        row = attention_relevance.mean(axis=0)[1]   # relevance of sources for target 1
        assert np.isfinite(row).all()
        assert row.max() > 0.0


class TestHeadSummedPropagation:
    """The propagation mixes the heads before its one kernel contraction."""

    N_SERIES, BATCH, WINDOW = 40, 64, 10

    def forward(self, n_heads, n_models=1):
        models = [CausalityAwareTransformer(fast_preset(
            n_series=self.N_SERIES, window=self.WINDOW, n_heads=n_heads,
            seed=seed)) for seed in range(n_models)]
        rng = np.random.default_rng(3)
        window_sets = [rng.normal(size=(self.BATCH, self.N_SERIES,
                                        self.WINDOW)) for _ in models]
        return StackedInferenceEngine(models).interpretation_forward(
            window_sets)

    def propagation_peak(self, n_heads):
        forward = self.forward(n_heads)
        propagation = StackedRelevancePropagation()
        tracemalloc.start()
        try:
            propagation.propagate_targets(forward)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_barely_grows_with_the_head_count(self):
        """The (B, N, N, T) arrays are built once, not once per head: only
        arrays without the N·N·T factor grow with h.  A value relevance
        per head would make the 8-head peak about three times the 1-head
        one."""
        assert self.propagation_peak(8) <= 1.5 * self.propagation_peak(1)

    def test_no_value_relevance_is_returned(self):
        """No returned array is, or is a view of, a (B, N, N, T) array."""
        forward = self.forward(n_heads=2, n_models=2)
        value_size = self.BATCH * self.N_SERIES ** 2 * self.WINDOW
        pending = list(StackedRelevancePropagation()
                       .propagate_targets(forward))
        while pending:
            item = pending.pop()
            if isinstance(item, np.ndarray):
                assert item.size < value_size
                if item.base is not None:
                    pending.append(item.base)
            elif isinstance(item, (list, tuple)):
                pending.extend(item)
            elif hasattr(item, "__dict__"):
                pending.extend(vars(item).values())

    @pytest.mark.parametrize("factor", [3.7, -0.25])
    def test_relevance_is_linear_in_the_seed(self, cache_and_model, factor):
        """Metamorphic: scaling the seed scales A's and K's relevance.  The
        detector's single all-ones pass rests on this linearity."""
        model, cache = cache_and_model
        rrp = RegressionRelevancePropagation(model)
        seed = np.random.default_rng(5).random(cache.output.shape)
        base = rrp._propagate(cache, seed, None)
        scaled = rrp._propagate(cache, factor * seed, None)
        for name in ("attention", "kernel"):
            expected = factor * getattr(base, name)
            assert_matches_reference(getattr(scaled, name), expected,
                                     np.float64, err_msg=name)
