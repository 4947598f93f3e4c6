"""The assembled causality-aware transformer."""

import numpy as np
import pytest

from repro.core import CausalFormerConfig, CausalityAwareTransformer
from repro.core.transformer import TransformerCache
from repro.nn.tensor import Tensor


class TestForward:
    def test_prediction_shape(self, tiny_transformer, window_batch):
        prediction, cache = tiny_transformer(Tensor(window_batch))
        assert prediction.shape == window_batch.shape
        assert isinstance(cache, TransformerCache)
        np.testing.assert_array_equal(cache.output, prediction.data)

    def test_accepts_single_window(self, tiny_transformer, tiny_config):
        single = np.zeros((tiny_config.n_series, tiny_config.window))
        prediction, _ = tiny_transformer(Tensor(single))
        assert prediction.shape == (1, tiny_config.n_series, tiny_config.window)

    def test_accepts_numpy_input(self, tiny_transformer, window_batch):
        prediction, _ = tiny_transformer(window_batch)
        assert prediction.shape == window_batch.shape

    def test_requires_n_series(self):
        with pytest.raises(ValueError):
            CausalityAwareTransformer(CausalFormerConfig(n_series=None))

    def test_cache_contents(self, tiny_transformer, window_batch, tiny_config):
        _prediction, cache = tiny_transformer(Tensor(window_batch))
        batch, n, t = window_batch.shape
        assert cache.inputs.shape == (batch, n, t)
        assert cache.embedding.shape == (batch, n, tiny_config.d_model)
        assert cache.values.shape == (batch, n, n, t)
        assert cache.values_pre_shift.shape == (batch, n, n, t)
        assert cache.conv_windows.shape == (batch, n, t, t)
        assert len(cache.head_caches) == tiny_config.n_heads
        assert cache.output.shape == (batch, n, t)
        assert cache.ffn_hidden.shape == (batch, n, tiny_config.d_ffn)

    def test_cache_pre_shift_consistency(self, tiny_transformer, window_batch):
        """Post-shift values equal pre-shift values except on the diagonal."""
        _prediction, cache = tiny_transformer(Tensor(window_batch))
        n = window_batch.shape[1]
        for i in range(n):
            for j in range(n):
                if i == j:
                    np.testing.assert_allclose(cache.values[:, i, i, 1:],
                                               cache.values_pre_shift[:, i, i, :-1], atol=1e-10)
                else:
                    np.testing.assert_allclose(cache.values[:, i, j],
                                               cache.values_pre_shift[:, i, j], atol=1e-10)

    def test_predict_without_graph(self, tiny_transformer, window_batch):
        out = tiny_transformer.predict(window_batch)
        assert isinstance(out, np.ndarray)
        assert out.shape == window_batch.shape

    def test_deterministic_forward(self, tiny_transformer, window_batch):
        a = tiny_transformer.predict(window_batch)
        b = tiny_transformer.predict(window_batch)
        np.testing.assert_array_equal(a, b)

    def test_parameter_count_scales_with_width(self):
        small = CausalityAwareTransformer(CausalFormerConfig(n_series=3, window=8, d_model=8,
                                                             d_qk=8, d_ffn=8, n_heads=1))
        large = CausalityAwareTransformer(CausalFormerConfig(n_series=3, window=8, d_model=32,
                                                             d_qk=32, d_ffn=32, n_heads=4))
        assert large.num_parameters() > small.num_parameters()


class TestLoss:
    def test_loss_is_scalar_and_positive(self, tiny_transformer, window_batch):
        prediction, _ = tiny_transformer(Tensor(window_batch))
        loss = tiny_transformer.loss(prediction, Tensor(window_batch))
        assert loss.data.size == 1
        assert float(loss.data) >= 0.0

    def test_loss_ignores_first_slot(self, tiny_config):
        """Only slots 2..T enter the MSE (the paper drops slot 1 for fairness)."""
        config = CausalFormerConfig(**{**tiny_config.to_dict(),
                                       "lambda_kernel": 0.0, "lambda_mask": 0.0})
        model = CausalityAwareTransformer(config)
        rng = np.random.default_rng(0)
        batch = rng.normal(size=(2, config.n_series, config.window))
        prediction, _ = model(Tensor(batch))
        target_a = batch.copy()
        target_b = batch.copy()
        target_b[:, :, 0] += 100.0  # only the first slot differs
        loss_a = model.loss(prediction, Tensor(target_a))
        loss_b = model.loss(prediction, Tensor(target_b))
        assert float(loss_a.data) == pytest.approx(float(loss_b.data))

    def test_l1_terms_increase_loss(self, tiny_config, window_batch):
        base_config = {**tiny_config.to_dict(), "lambda_kernel": 0.0, "lambda_mask": 0.0}
        plain = CausalityAwareTransformer(CausalFormerConfig(**base_config))
        penalised_config = {**base_config, "lambda_kernel": 1.0, "lambda_mask": 1.0}
        penalised = CausalityAwareTransformer(CausalFormerConfig(**penalised_config))
        penalised.load_state_dict(plain.state_dict())
        prediction, _ = plain(Tensor(window_batch))
        prediction_p, _ = penalised(Tensor(window_batch))
        assert float(penalised.loss(prediction_p, Tensor(window_batch)).data) > \
            float(plain.loss(prediction, Tensor(window_batch)).data)

    def test_loss_backward_reaches_all_parameters(self, tiny_transformer, window_batch):
        tiny_transformer.zero_grad()
        prediction, _ = tiny_transformer(Tensor(window_batch))
        loss = tiny_transformer.loss(prediction, Tensor(window_batch))
        loss.backward()
        with_grad = sum(1 for p in tiny_transformer.parameters() if p.grad is not None)
        total = sum(1 for _ in tiny_transformer.parameters())
        # Every parameter except possibly unused ones must receive a gradient.
        assert with_grad >= total - 1

    def test_prediction_error_metric(self, tiny_transformer, window_batch):
        error = tiny_transformer.prediction_error(window_batch)
        assert error >= 0.0
