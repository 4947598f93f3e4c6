"""Behavioural tests of the functional API (activations and losses)."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tensor import Tensor

from tests.conftest import numeric_gradient


class TestActivations:
    def setup_method(self):
        self.rng = np.random.default_rng(0)

    def test_relu_clamps_negatives(self):
        out = F.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(out.data, [0.0, 0.0, 2.0])

    def test_leaky_relu_keeps_scaled_negatives(self):
        out = F.leaky_relu(Tensor([-2.0, 3.0]), negative_slope=0.1)
        np.testing.assert_allclose(out.data, [-0.2, 3.0])

    def test_leaky_relu_gradient(self):
        x0 = self.rng.normal(size=(4, 4)) + 0.05

        def build(values):
            return float((F.leaky_relu(Tensor(values), 0.05) ** 2).sum().data)

        x = Tensor(x0.copy(), requires_grad=True)
        (F.leaky_relu(x, 0.05) ** 2).sum().backward()
        numeric = numeric_gradient(build, x0.copy())
        np.testing.assert_allclose(x.grad, numeric, atol=1e-5)

    def test_sigmoid_range(self):
        out = F.sigmoid(Tensor(self.rng.normal(size=100) * 10))
        assert np.all(out.data > 0) and np.all(out.data < 1)

    def test_sigmoid_at_zero(self):
        assert F.sigmoid(Tensor([0.0])).data[0] == pytest.approx(0.5)

    def test_tanh_matches_numpy(self):
        x = self.rng.normal(size=(3, 3))
        np.testing.assert_allclose(F.tanh(Tensor(x)).data, np.tanh(x))

    def test_tanh_gradient(self):
        x0 = self.rng.normal(size=(3, 3))
        x = Tensor(x0.copy(), requires_grad=True)
        F.tanh(x).sum().backward()
        numeric = numeric_gradient(lambda v: float(F.tanh(Tensor(v)).sum().data), x0.copy())
        np.testing.assert_allclose(x.grad, numeric, atol=1e-5)

    def test_sigmoid_gradient(self):
        x0 = self.rng.normal(size=(3, 3))
        x = Tensor(x0.copy(), requires_grad=True)
        F.sigmoid(x).sum().backward()
        numeric = numeric_gradient(lambda v: float(F.sigmoid(Tensor(v)).sum().data), x0.copy())
        np.testing.assert_allclose(x.grad, numeric, atol=1e-5)


class TestSoftmax:
    def setup_method(self):
        self.rng = np.random.default_rng(1)

    def test_rows_sum_to_one(self):
        out = F.softmax(Tensor(self.rng.normal(size=(5, 7))), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0)

    def test_output_positive(self):
        out = F.softmax(Tensor(self.rng.normal(size=(5, 7)) * 5), axis=-1)
        assert np.all(out.data > 0)

    def test_invariant_to_constant_shift(self):
        x = self.rng.normal(size=(3, 4))
        a = F.softmax(Tensor(x), axis=-1).data
        b = F.softmax(Tensor(x + 100.0), axis=-1).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_numerically_stable_for_large_values(self):
        out = F.softmax(Tensor(np.array([[1e4, 0.0, -1e4]])), axis=-1)
        assert np.isfinite(out.data).all()

    def test_axis_zero(self):
        out = F.softmax(Tensor(self.rng.normal(size=(4, 3))), axis=0)
        np.testing.assert_allclose(out.data.sum(axis=0), 1.0)

    def test_gradient_sums_to_zero_per_row(self):
        # d/dx of softmax composed with a linear functional has zero row sum.
        x = Tensor(self.rng.normal(size=(2, 5)), requires_grad=True)
        weights = Tensor(self.rng.normal(size=(2, 5)))
        (F.softmax(x, axis=-1) * weights).sum().backward()
        np.testing.assert_allclose(x.grad.sum(axis=-1), 0.0, atol=1e-10)


class TestLosses:
    def setup_method(self):
        self.rng = np.random.default_rng(2)

    def test_mse_zero_for_identical(self):
        x = self.rng.normal(size=(4, 4))
        assert F.mse_loss(Tensor(x), Tensor(x.copy())).data == pytest.approx(0.0)

    def test_mse_matches_numpy(self):
        a, b = self.rng.normal(size=(4, 4)), self.rng.normal(size=(4, 4))
        expected = np.mean((a - b) ** 2)
        assert float(F.mse_loss(Tensor(a), Tensor(b)).data) == pytest.approx(expected)

    def test_mse_sum_reduction(self):
        a, b = self.rng.normal(size=(3, 3)), self.rng.normal(size=(3, 3))
        assert float(F.mse_loss(Tensor(a), Tensor(b), reduction="sum").data) == pytest.approx(
            np.sum((a - b) ** 2))

    def test_mse_none_reduction_shape(self):
        a, b = self.rng.normal(size=(3, 3)), self.rng.normal(size=(3, 3))
        assert F.mse_loss(Tensor(a), Tensor(b), reduction="none").shape == (3, 3)

    def test_mse_invalid_reduction(self):
        with pytest.raises(ValueError):
            F.mse_loss(Tensor([1.0]), Tensor([1.0]), reduction="bogus")


class TestDropout:
    def test_identity_in_eval(self):
        x = Tensor(np.ones((10, 10)))
        out = F.dropout(x, p=0.5, training=False)
        np.testing.assert_allclose(out.data, x.data)

    def test_identity_when_p_zero(self):
        x = Tensor(np.ones((10, 10)))
        out = F.dropout(x, p=0.0, training=True)
        np.testing.assert_allclose(out.data, x.data)

    def test_preserves_expectation(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, p=0.3, training=True, rng=rng)
        assert out.data.mean() == pytest.approx(1.0, abs=0.05)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor([1.0]), p=1.0, training=True)
