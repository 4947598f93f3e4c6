"""Gradient correctness of every tensor operation, checked numerically."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn import tensor as T
from repro.nn.tensor import Tensor

from tests.conftest import numeric_gradient


def check_gradient(build, x0, atol=1e-5):
    """Compare analytic and numeric gradients of ``scalar = build(Tensor(x))``."""
    x = Tensor(x0.copy(), requires_grad=True)
    out = build(x)
    out.backward()
    analytic = x.grad

    def scalar(values):
        return float(build(Tensor(values)).data)

    numeric = numeric_gradient(scalar, x0.copy())
    assert analytic is not None
    np.testing.assert_allclose(analytic, numeric, atol=atol)


class TestArithmeticGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(0)

    def test_add(self):
        other = self.rng.normal(size=(3, 4))
        check_gradient(lambda x: (x + Tensor(other)).sum(), self.rng.normal(size=(3, 4)))

    def test_add_broadcast(self):
        other = self.rng.normal(size=(4,))
        check_gradient(lambda x: (x + Tensor(other)).sum(), self.rng.normal(size=(3, 4)))

    def test_sub(self):
        other = self.rng.normal(size=(3, 4))
        check_gradient(lambda x: (Tensor(other) - x).sum(), self.rng.normal(size=(3, 4)))

    def test_mul(self):
        other = self.rng.normal(size=(3, 4))
        check_gradient(lambda x: (x * Tensor(other)).sum(), self.rng.normal(size=(3, 4)))

    def test_mul_broadcast_scalar(self):
        check_gradient(lambda x: (x * 3.5).sum(), self.rng.normal(size=(2, 3)))

    def test_div(self):
        other = self.rng.normal(size=(3, 4)) + 2.0
        check_gradient(lambda x: (x / Tensor(other)).sum(), self.rng.normal(size=(3, 4)))

    def test_div_denominator(self):
        numerator = self.rng.normal(size=(3, 4))
        check_gradient(lambda x: (Tensor(numerator) / x).sum(),
                       self.rng.normal(size=(3, 4)) + 2.0)

    def test_power(self):
        check_gradient(lambda x: (x ** 3).sum(), self.rng.normal(size=(3, 4)))

    def test_sqrt(self):
        check_gradient(lambda x: x.sqrt().sum(), np.abs(self.rng.normal(size=(3, 4))) + 0.5)

    def test_neg(self):
        check_gradient(lambda x: (-x).sum(), self.rng.normal(size=(3, 4)))

    def test_exp(self):
        check_gradient(lambda x: x.exp().sum(), self.rng.normal(size=(3, 4)))

    def test_log(self):
        check_gradient(lambda x: x.log().sum(), np.abs(self.rng.normal(size=(3, 4))) + 0.5)

    def test_abs(self):
        check_gradient(lambda x: x.abs().sum(), self.rng.normal(size=(3, 4)) + 0.3)

    def test_maximum(self):
        other = self.rng.normal(size=(3, 4))
        check_gradient(lambda x: T.maximum(x, Tensor(other)).sum(),
                       self.rng.normal(size=(3, 4)))

    def test_clip(self):
        check_gradient(lambda x: T.clip(x, -0.5, 0.5).sum(),
                       self.rng.normal(size=(3, 4)))


class TestMatmulGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(1)

    def test_matmul_2d(self):
        other = self.rng.normal(size=(4, 5))
        check_gradient(lambda x: (x @ Tensor(other)).sum(), self.rng.normal(size=(3, 4)))

    def test_matmul_2d_right(self):
        other = self.rng.normal(size=(3, 4))
        check_gradient(lambda x: (Tensor(other) @ x).sum(), self.rng.normal(size=(4, 5)))

    def test_matmul_batched(self):
        other = self.rng.normal(size=(2, 4, 5))
        check_gradient(lambda x: (x @ Tensor(other)).sum(), self.rng.normal(size=(2, 3, 4)))

    def test_matmul_broadcast_weight(self):
        weight = self.rng.normal(size=(4, 5))
        check_gradient(lambda x: (x @ Tensor(weight)).sum(), self.rng.normal(size=(2, 3, 4)))

    def test_matmul_vector(self):
        vector = self.rng.normal(size=(4,))
        check_gradient(lambda x: (x @ Tensor(vector)).sum(), self.rng.normal(size=(3, 4)))


class TestReductionGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(2)

    def test_sum_all(self):
        check_gradient(lambda x: x.sum(), self.rng.normal(size=(3, 4)))

    def test_sum_axis(self):
        check_gradient(lambda x: (x.sum(axis=0) ** 2).sum(), self.rng.normal(size=(3, 4)))

    def test_sum_axis_keepdims(self):
        check_gradient(lambda x: (x.sum(axis=1, keepdims=True) * 2).sum(),
                       self.rng.normal(size=(3, 4)))

    def test_sum_negative_axis(self):
        check_gradient(lambda x: (x.sum(axis=-1) ** 2).sum(), self.rng.normal(size=(3, 4)))

    def test_mean_all(self):
        check_gradient(lambda x: x.mean(), self.rng.normal(size=(3, 4)))

    def test_mean_axis(self):
        check_gradient(lambda x: (x.mean(axis=1) ** 2).sum(), self.rng.normal(size=(3, 4)))

    def test_max_all(self):
        check_gradient(lambda x: x.max(), self.rng.normal(size=(3, 4)))

    def test_max_axis(self):
        check_gradient(lambda x: (x.max(axis=0) ** 2).sum(), self.rng.normal(size=(3, 4)))


class TestShapeGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(3)

    def test_reshape(self):
        check_gradient(lambda x: (x.reshape(6, 2) ** 2).sum(), self.rng.normal(size=(3, 4)))

    def test_transpose_default(self):
        other = self.rng.normal(size=(3, 4))
        check_gradient(lambda x: (x.T * Tensor(other.T)).sum(), self.rng.normal(size=(3, 4)))

    def test_transpose_axes(self):
        check_gradient(lambda x: (x.transpose(2, 0, 1) ** 2).sum(),
                       self.rng.normal(size=(2, 3, 4)))

    def test_squeeze_unsqueeze(self):
        check_gradient(lambda x: (x.unsqueeze(0).squeeze(0) ** 2).sum(),
                       self.rng.normal(size=(3, 4)))

    def test_getitem_slice(self):
        check_gradient(lambda x: (x[1:, :2] ** 2).sum(), self.rng.normal(size=(3, 4)))

    def test_getitem_integer(self):
        check_gradient(lambda x: (x[1] ** 2).sum(), self.rng.normal(size=(3, 4)))

    def test_concatenate(self):
        other = self.rng.normal(size=(2, 4))
        check_gradient(lambda x: (T.concatenate([x, Tensor(other)], axis=0) ** 2).sum(),
                       self.rng.normal(size=(3, 4)))

    def test_stack(self):
        other = self.rng.normal(size=(3, 4))
        check_gradient(lambda x: (T.stack([x, Tensor(other)], axis=1) ** 2).sum(),
                       self.rng.normal(size=(3, 4)))

    def test_pad(self):
        check_gradient(lambda x: (T.pad(x, ((0, 0), (2, 1))) ** 2).sum(),
                       self.rng.normal(size=(3, 4)))


class TestEinsumGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(4)

    def test_einsum_matmul(self):
        other = self.rng.normal(size=(4, 5))
        check_gradient(lambda x: T.einsum("ij,jk->ik", x, Tensor(other)).sum(),
                       self.rng.normal(size=(3, 4)))

    def test_einsum_batched_attention(self):
        values = self.rng.normal(size=(2, 3, 3, 5))
        check_gradient(
            lambda x: T.einsum("bij,bjit->bit", x, Tensor(values)).sum(),
            self.rng.normal(size=(2, 3, 3)))

    def test_einsum_convolution_pattern(self):
        kernel = self.rng.normal(size=(3, 3, 4))
        check_gradient(
            lambda x: T.einsum("bitk,ijk->bijt", x, Tensor(kernel)).sum(),
            self.rng.normal(size=(2, 3, 4, 4)))

    def test_einsum_second_operand(self):
        windows = self.rng.normal(size=(2, 3, 4, 4))
        check_gradient(
            lambda x: T.einsum("bitk,ijk->bijt", Tensor(windows), x).sum(),
            self.rng.normal(size=(3, 3, 4)))

    def test_einsum_head_combination(self):
        heads = self.rng.normal(size=(3, 2, 4, 5))
        check_gradient(
            lambda x: T.einsum("hbit,h->bit", Tensor(heads), x).sum(),
            self.rng.normal(size=(3,)))

    def test_einsum_requires_explicit_output(self):
        a = Tensor(self.rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(self.rng.normal(size=(4, 5)), requires_grad=True)
        with pytest.raises(ValueError):
            T.einsum("ij,jk", a, b).sum().backward()


class TestCompositeGradients:
    """Expressions that mirror the model's actual computation patterns."""

    def setup_method(self):
        self.rng = np.random.default_rng(5)

    def test_softmax_attention_chain(self):
        keys = self.rng.normal(size=(4, 6))
        values = self.rng.normal(size=(4, 5))

        def build(x):
            scores = x @ Tensor(keys).T
            attention = F.softmax(scores, axis=-1)
            return (attention @ Tensor(values)).sum()

        check_gradient(build, self.rng.normal(size=(3, 6)))

    def test_feed_forward_chain(self):
        w1 = self.rng.normal(size=(5, 7))
        w2 = self.rng.normal(size=(7, 5))

        def build(x):
            hidden = F.leaky_relu(x @ Tensor(w1), 0.01)
            return ((hidden @ Tensor(w2)) ** 2).mean()

        check_gradient(build, self.rng.normal(size=(4, 5)))

    def test_reused_tensor_accumulates_gradient(self):
        def build(x):
            return (x * x).sum() + (3.0 * x).sum()

        check_gradient(build, self.rng.normal(size=(3, 3)))

    def test_mse_loss_gradient(self):
        target = self.rng.normal(size=(4, 5))
        check_gradient(lambda x: F.mse_loss(x, Tensor(target)), self.rng.normal(size=(4, 5)))
