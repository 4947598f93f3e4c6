"""Independent oracles for the plain autograd reference forward.

The reference (``CausalityAwareTransformer.forward``/``loss``) is what the
numpy engines are checked against, so it is itself checked against oracles
that share none of its code: slice-and-stack convolution windows, the
mask-composition form of the Eq. 4 shift, a numpy composition of the Eq. 9
loss, and a float64 central-difference gradcheck of the whole forward plus
loss for every parameter.  A float32-vs-float64 parity test guards the
reduced-precision training default.
"""

import numpy as np
import pytest

from repro.core.attention import MultiVariateCausalAttention
from repro.core.config import CausalFormerConfig
from repro.core.convolution import MultiKernelCausalConvolution
from repro.core.embedding import TimeSeriesEmbedding
from repro.core.transformer import CausalityAwareTransformer
from repro.nn import functional as F
from repro.nn import tensor as T
from repro.nn.tensor import Tensor, default_dtype, no_grad
from tests.conftest import numeric_gradient


def reference_windows(x: np.ndarray) -> np.ndarray:
    """The seed implementation: left-pad and stack T slices."""
    batch, n_series, window = x.shape
    padded = np.pad(x, ((0, 0), (0, 0), (window, 0)))
    return np.stack([padded[:, :, t + 1:t + 1 + window] for t in range(window)],
                    axis=2)


class TestSlidingWindows:
    def test_strided_windows_match_slice_stack_reference(self):
        x = np.random.default_rng(0).normal(size=(3, 4, 7))
        out = F.sliding_window(Tensor(x), 7)
        np.testing.assert_array_equal(out.data, reference_windows(x))

    def test_sliding_window_gradient_matches_stack_reference(self):
        rng = np.random.default_rng(1)
        x_data = rng.normal(size=(2, 3, 5))
        weights = rng.normal(size=(2, 3, 5, 5))

        x_fast = Tensor(x_data, requires_grad=True)
        (F.sliding_window(x_fast, 5) * Tensor(weights)).sum().backward()

        x_ref = Tensor(x_data, requires_grad=True)
        padded = T.pad(x_ref, ((0, 0), (0, 0), (5, 0)))
        stacked = T.stack([padded[:, :, t + 1:t + 6] for t in range(5)], axis=2)
        (stacked * Tensor(weights)).sum().backward()

        np.testing.assert_allclose(x_fast.grad, x_ref.grad, atol=1e-12)

    def test_convolution_windows_helper_uses_strided_view(self):
        conv = MultiKernelCausalConvolution(2, 4, rng=np.random.default_rng(2))
        x = np.random.default_rng(3).normal(size=(1, 2, 4))
        np.testing.assert_array_equal(conv.convolution_windows(x),
                                      reference_windows(x))


class TestFusedCausalConv:
    def _reference_forward(self, x, kernel, scale):
        windows = reference_windows(x)
        raw = np.einsum("bitk,ijk->bijt", windows, kernel) * scale
        n = x.shape[1]
        diag = np.arange(n)
        shifted = raw.copy()
        shifted[:, diag, diag, 1:] = raw[:, diag, diag, :-1]
        shifted[:, diag, diag, 0] = 0.0
        return shifted

    def test_forward_matches_reference(self):
        rng = np.random.default_rng(4)
        conv = MultiKernelCausalConvolution(3, 6, rng=rng)
        x = rng.normal(size=(2, 3, 6))
        expected = self._reference_forward(x, conv.kernel.data,
                                           np.asarray(conv._scale))
        np.testing.assert_allclose(conv(Tensor(x)).data, expected, atol=1e-10)

    def test_gradients_match_autograd_composition(self):
        rng = np.random.default_rng(5)
        conv = MultiKernelCausalConvolution(2, 5, rng=rng)
        x_data = rng.normal(size=(3, 2, 5))
        weights = rng.normal(size=(3, 2, 2, 5))

        x_fast = Tensor(x_data, requires_grad=True)
        conv.zero_grad()
        (conv(x_fast) * Tensor(weights)).sum().backward()
        fast_kernel_grad = conv.kernel.grad.copy()
        fast_x_grad = x_fast.grad.copy()

        # Reference: compose the same computation from generic autograd ops.
        x_ref = Tensor(x_data, requires_grad=True)
        kernel = Tensor(conv.kernel.data.copy(), requires_grad=True)
        padded = T.pad(x_ref, ((0, 0), (0, 0), (5, 0)))
        stacked = T.stack([padded[:, :, t + 1:t + 6] for t in range(5)], axis=2)
        raw = T.einsum("bitk,ijk->bijt", stacked, kernel)
        scaled = raw * Tensor(np.asarray(conv._scale))
        shifted = F.diagonal_right_shift(scaled)
        (shifted * Tensor(weights)).sum().backward()

        np.testing.assert_allclose(fast_kernel_grad, kernel.grad, atol=1e-10)
        np.testing.assert_allclose(fast_x_grad, x_ref.grad, atol=1e-10)

    def test_diagonal_right_shift_matches_mask_composition(self):
        rng = np.random.default_rng(6)
        values = rng.normal(size=(2, 3, 3, 4))
        n = 3
        diag = np.eye(n).reshape(n, n, 1)
        zeros = np.zeros((2, n, n, 1))
        shifted = np.concatenate([zeros, values[:, :, :, :-1]], axis=3)
        expected = diag * shifted + (1.0 - diag) * values
        out = F.diagonal_right_shift(Tensor(values))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)


class TestMultiHeadAttention:
    def _blocks(self, n=3, t=6, d=8, heads=3, seed=7):
        rng = np.random.default_rng(seed)
        embedding = TimeSeriesEmbedding(t, d, rng=rng)
        convolution = MultiKernelCausalConvolution(n, t, rng=rng)
        attention = MultiVariateCausalAttention(n, d, d, heads, 1.0, rng=rng)
        x = Tensor(rng.normal(size=(4, n, t)))
        return embedding(x), convolution(x), attention

    def test_per_head_attention_gradients_flow(self):
        emb, vals, attention = self._blocks(seed=9)
        combined, caches = attention(emb, vals)
        combined.sum().backward()
        for cache in caches:
            assert cache.attention.grad is not None
            assert np.isfinite(cache.attention.grad).all()


class TestTransformerLoss:
    @pytest.fixture()
    def tiny_model(self):
        config = CausalFormerConfig(n_series=3, window=8, d_model=10, d_qk=10,
                                    d_ffn=12, n_heads=2, seed=0)
        return CausalityAwareTransformer(config)

    def test_loss_matches_numpy_composition(self, tiny_model):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(4, 3, 8))
        prediction, _ = tiny_model(Tensor(x))
        loss = tiny_model.loss(prediction, Tensor(x))
        config = tiny_model.config
        mse = float(np.mean(
            (prediction.data[:, :, 1:] - x[:, :, 1:]) ** 2))
        expected = mse \
            + config.lambda_kernel * np.abs(tiny_model.convolution.kernel.data).sum() \
            + config.lambda_mask * sum(np.abs(h.mask.data).sum()
                                       for h in tiny_model.attention.heads)
        assert float(loss.data) == pytest.approx(expected, rel=1e-8)


class TestDetectorFollowsLiveModel:
    def test_float64_twin_resyncs_before_each_scoring(self):
        """A detector built before training must see the trained weights."""
        from repro.core.detector import DecompositionCausalityDetector

        config = CausalFormerConfig(n_series=2, window=6, d_model=8, d_qk=8,
                                    d_ffn=8, n_heads=2, seed=0)
        with default_dtype(np.float32):
            model = CausalityAwareTransformer(config)
            detector = DecompositionCausalityDetector(model, config)
            windows = np.random.default_rng(20).normal(size=(3, 2, 6))
            before = detector.compute_scores(windows)
            # Mutate the source model (stands in for a training run).
            for parameter in model.parameters():
                parameter.data = parameter.data + np.float32(0.05)
            after = detector.compute_scores(windows)
        for twin_param, source_param in zip(detector.model.parameters(),
                                            model.parameters()):
            np.testing.assert_allclose(twin_param.data, source_param.data,
                                       atol=1e-7)
        assert not np.allclose(before.attention, after.attention)


class TestDtypeParity:
    def _grads(self, dtype, x):
        with default_dtype(dtype):
            config = CausalFormerConfig(n_series=2, window=6, d_model=8,
                                        d_qk=8, d_ffn=8, n_heads=2, seed=0)
            model = CausalityAwareTransformer(config)
            prediction, _ = model(Tensor(np.asarray(x, dtype=dtype)))
            model.loss(prediction, Tensor(np.asarray(x, dtype=dtype))).backward()
            return {name: p.grad.copy() for name, p in model.named_parameters()}

    def test_float32_gradients_track_float64_reference(self):
        """Gradcheck parity: float32 training grads ≈ float64 reference."""
        x = np.random.default_rng(13).normal(size=(4, 2, 6))
        grads32 = self._grads(np.float32, x)
        grads64 = self._grads(np.float64, x)
        assert set(grads32) == set(grads64)
        # Each parameter is checked against its own scale.  The key-bias
        # gradients are exactly zero in exact arithmetic (softmax ignores a
        # per-row shift), so their scale is floored relative to the largest
        # gradient rather than comparing rounding noise with itself; every
        # other gradient sits well above that floor.
        floor = 1e-3 * max(np.abs(reference).max()
                           for reference in grads64.values())
        for name in grads64:
            reference = grads64[name]
            scale = max(np.abs(reference).max(), floor)
            np.testing.assert_allclose(
                grads32[name].astype(np.float64) / scale, reference / scale,
                atol=5e-4, err_msg=f"dtype parity failed for {name}")
            assert grads32[name].dtype == np.float32


class TestReferenceGradcheck:
    @pytest.mark.parametrize("single_kernel", [False, True])
    def test_numeric_gradcheck_float64_forward_and_loss(self, single_kernel):
        """Central differences of the Eq. 9 loss through the whole forward,
        for every parameter, against the reference's autograd gradients."""
        with default_dtype(np.float64):
            config = CausalFormerConfig(n_series=2, window=4, d_model=4,
                                        d_qk=4, d_ffn=4, n_heads=2, seed=0,
                                        lambda_kernel=0.05, lambda_mask=0.05,
                                        single_kernel=single_kernel)
            model = CausalityAwareTransformer(config)
            rng = np.random.default_rng(14)
            # Move every parameter off its initialisation (zero biases, unit
            # masks, uniform W_O) so each term of the backward is exercised.
            for parameter in model.parameters():
                parameter.data += rng.normal(scale=0.2,
                                             size=parameter.data.shape)
            x = rng.normal(size=(3, 2, 4))

            def loss_value(_perturbed):
                with no_grad():
                    prediction, _ = model(Tensor(x))
                    return float(model.loss(prediction, Tensor(x)).data)

            model.zero_grad()
            prediction, _ = model(Tensor(x))
            model.loss(prediction, Tensor(x)).backward()
            for name, parameter in model.named_parameters():
                numeric = numeric_gradient(loss_value, parameter.data)
                np.testing.assert_allclose(parameter.grad, numeric,
                                           rtol=1e-5, atol=1e-8,
                                           err_msg=name)
