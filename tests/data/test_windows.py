"""Windowing, normalisation and lagged-design utilities."""

import numpy as np
import pytest

from repro.data.windows import (
    lagged_design_matrix,
    minmax_normalize,
    sliding_windows,
    zscore_normalize,
)


class TestSlidingWindows:
    def test_shape_and_count(self):
        values = np.arange(2 * 10).reshape(2, 10).astype(float)
        windows = sliding_windows(values, window=4, stride=1)
        assert windows.shape == (7, 2, 4)

    def test_stride(self):
        values = np.arange(20).reshape(1, 20).astype(float)
        windows = sliding_windows(values, window=5, stride=5)
        assert windows.shape[0] == 4
        np.testing.assert_array_equal(windows[1, 0], np.arange(5, 10))

    def test_content_matches_source(self):
        values = np.arange(2 * 8).reshape(2, 8).astype(float)
        windows = sliding_windows(values, window=3)
        np.testing.assert_array_equal(windows[2], values[:, 2:5])

    def test_window_equal_to_length(self):
        values = np.zeros((3, 6))
        assert sliding_windows(values, window=6).shape == (1, 3, 6)

    def test_errors(self):
        values = np.zeros((2, 5))
        with pytest.raises(ValueError):
            sliding_windows(values, window=0)
        with pytest.raises(ValueError):
            sliding_windows(values, window=3, stride=0)
        with pytest.raises(ValueError):
            sliding_windows(values, window=6)
        with pytest.raises(ValueError):
            sliding_windows(np.zeros(5), window=2)


class TestNormalisation:
    def test_zscore_moments(self):
        rng = np.random.default_rng(0)
        values = rng.normal(3.0, 2.0, size=(4, 500))
        normalized = zscore_normalize(values)
        np.testing.assert_allclose(normalized.mean(axis=1), 0.0, atol=1e-10)
        np.testing.assert_allclose(normalized.std(axis=1), 1.0, atol=1e-6)

    def test_zscore_constant_series_is_finite(self):
        normalized = zscore_normalize(np.ones((2, 10)))
        assert np.isfinite(normalized).all()

    @pytest.mark.xfail(strict=True, reason=(
        "zscore_normalize divides by std + 1e-8: the absolute guard does "
        "not scale with the data, so an affine map moves the output by "
        "~1e-8"))
    @pytest.mark.parametrize("scale,shift", [
        (2.0 ** -3, 0.0), (2.0 ** 5, 0.0), (3.7, -12.5), (1e3, 4.0)])
    def test_zscore_invariant_under_positive_affine_maps(self, scale, shift):
        values = np.random.default_rng(3).normal(size=(4, 300)).cumsum(axis=1)
        np.testing.assert_allclose(zscore_normalize(scale * values + shift),
                                   zscore_normalize(values), rtol=0,
                                   atol=1e-12)

    def test_zscore_constant_series_is_exactly_zero(self):
        values = np.random.default_rng(2).normal(size=(3, 137))
        values[1] = 3.7   # its rounded mean is not exactly 3.7
        normalized = zscore_normalize(values)
        assert not normalized[1].any()
        np.testing.assert_array_equal(
            normalized[[0, 2]], zscore_normalize(values[[0, 2]]))

    def test_minmax_range(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(3, 100))
        normalized = minmax_normalize(values)
        assert normalized.min() >= 0.0 and normalized.max() <= 1.0

    def test_minmax_preserves_order(self):
        values = np.array([[1.0, 3.0, 2.0]])
        normalized = minmax_normalize(values)
        assert normalized[0, 1] > normalized[0, 2] > normalized[0, 0]


class TestLaggedDesignMatrix:
    def test_shapes(self):
        values = np.arange(3 * 20).reshape(3, 20).astype(float)
        design, targets = lagged_design_matrix(values, max_lag=4)
        assert design.shape == (16, 12)
        assert targets.shape == (16, 3)

    def test_lag_structure(self):
        """Column (lag-1)*N + j must hold series j shifted back by `lag`."""
        values = np.stack([np.arange(10.0), np.arange(10.0) * 10])
        design, targets = lagged_design_matrix(values, max_lag=2)
        # First target row corresponds to time t=2.
        np.testing.assert_array_equal(targets[0], values[:, 2])
        # Lag 1 of series 0 at that row is values[0, 1].
        assert design[0, 0] == values[0, 1]
        # Lag 2 of series 1 at that row is values[1, 0].
        assert design[0, 3] == values[1, 0]

    def test_errors(self):
        with pytest.raises(ValueError):
            lagged_design_matrix(np.zeros((2, 10)), max_lag=0)
        with pytest.raises(ValueError):
            lagged_design_matrix(np.zeros((2, 3)), max_lag=5)

    def test_recovers_var_coefficients(self):
        """OLS on the design matrix must recover a known VAR(1)."""
        rng = np.random.default_rng(2)
        coefficients = np.array([[0.5, 0.3], [0.0, -0.4]])
        values = np.zeros((2, 600))
        for t in range(1, 600):
            values[:, t] = coefficients.T @ values[:, t - 1] + rng.normal(0, 0.1, 2)
        design, targets = lagged_design_matrix(values, max_lag=1)
        estimated, *_ = np.linalg.lstsq(design, targets, rcond=None)
        np.testing.assert_allclose(estimated, coefficients, atol=0.05)
