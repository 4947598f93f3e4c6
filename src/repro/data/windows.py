"""Windowing and normalisation utilities for time series arrays."""

from __future__ import annotations

import numpy as np


def sliding_windows(values: np.ndarray, window: int, stride: int = 1) -> np.ndarray:
    """Cut an ``(N, T)`` array into overlapping windows.

    Returns an array of shape ``(n_windows, N, window)``.  The causality-aware
    transformer treats each window as one training sample.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError("expected a 2-D (n_series, n_timesteps) array")
    n_series, n_timesteps = values.shape
    if window <= 0:
        raise ValueError("window length must be positive")
    if stride <= 0:
        raise ValueError("stride must be positive")
    if window > n_timesteps:
        raise ValueError(f"window {window} longer than the series ({n_timesteps} steps)")
    starts = range(0, n_timesteps - window + 1, stride)
    return np.stack([values[:, s:s + window] for s in starts], axis=0)


def zscore_normalize(values: np.ndarray, axis: int = 1, epsilon: float = 1e-8) -> np.ndarray:
    """Per-series z-score normalisation (zero mean, unit variance).

    A constant series maps to exact zeros.  (Its rounded mean can differ
    from the value by an ulp, which ``epsilon`` alone would blow up to
    about ``1e-8``.)
    """
    values = np.asarray(values, dtype=float)
    mean = values.mean(axis=axis, keepdims=True)
    std = values.std(axis=axis, keepdims=True)
    constant = values.max(axis=axis, keepdims=True) \
        == values.min(axis=axis, keepdims=True)
    return np.where(constant, 0.0, (values - mean) / (std + epsilon))


def minmax_normalize(values: np.ndarray, axis: int = 1, epsilon: float = 1e-8) -> np.ndarray:
    """Per-series min-max normalisation to ``[0, 1]``."""
    values = np.asarray(values, dtype=float)
    low = values.min(axis=axis, keepdims=True)
    high = values.max(axis=axis, keepdims=True)
    return (values - low) / (high - low + epsilon)


def lagged_design_matrix(values: np.ndarray, max_lag: int) -> tuple:
    """Build a lagged regression design for VAR / Granger baselines.

    Returns ``(X, Y)`` where ``X`` has shape ``(T - max_lag, N * max_lag)``
    (columns ordered lag-major: all series at lag 1, then lag 2, ...) and
    ``Y`` has shape ``(T - max_lag, N)``.
    """
    values = np.asarray(values, dtype=float)
    n_series, n_timesteps = values.shape
    if max_lag <= 0:
        raise ValueError("max_lag must be positive")
    if n_timesteps <= max_lag:
        raise ValueError("series too short for the requested lag")
    rows = n_timesteps - max_lag
    design = np.zeros((rows, n_series * max_lag))
    for lag in range(1, max_lag + 1):
        block = values[:, max_lag - lag:n_timesteps - lag].T
        design[:, (lag - 1) * n_series:lag * n_series] = block
    targets = values[:, max_lag:].T
    return design, targets
