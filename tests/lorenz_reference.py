"""Lorenz-96 integrated with ``np.roll``: the simulator as first written, for tests.

:func:`repro.data.lorenz.simulate_lorenz96` integrates in place on a ring
buffer.  This module keeps the plain form — one ``np.roll`` per neighbour,
a fresh array per operation, a modulo test per step — with the same
operations in the same order, so the tests can assert that the in-place
kernel returns the same trajectories bit for bit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def reference_derivative(state: np.ndarray, forcing: float) -> np.ndarray:
    """Right-hand side of the Lorenz-96 ODE for a state vector."""
    return (np.roll(state, -1) - np.roll(state, 2)) * np.roll(state, 1) - state + forcing


def reference_simulate(n_series: int = 10, length: int = 1000, forcing: float = 35.0,
                       dt: float = 0.01, subsample: int = 5, burn_in: int = 500,
                       noise_std: float = 0.0,
                       rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Integrate Lorenz-96 with RK4 and return an ``(N, length)`` array."""
    rng = rng or np.random.default_rng()
    state = forcing * np.ones(n_series) + rng.normal(0.0, 0.5, size=n_series)
    total_steps = burn_in + length * subsample
    trajectory = np.zeros((n_series, length))
    kept = 0
    for step in range(total_steps):
        k1 = reference_derivative(state, forcing)
        k2 = reference_derivative(state + 0.5 * dt * k1, forcing)
        k3 = reference_derivative(state + 0.5 * dt * k2, forcing)
        k4 = reference_derivative(state + dt * k3, forcing)
        state = state + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        if step >= burn_in and (step - burn_in) % subsample == 0 and kept < length:
            trajectory[:, kept] = state
            kept += 1
    if noise_std > 0:
        trajectory = trajectory + rng.normal(0.0, noise_std, size=trajectory.shape)
    return trajectory
