"""Lorenz-96 simulated climate dataset (paper Sec. 5.1, Eq. 21).

The Lorenz-96 model couples ``N`` variables on a ring:

.. math::

    \\frac{dx_i}{dt} = (x_{i+1} - x_{i-2})\\, x_{i-1} - x_i + F

so each variable ``x_i`` is causally driven by ``x_{i-2}``, ``x_{i-1}``,
``x_{i+1}`` and itself.  The paper simulates 10 variables with forcing
``F ∈ [30, 40]`` over 1,000 units; we integrate with a fourth-order
Runge–Kutta scheme and subsample to the requested length.

The integrator works in place: the state lives in a ring buffer whose
slices are the four neighbours ``x[i+1]``, ``x[i-2]``, ``x[i-1]`` and
``x[i]``, and every RK4 stage writes into buffers allocated once per
simulation.  The result is exact, not approximate: each IEEE operation of
the plain ``np.roll`` form is performed on the same operands in the same
order, only the storage changes, so every trajectory is bit-identical to
it.  That matters because the system is chaotic — a one-ulp change would
move every dataset.  :func:`simulate_lorenz96` rejects invalid inputs and
diverged integrations with ``ValueError`` instead of returning zeros or
NaN.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.contracts import hot_path
from repro.data.base import TimeSeriesDataset
from repro.graph.causal_graph import TemporalCausalGraph


class _Lorenz96Ring:
    """Preallocated storage for one in-place RK4 integration of Lorenz-96.

    The state sits in the middle of a ring buffer of length ``N + 3``::

        ring = [x[N-2], x[N-1], x[0], x[1], ..., x[N-1], x[0]]

    so ``ring[3:]``, ``ring[:-3]``, ``ring[1:-2]`` and ``ring[2:-1]`` are
    ``x[i+1]``, ``x[i-2]``, ``x[i-1]`` and ``x[i]`` for every ``i`` at once,
    without an ``np.roll``.  A derivative refreshes the three wrap-around
    entries from the middle; an RK4 stage writes its state straight into
    the middle.  The derivative and stage buffers are allocated here, once.
    """

    def __init__(self, n_series: int, dtype=np.float64) -> None:
        self.n_series = n_series
        self.ring = np.empty(n_series + 3, dtype=dtype)
        self.ahead = self.ring[3:]          # x[i+1]
        self.behind2 = self.ring[:-3]       # x[i-2]
        self.behind1 = self.ring[1:-2]      # x[i-1]
        self.centre = self.ring[2:-1]       # x[i]
        self.k = np.empty(n_series, dtype=dtype)
        self.acc = np.empty(n_series, dtype=dtype)
        self.scratch = np.empty(n_series, dtype=dtype)

    @hot_path
    def derivative(self, forcing: float, out: np.ndarray) -> np.ndarray:
        """``out = ((x[i+1] - x[i-2]) * x[i-1] - x[i]) + F`` for ``x = centre``."""
        ring, n = self.ring, self.n_series
        ring[0] = ring[n]
        ring[1] = ring[n + 1]
        ring[-1] = ring[2]
        np.subtract(self.ahead, self.behind2, out=out)
        np.multiply(out, self.behind1, out=out)
        np.subtract(out, self.centre, out=out)
        np.add(out, forcing, out=out)
        return out

    @hot_path
    def step(self, state: np.ndarray, forcing: float, dt: float) -> None:
        """Advance ``state`` by one RK4 step of ``dt``, in place.

        Each stage writes ``state + (0.5·dt)·k`` (``state + dt·k3`` for
        the last) into ``centre``.  The update is
        ``state + (dt/6)·(((k1 + 2·k2) + 2·k3) + k4)``, summed in that
        order as each ``k`` arrives.
        """
        centre, k, acc, scratch = self.centre, self.k, self.acc, self.scratch
        half_dt = 0.5 * dt
        np.copyto(centre, state)
        self.derivative(forcing, acc)                   # k1
        np.multiply(acc, half_dt, out=scratch)
        np.add(state, scratch, out=centre)
        self.derivative(forcing, k)                     # k2
        np.multiply(k, 2, out=scratch)
        np.add(acc, scratch, out=acc)                   # k1 + 2·k2
        np.multiply(k, half_dt, out=scratch)
        np.add(state, scratch, out=centre)
        self.derivative(forcing, k)                     # k3
        np.multiply(k, 2, out=scratch)
        np.add(acc, scratch, out=acc)                   # (k1 + 2·k2) + 2·k3
        np.multiply(k, dt, out=scratch)
        np.add(state, scratch, out=centre)
        self.derivative(forcing, k)                     # k4
        np.add(acc, k, out=acc)
        np.multiply(acc, dt / 6.0, out=acc)
        np.add(state, acc, out=state)


def lorenz96_derivative(state: np.ndarray, forcing: float) -> np.ndarray:
    """Right-hand side of the Lorenz-96 ODE for a state vector.

    Runs the integrator's own kernel on a freshly allocated ring.
    """
    state = np.asarray(state)
    ring = _Lorenz96Ring(state.shape[0], np.result_type(state, forcing))
    np.copyto(ring.centre, state)
    return ring.derivative(forcing, np.empty_like(ring.centre))


def simulate_lorenz96(n_series: int = 10, length: int = 1000, forcing: float = 35.0,
                      dt: float = 0.01, subsample: int = 5, burn_in: int = 500,
                      noise_std: float = 0.0,
                      rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Integrate Lorenz-96 with RK4 and return an ``(N, length)`` array.

    The integration runs in place on a :class:`_Lorenz96Ring`, with the
    IEEE operations of the textbook ``np.roll`` form in the same order —
    only the storage differs — so trajectories are bit-identical to it.
    Sample ``t`` is the state after ``burn_in + 1 + t·subsample`` steps.

    Parameters
    ----------
    forcing:
        The chaos-controlling constant ``F`` (paper: uniform in [30, 40]).
    dt:
        Integration step.
    subsample:
        Keep one sample every ``subsample`` integration steps.
    burn_in:
        Integration steps discarded before the first kept sample.
    noise_std:
        Optional observation noise added after integration.

    Raises
    ------
    ValueError
        If ``n_series < 4``, ``length < 1``, ``subsample < 1``,
        ``burn_in < 0``, ``dt`` is not finite and positive, ``forcing`` is
        not finite or ``noise_std`` is not finite and non-negative; or if
        the integration diverges (the message names the first sample that
        holds a non-finite value).
    """
    if n_series < 4:
        raise ValueError("Lorenz-96 needs at least 4 variables")
    if length <= 0:
        raise ValueError("length must be positive")
    if subsample < 1:
        raise ValueError(f"subsample must be >= 1, got {subsample}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if not np.isfinite(forcing):
        raise ValueError(f"forcing must be finite, got {forcing}")
    if not (np.isfinite(noise_std) and noise_std >= 0):
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std}")
    rng = rng or np.random.default_rng()
    state = forcing * np.ones(n_series) + rng.normal(0.0, 0.5, size=n_series)
    ring = _Lorenz96Ring(n_series)
    trajectory = np.empty((n_series, length))
    steps = burn_in + 1
    with np.errstate(over="ignore", invalid="ignore"):
        for sample in range(length):
            for _ in range(steps):
                ring.step(state, forcing, dt)
            trajectory[:, sample] = state
            steps = subsample
    finite = np.isfinite(trajectory).all(axis=0)
    if not finite.all():
        raise ValueError(
            f"Lorenz-96 integration diverged: sample {int(np.argmin(finite))} "
            f"holds a non-finite value (dt={dt}, forcing={forcing})")
    if noise_std > 0:
        trajectory = trajectory + rng.normal(0.0, noise_std, size=trajectory.shape)
    return trajectory


def lorenz96_graph(n_series: int = 10, include_self_loops: bool = True) -> TemporalCausalGraph:
    """Ground-truth coupling graph of the Lorenz-96 model.

    Variable ``i`` is driven by ``i-2``, ``i-1``, ``i+1`` (ring indices) and
    itself; every causal edge acts with delay 1 sampling slot.
    """
    graph = TemporalCausalGraph(n_series)
    for i in range(n_series):
        graph.add_edge((i - 2) % n_series, i, 1)
        graph.add_edge((i - 1) % n_series, i, 1)
        graph.add_edge((i + 1) % n_series, i, 1)
        if include_self_loops:
            graph.add_edge(i, i, 1)
    return graph


def lorenz96_dataset(n_series: int = 10, length: int = 1000,
                     forcing: Optional[float] = None, dt: float = 0.01,
                     subsample: int = 5, noise_std: float = 0.0,
                     include_self_loops: bool = True,
                     seed: Optional[int] = None) -> TimeSeriesDataset:
    """Lorenz-96 dataset with ground truth (paper: N=10, F∈[30, 40], len 1000).

    Invalid inputs and diverged integrations raise ``ValueError`` from
    :func:`simulate_lorenz96`.
    """
    rng = np.random.default_rng(seed)
    if forcing is None:
        forcing = float(rng.uniform(30.0, 40.0))
    values = simulate_lorenz96(n_series=n_series, length=length, forcing=forcing,
                               dt=dt, subsample=subsample, noise_std=noise_std, rng=rng)
    graph = lorenz96_graph(n_series, include_self_loops=include_self_loops)
    return TimeSeriesDataset(
        values=values,
        name="lorenz96",
        graph=graph,
        metadata={
            "forcing": forcing,
            "dt": dt,
            "subsample": subsample,
            "noise_std": noise_std,
            "seed": seed,
            "generator": "lorenz96",
        },
    )
