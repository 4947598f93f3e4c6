"""Lorenz-96 simulator and its ground-truth coupling graph."""

import hashlib
import itertools

import numpy as np
import pytest

from repro.data.lorenz import (
    lorenz96_dataset,
    lorenz96_derivative,
    lorenz96_graph,
    simulate_lorenz96,
)
from repro.service.registry import build_dataset
from tests.lorenz_reference import reference_derivative, reference_simulate


class TestDerivative:
    def test_fixed_point_without_forcing_gradient(self):
        """At x_i = F for all i the derivative is zero (the trivial equilibrium)."""
        forcing = 8.0
        state = np.full(6, forcing)
        derivative = lorenz96_derivative(state, forcing)
        np.testing.assert_allclose(derivative, 0.0, atol=1e-12)

    def test_matches_manual_formula(self):
        state = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        forcing = 2.0
        derivative = lorenz96_derivative(state, forcing)
        i = 2
        expected = (state[3] - state[0]) * state[1] - state[2] + forcing
        assert derivative[i] == pytest.approx(expected)

    @pytest.mark.parametrize("n_series", [4, 5, 10, 40])
    def test_bit_identical_to_roll_form(self, n_series):
        state = np.random.default_rng(n_series).normal(30.0, 5.0, n_series)
        assert np.array_equal(lorenz96_derivative(state, 33.7),
                              reference_derivative(state, 33.7))


class TestSimulation:
    def test_output_shape(self):
        values = simulate_lorenz96(n_series=6, length=100, rng=np.random.default_rng(0))
        assert values.shape == (6, 100)

    def test_requires_at_least_four_variables(self):
        with pytest.raises(ValueError):
            simulate_lorenz96(n_series=3, length=10)

    def test_positive_length_required(self):
        with pytest.raises(ValueError):
            simulate_lorenz96(length=0)

    def test_bounded_trajectory(self):
        values = simulate_lorenz96(n_series=8, length=400, forcing=35.0,
                                   rng=np.random.default_rng(1))
        assert np.isfinite(values).all()
        assert np.abs(values).max() < 200.0

    def test_chaotic_not_constant(self):
        values = simulate_lorenz96(n_series=8, length=400, forcing=35.0,
                                   rng=np.random.default_rng(2))
        assert values.std() > 1.0

    def test_observation_noise_added(self):
        clean = simulate_lorenz96(n_series=6, length=50, noise_std=0.0,
                                  rng=np.random.default_rng(3))
        noisy = simulate_lorenz96(n_series=6, length=50, noise_std=1.0,
                                  rng=np.random.default_rng(3))
        assert not np.allclose(clean, noisy)


#: (n_series, dt, subsample, burn_in, noise_std) — every combination.
_GRID = list(itertools.product((4, 5, 10, 40), (0.01, 0.005), (1, 5),
                               (0, 500), (0.0, 0.3)))


class TestBitIdentity:
    """The in-place kernel against the ``np.roll`` form, bit for bit."""

    @pytest.mark.parametrize("case", range(len(_GRID)))
    def test_matches_reference(self, case):
        n_series, dt, subsample, burn_in, noise_std = _GRID[case]
        seed, forcing = 100 + case, (8.0, 30.0, 33.3, 36.7, 40.0)[case % 5]
        kwargs = dict(n_series=n_series, length=40, forcing=forcing, dt=dt,
                      subsample=subsample, burn_in=burn_in,
                      noise_std=noise_std)
        values = simulate_lorenz96(rng=np.random.default_rng(seed), **kwargs)
        expected = reference_simulate(rng=np.random.default_rng(seed), **kwargs)
        assert np.array_equal(values, expected)

    @pytest.mark.parametrize("n_series, digest", [
        (10, "ba553029b3b4426eb77c6087a0147c6d9d55f5426f9c2ee6c79423909e7b77e1"),
        (40, "a3f9b5b0f2b72340364f9452faa3c8352cc3f91d48f3ad0b203d04bb392fe71f"),
    ])
    def test_benchmark_anchor_inputs_are_pinned(self, n_series, digest):
        values = lorenz96_dataset(n_series=n_series, length=1000, seed=0).values
        assert hashlib.sha256(values.tobytes()).hexdigest() == digest


class TestValidation:
    @pytest.mark.parametrize("subsample", [0, -1])
    def test_subsample_below_one(self, subsample):
        with pytest.raises(ValueError, match="subsample"):
            simulate_lorenz96(n_series=5, length=20, subsample=subsample)

    def test_negative_burn_in(self):
        with pytest.raises(ValueError, match="burn_in"):
            simulate_lorenz96(n_series=5, length=20, burn_in=-3)

    @pytest.mark.parametrize("dt", [0.0, -0.01, float("nan"), float("inf")])
    def test_dt_must_be_finite_and_positive(self, dt):
        with pytest.raises(ValueError, match="dt"):
            simulate_lorenz96(n_series=5, length=20, dt=dt)

    @pytest.mark.parametrize("forcing", [float("nan"), float("inf")])
    def test_forcing_must_be_finite(self, forcing):
        with pytest.raises(ValueError, match="forcing"):
            simulate_lorenz96(n_series=5, length=20, forcing=forcing)

    @pytest.mark.parametrize("noise_std", [-0.1, float("nan")])
    def test_noise_std_must_be_finite_and_non_negative(self, noise_std):
        with pytest.raises(ValueError, match="noise_std"):
            simulate_lorenz96(n_series=5, length=20, noise_std=noise_std)

    def test_diverged_integration_names_first_sample(self):
        with pytest.raises(ValueError, match=r"diverged: sample 0 "):
            simulate_lorenz96(n_series=5, length=20, dt=5.0,
                              rng=np.random.default_rng(0))

    def test_dataset_and_registry_validate_through_the_simulator(self):
        with pytest.raises(ValueError, match="subsample"):
            lorenz96_dataset(length=20, subsample=0, seed=0)
        with pytest.raises(ValueError, match="diverged"):
            build_dataset("lorenz96", seed=0, length=20, dt=5.0)


class TestGroundTruthGraph:
    def test_each_variable_has_four_causes(self):
        graph = lorenz96_graph(10)
        for i in range(10):
            assert len(graph.parents(i)) == 4  # i-2, i-1, i+1 and itself

    def test_without_self_loops(self):
        graph = lorenz96_graph(10, include_self_loops=False)
        for i in range(10):
            assert len(graph.parents(i)) == 3

    def test_ring_wraparound(self):
        graph = lorenz96_graph(5)
        assert graph.has_edge(4, 0)   # i-1 of variable 0
        assert graph.has_edge(3, 0)   # i-2 of variable 0
        assert graph.has_edge(1, 0)   # i+1 of variable 0


class TestDataset:
    def test_paper_defaults(self):
        dataset = lorenz96_dataset(length=100, seed=0)
        assert dataset.n_series == 10
        assert 30.0 <= dataset.metadata["forcing"] <= 40.0
        assert dataset.graph.n_edges == 40

    def test_explicit_forcing(self):
        dataset = lorenz96_dataset(length=50, forcing=32.0, seed=1)
        assert dataset.metadata["forcing"] == 32.0

    def test_reproducible(self):
        a = lorenz96_dataset(length=80, seed=9)
        b = lorenz96_dataset(length=80, seed=9)
        np.testing.assert_array_equal(a.values, b.values)
