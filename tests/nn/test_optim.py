"""Optimisers: Adam behaviour, and StackedAdam rows against Adam bit for bit."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.layers import Linear
from repro.nn.module import Parameter
from repro.nn.optim import Adam, ParameterStack, StackedAdam
from repro.nn.tensor import Tensor, default_dtype


def _linear_regression_loss(layer, inputs, targets):
    prediction = layer(Tensor(inputs)).squeeze(-1)
    return F.mse_loss(prediction, Tensor(targets))


def _make_problem(seed=0, n=80, d=4):
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(n, d))
    true_weights = rng.normal(size=d)
    targets = inputs @ true_weights + 0.5
    return inputs, targets


class TestAdam:
    def test_converges_on_regression(self):
        inputs, targets = _make_problem(seed=2)
        layer = Linear(4, 1)
        optimizer = Adam(layer.parameters(), lr=0.05)
        for _ in range(200):
            optimizer.zero_grad()
            loss = _linear_regression_loss(layer, inputs, targets)
            loss.backward()
            optimizer.step()
        assert float(loss.data) < 1e-3

    def test_zero_grad_clears(self):
        layer = Linear(2, 1)
        optimizer = Adam(layer.parameters(), lr=0.01)
        _linear_regression_loss(layer, np.ones((4, 2)), np.ones(4)).backward()
        optimizer.zero_grad()
        assert all(p.grad is None for p in layer.parameters())

    def test_step_count_affects_bias_correction(self):
        parameter = Parameter(np.array([1.0]))
        optimizer = Adam([parameter], lr=0.1)
        parameter.grad = np.array([1.0])
        optimizer.step()
        first_update = 1.0 - parameter.data[0]
        # The very first Adam step should be close to the learning rate.
        assert first_update == pytest.approx(0.1, rel=1e-3)

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.array([1.0]))], betas=(1.0, 0.9))

    def test_empty_parameter_list_rejected(self):
        with pytest.raises(ValueError):
            Adam([])

    def test_clip_norm_bounds_the_moments(self):
        parameter = Parameter(np.zeros(4))
        optimizer = Adam([parameter], lr=0.1, clip_norm=1e-3)
        parameter.grad = np.full(4, 10.0)
        optimizer.step()
        # The gradient (norm 20) is scaled to norm 1e-3 before the moments
        # see it; Adam's first step is ~lr whatever the gradient scale.
        np.testing.assert_allclose(optimizer._flat_m, 0.1 * 5e-4)
        np.testing.assert_allclose(parameter.data, -0.1, rtol=1e-3)


SHAPES = [(3, 4), (5,), (2, 2, 3)]
LR = 0.05


class _Fleet:
    """A :class:`StackedAdam` over a :class:`ParameterStack` of ``k``
    rows, with one plain :class:`Adam` per row as its reference."""

    def __init__(self, dtype, k, clip_norm, seed=0):
        self.dtype = dtype
        self.clip_norm = clip_norm
        self.rng = np.random.default_rng(seed)
        with default_dtype(dtype):
            self.models = [[Parameter(self.rng.normal(size=shape))
                            for shape in SHAPES] for _ in range(k)]
            self.references = [[Parameter(p.data.copy()) for p in model]
                               for model in self.models]
        self.stack = ParameterStack([f"p{i}" for i in range(len(SHAPES))],
                                    self.models)
        self.optimizer = StackedAdam(self.stack.params, lr=LR,
                                     clip_norm=clip_norm)
        self.adams = [Adam(reference, lr=LR, clip_norm=clip_norm)
                      for reference in self.references]

    def step(self, active):
        """One update of the first ``active`` rows: the stack, and each
        row's own Adam."""
        grads = self.rng.normal(size=self.stack.grads.shape) \
            .astype(self.dtype)
        for row in range(active):
            for view, shape, parameter in zip(self.stack.slices,
                                              self.stack.shapes,
                                              self.references[row]):
                parameter.grad = grads[row, view].reshape(shape).copy()
            self.adams[row].step()
        self.optimizer.step(grads, active)

    def assert_row_matches(self, row):
        """Stack row ``row`` equals its reference Adam bit for bit."""
        adam = self.adams[row]
        flat = np.concatenate([p.data.ravel() for p in self.references[row]])
        assert self.stack.params.dtype == flat.dtype == self.dtype
        assert np.array_equal(self.stack.params[row], flat), row
        assert np.array_equal(self.optimizer.m[row], adam._flat_m), row
        assert np.array_equal(self.optimizer.v[row], adam._flat_v), row
        assert self.optimizer.t == adam._step_count, row


DTYPES = [np.float32, np.float64]
#: no clipping; a bound every step's gradient exceeds; one none reaches
CLIPS = [None, 0.5, 1e6]


class TestParameterStack:
    def test_rows_hold_each_models_parameters_as_views(self):
        fleet = _Fleet(np.float32, k=2, clip_norm=None)
        stack = fleet.stack
        assert stack.params.shape == stack.grads.shape == (2, stack.n_params)
        for row, model in enumerate(fleet.models):
            flat = np.concatenate([p.data.ravel() for p in model])
            assert np.array_equal(stack.params[row], flat)
            for parameter in model:
                assert parameter.data.base is stack.params
        stacked, grad_views = stack.views(2)
        assert stacked["p0"].shape == grad_views["p0"].shape == (2, 3, 4)
        stacked["p1"][1] += 1.0
        assert np.array_equal(fleet.models[1][1].data, stacked["p1"][1])

    def test_views_cover_only_the_live_prefix(self):
        """After compaction the engine views the first ``m`` rows: the
        views alias those rows of both matrices and no row past them."""
        fleet = _Fleet(np.float64, k=3, clip_norm=None)
        stack = fleet.stack
        stacked, grad_views = stack.views(2)
        for name, shape in zip(stack.names, SHAPES):
            assert stacked[name].shape == grad_views[name].shape \
                == (2,) + shape
            assert not np.shares_memory(stacked[name], stack.params[2])
            assert not np.shares_memory(grad_views[name], stack.grads[2])
        stack.grads[:] = 0.0
        grad_views["p2"][1] = 7.0
        assert np.array_equal(stack.grads[1, stack.slices[2]],
                              np.full(12, 7.0))
        assert not stack.grads[[0, 2]].any()

    def test_rejects_mixed_dtypes(self):
        with default_dtype(np.float32):
            narrow = Parameter(np.zeros(3))
        with default_dtype(np.float64):
            wide = Parameter(np.zeros(3))
        with pytest.raises(ValueError, match="dtype"):
            ParameterStack(["a", "b"], [[narrow, wide]])


class TestStackedAdam:
    """Every row of :class:`StackedAdam` is :meth:`Adam.step` bit for bit."""

    @pytest.mark.parametrize("clip_norm", CLIPS)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_full_prefix_rows_match_adam(self, dtype, clip_norm):
        fleet = _Fleet(dtype, k=3, clip_norm=clip_norm)
        for _ in range(6):
            fleet.step(active=3)
        for row in range(3):
            fleet.assert_row_matches(row)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_one_row_matches_adam(self, dtype):
        """K = 1, the solo training engine's optimizer."""
        fleet = _Fleet(dtype, k=1, clip_norm=0.5)
        for _ in range(5):
            fleet.step(active=1)
        fleet.assert_row_matches(0)

    @pytest.mark.parametrize("clip_norm", CLIPS)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_rows_past_active_are_untouched(self, dtype, clip_norm):
        """A step over the first ``active`` rows leaves a compacted-away
        row's parameters, moments and gradient row as they were, and the
        live rows still match Adam."""
        fleet = _Fleet(dtype, k=3, clip_norm=clip_norm)
        for _ in range(2):
            fleet.step(active=3)
        optimizer = fleet.optimizer
        before = (fleet.stack.params[2].copy(), optimizer.m[2].copy(),
                  optimizer.v[2].copy())
        for _ in range(3):
            fleet.step(active=2)
        for row in range(2):
            fleet.assert_row_matches(row)
        # Large enough for the 0.5 bound to clip every row.
        grads = fleet.rng.normal(size=fleet.stack.grads.shape) \
            .astype(dtype) * 100.0
        spare = grads[2].copy()
        optimizer.step(grads, 2)
        assert np.array_equal(grads[2], spare)
        after = (fleet.stack.params[2], optimizer.m[2], optimizer.v[2])
        for old, new in zip(before, after):
            assert np.array_equal(old, new)

    def test_clipping_is_per_row(self):
        fleet = _Fleet(np.float64, k=2, clip_norm=0.5)
        grads = np.zeros_like(fleet.stack.grads)
        grads[0] = 100.0
        grads[1] = 1e-4
        fleet.optimizer.step(grads, 2)
        # After the in-place g² each row holds its squared clipped gradient.
        assert np.sqrt(grads[0].sum()) == pytest.approx(0.5)
        assert np.array_equal(grads[1], np.full_like(grads[1], 1e-4) ** 2)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_compact_row_shifts_the_tail(self, dtype):
        fleet = _Fleet(dtype, k=4, clip_norm=None)
        for _ in range(3):
            fleet.step(active=4)
        stack = fleet.stack
        for r in range(1, 3):
            stack.params[r] = stack.params[r + 1]
        fleet.optimizer.compact_row(1, 4)
        del fleet.adams[1], fleet.references[1]
        for row in range(3):
            fleet.assert_row_matches(row)
        fleet.step(active=3)
        for row in range(3):
            fleet.assert_row_matches(row)

    @pytest.mark.parametrize("row", [0, 3])
    def test_compact_an_end_row(self, row):
        """Compacting the first row shifts every other row up; compacting
        the last one moves nothing.  Either way the survivors keep
        matching Adam."""
        fleet = _Fleet(np.float64, k=4, clip_norm=0.5)
        for _ in range(3):
            fleet.step(active=4)
        stack = fleet.stack
        for r in range(row, 3):
            stack.params[r] = stack.params[r + 1]
        fleet.optimizer.compact_row(row, 4)
        del fleet.adams[row], fleet.references[row]
        for survivor in range(3):
            fleet.assert_row_matches(survivor)
        fleet.step(active=3)
        for survivor in range(3):
            fleet.assert_row_matches(survivor)
