"""Reference parity and arena-reuse tests for the fused no-autograd inference engine.

Every engine pass — forward, loss, ``evaluate``, the detector-facing cache
forward and the hand-derived all-targets gradients — must match the plain
autograd reference (``CausalityAwareTransformer.forward``/``loss``) across
the Table 3 training ablation grid in float64 and float32.  The engine and
the reference sum in different orders, so these are tolerance checks
(``tests.conftest.REFERENCE_TOLERANCE``).  Inside the engines the contract
stays exact: a K-model fleet reproduces each model's fleet of one (the
``InferenceEngine`` face) bit for bit, and steady-state evaluation reuses
its scratch buffers instead of allocating.
"""

import itertools

import numpy as np
import pytest

from repro.core.config import CausalFormerConfig
from repro.core.relevance import _model_axis_view
from repro.core.training import Trainer
from repro.core.transformer import CausalityAwareTransformer
from repro.nn.inference import (InferenceEngine, ScratchArena,
                                StackedInferenceEngine, _take_branch_buffers,
                                max_last_keepdims, series_diagonal)
from repro.nn.tensor import Tensor, default_dtype, no_grad
from tests.conftest import ABLATION_GRID, assert_matches_reference


def build(dtype, n_series=5, window=12, n_heads=3, seed=0, **overrides):
    with default_dtype(dtype):
        config = CausalFormerConfig(
            n_series=n_series, window=window, d_model=18, d_qk=18, d_ffn=18,
            n_heads=n_heads, batch_size=4, seed=seed, **overrides)
        model = CausalityAwareTransformer(config)
    return model, config


def window_batch(model, batch=7, seed=1):
    config = model.config
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(batch, config.n_series, config.window))
    return np.ascontiguousarray(data, dtype=model.embedding.weight.data.dtype)


class TestScratchArena:
    def test_take_reuses_buffer(self):
        arena = ScratchArena()
        first = arena.take("x", (4, 4), np.float64)
        second = arena.take("x", (4, 4), np.float64)
        assert first is second

    def test_take_reallocates_on_shape_change(self):
        arena = ScratchArena()
        first = arena.take("x", (4, 4), np.float64)
        second = arena.take("x", (2, 4), np.float64)
        assert first is not second
        assert second.shape == (2, 4)

    def test_buffers_zero_filled_on_allocation(self):
        arena = ScratchArena()
        assert not arena.take("x", (8,), np.float64).any()

    def test_space_caches_views(self):
        arena = ScratchArena()
        space = arena.space(("test", (3,)))
        buffer = space.take("b", (6,), np.float64)
        view = space.view("b2", lambda: buffer.reshape(2, 3))
        assert space.view("b2", lambda: None) is view
        assert arena.space(("test", (3,))) is space

    def test_nbytes_counts_spaces(self):
        arena = ScratchArena()
        arena.take("a", (8,), np.float64)
        arena.space(("s",)).take("b", (8,), np.float64)
        assert arena.nbytes == 2 * 8 * 8
        assert len(arena) == 2


class TestMaxLastKeepdims:
    @pytest.mark.parametrize("length", [2, 16, 17, 40, 48, 49, 64])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_equals_numpy_max(self, length, dtype):
        """Chained or reduced, the row maximum is numpy's, NaN and -inf
        included."""
        rows = np.random.default_rng(length).normal(
            size=(3, 5, length)).astype(dtype)
        rows[0, 1, length // 2] = np.nan
        rows[1, 2, :] = -np.inf
        rows[2, 3, -1] = -np.inf
        rows[2, 4, 0] = np.nan
        expected = np.max(rows, axis=-1, keepdims=True)
        out = np.empty_like(expected)
        assert max_last_keepdims(rows, out=out) is out
        assert np.array_equal(out, expected, equal_nan=True)
        assert np.array_equal(max_last_keepdims(rows), expected,
                              equal_nan=True)


class TestForwardParity:
    @pytest.mark.parametrize("overrides", ABLATION_GRID)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_forward_matches_reference(self, dtype, overrides):
        model, _config = build(dtype, **overrides)
        x = window_batch(model)
        with no_grad():
            reference, _ = model(Tensor(x.copy()))
        prediction = InferenceEngine(model).forward(x)
        assert_matches_reference(prediction, reference.data, dtype)

    @pytest.mark.parametrize("overrides", ABLATION_GRID)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_loss_matches_reference(self, dtype, overrides):
        model, _config = build(dtype, **overrides)
        x = window_batch(model)
        with no_grad():
            prediction, _ = model(Tensor(x.copy()))
            reference = float(model.loss(prediction, Tensor(x.copy())).data)
        assert_matches_reference(InferenceEngine(model).loss(x), reference,
                                 dtype)

    def test_convolution_matches_reference(self):
        """The training layout is ``(target, source, B, T)``."""
        model, _config = build(np.float64)
        x = window_batch(model)
        fleet = InferenceEngine(model).fleet
        space = fleet.arena.space(("test", x.shape))
        stage = fleet._stage()
        _take_branch_buffers(space, x[None], stage)
        values, _flat = fleet._convolution(space, x[None], stage)
        with no_grad():
            reference = model.convolution(Tensor(x.copy()))
        assert_matches_reference(values[0].transpose(2, 1, 0, 3),
                                 reference.data, np.float64)

    @pytest.mark.parametrize("layout", ["contiguous", "source_major"])
    def test_series_diagonal_is_a_writable_view_of_the_self_series_rows(
            self, layout):
        m, n, batch, window = 2, 4, 3, 5
        if layout == "contiguous":
            tsbt = np.zeros((m, n, n, batch, window))
        else:
            tsbt = np.zeros((m, n, batch, window, n)).transpose(0, 4, 1, 2, 3)
        tsbt[...] = np.random.default_rng(0).normal(size=tsbt.shape)
        expected = tsbt.copy()
        diagonal = series_diagonal(tsbt)
        assert diagonal.shape == (m, n, batch, window)
        assert np.shares_memory(diagonal, tsbt)
        series = np.arange(n)
        assert np.array_equal(diagonal, expected[:, series, series])
        diagonal[...] = -7.0
        expected[:, series, series] = -7.0
        assert np.array_equal(tsbt, expected)

    def test_attention_probs_match_reference(self):
        model, _config = build(np.float64)
        x = window_batch(model)
        fleet = InferenceEngine(model).fleet
        space = fleet.arena.space(("test", x.shape))
        stage = fleet._stage()
        _take_branch_buffers(space, x[None], stage)
        probs = fleet._attention_probs(space, x[None], stage)
        with no_grad():
            _prediction, cache = model(Tensor(x.copy()))
        reference = np.stack([head.attention_data
                              for head in cache.head_caches])
        assert_matches_reference(probs[0], reference, np.float64)

    @pytest.mark.parametrize("overrides", ABLATION_GRID)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_evaluate_matches_chunked_reference(self, dtype, overrides):
        """Chunked no_grad reference validation, window-weighted."""
        model, config = build(dtype, window=10, **overrides)
        trainer = Trainer(model)
        windows = np.ascontiguousarray(
            np.random.default_rng(2).normal(size=(23, config.n_series, 10)),
            dtype=dtype)

        total = 0.0
        count = 0
        with no_grad():
            for start in range(0, windows.shape[0], config.batch_size):
                chunk = Tensor(windows[start:start + config.batch_size])
                prediction, _ = model(chunk)
                total += float(model.loss(prediction, chunk).data) * len(chunk)
                count += len(chunk)
        reference = total / count
        assert_matches_reference(trainer._evaluate(windows), reference, dtype)

    def test_evaluate_chunked_fallback_matches_full_batch(self):
        model, config = build(np.float64, window=10)
        engine = InferenceEngine(model)
        windows = np.random.default_rng(3).normal(size=(17, config.n_series, 10))
        full = engine.evaluate(windows, config.batch_size)
        engine.fleet.FULL_BATCH_ELEMENT_LIMIT = 1   # force the chunk loop
        assert engine.evaluate(windows, config.batch_size) == full

    def test_predict_matches_forward_and_owns_result(self):
        model, _config = build(np.float64)
        x = window_batch(model, batch=2)
        first = model.predict(x)
        second = model.predict(np.zeros_like(x))
        assert not np.array_equal(first, second)   # no buffer aliasing
        assert np.array_equal(model.predict(x), first)
        with no_grad():
            reference, _ = model(Tensor(x.copy()))
        assert_matches_reference(first, reference.data, np.float64)

    def test_predict_accepts_2d_window(self):
        model, config = build(np.float64)
        x = window_batch(model, batch=1)
        assert model.predict(x[0]).shape == (config.n_series, config.window)

    @pytest.mark.parametrize("window_dtype",
                             [np.float32, np.float64, np.int64])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_predict_ingests_windows_without_a_float64_detour(
            self, dtype, window_dtype):
        """Casting straight to the model batch gives the same bytes as
        casting every window set to float64 first, for 3-D batches and a
        2-D single window alike, under either session default dtype."""
        model, _config = build(dtype)
        x = window_batch(model, batch=3).astype(np.float64)
        x = (4 * x).astype(window_dtype)
        engine = InferenceEngine(model)
        for session_dtype, windows in itertools.product(
                dict.fromkeys((dtype, np.float64)), (x, x[0])):
            with default_dtype(session_dtype):
                detour = engine.fleet.forward(
                    [windows.astype(np.float64)])[0].copy()
                if windows.ndim == 2:
                    detour = detour[0]
                prediction = engine.predict(windows)
                assert prediction.dtype == detour.dtype
                assert prediction.tobytes() == detour.tobytes()


#: the fields of an interpretation forward that the one adapter
#: (``_model_axis_view``) translates from the reference's cache
LAYOUT_FIELDS = ("tsbt", "pre_shift", "windows_flat", "attention_probs",
                 "heads", "combined", "hidden", "activated", "ffn_output",
                 "output")

#: every array field of an interpretation forward
FORWARD_FIELDS = ("inputs", "embedding", "raw_scores", "slope") \
    + LAYOUT_FIELDS


class TestCachePathParity:
    @pytest.mark.parametrize("overrides", ABLATION_GRID)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_interpretation_forward_matches_reference(self, dtype, overrides):
        model, _config = build(dtype, **overrides)
        x = window_batch(model)
        with no_grad():
            _prediction, cache = model(Tensor(x.copy()))
        forward = InferenceEngine(model).interpretation_forward(x)
        reference = _model_axis_view(cache, model)
        for field in LAYOUT_FIELDS:
            assert_matches_reference(getattr(forward, field),
                                     getattr(reference, field), dtype,
                                     err_msg=field)
        assert_matches_reference(forward.inputs[0], cache.inputs, dtype)
        assert_matches_reference(forward.embedding[0], cache.embedding, dtype)
        # The forward keeps the unmodulated scores; the modulation multiply
        # replayed on them gives the reference's masked scores.
        scores = forward.raw_scores * forward.stage["modulation"]
        reference_scores = np.stack([head.scores_data
                                     for head in cache.head_caches])
        assert_matches_reference(scores[0], reference_scores, dtype)

    @pytest.mark.parametrize("overrides", ABLATION_GRID)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_interpretation_gradients_match_reference(self, dtype, overrides):
        model, config = build(dtype, **overrides)
        x = window_batch(model, batch=4)
        engine = InferenceEngine(model)
        forward = engine.interpretation_forward(x)
        attention_grads, kernel_grads = engine.interpretation_gradients(
            forward)
        others = np.arange(config.n_series)
        for target in range(config.n_series):
            model.zero_grad()
            prediction, cache = model(Tensor(x.copy()))
            one_hot = np.zeros_like(prediction.data)
            one_hot[:, target, :] = 1.0
            (prediction * Tensor(one_hot)).sum().backward()
            reference = np.stack([head.attention.grad
                                  for head in cache.head_caches])
            kernel_reference = model.convolution.kernel.grad
            # One autograd pass per target touches only that target's row
            # of A and effect column of K: the one-pass engine reads them.
            assert not reference[:, :, others != target].any()
            assert_matches_reference(attention_grads[:, :, target],
                                     reference[:, :, target], dtype)
            if config.single_kernel:
                assert_matches_reference(kernel_grads[:, target],
                                         kernel_reference[:, 0], dtype)
            else:
                assert not kernel_reference[:, others != target].any()
                assert_matches_reference(kernel_grads[:, target],
                                         kernel_reference[:, target], dtype)


class TestSteadyStateReuse:
    def test_evaluate_allocates_no_new_buffers_after_warmup(self):
        model, config = build(np.float64)
        engine = InferenceEngine(model)
        windows = np.random.default_rng(4).normal(
            size=(13, config.n_series, config.window))
        engine.evaluate(windows, config.batch_size)
        identifiers = engine.arena.buffer_ids()
        for _ in range(3):
            engine.evaluate(windows, config.batch_size)
        assert engine.arena.buffer_ids() == identifiers

    def test_interpretation_forward_reuses_buffers(self):
        model, config = build(np.float64)
        engine = InferenceEngine(model)
        windows = np.random.default_rng(5).normal(
            size=(4, config.n_series, config.window))
        engine.interpretation_forward(windows)
        identifiers = engine.arena.buffer_ids()
        engine.interpretation_forward(windows)
        assert engine.arena.buffer_ids() == identifiers

    def test_interpretation_gradients_stay_out_of_the_arena(self):
        """The all-ones backward allocates its buffers per call: the arena
        holds nothing new afterwards, the forward views relevance
        propagation reads are left untouched, and two calls return equal
        gradients in arrays of their own."""
        model, _config = build(np.float64)
        engine = InferenceEngine(model)
        forward = engine.interpretation_forward(window_batch(model, batch=4))
        identifiers = engine.fleet.arena.buffer_ids()
        nbytes = engine.fleet.arena.nbytes
        before = {name: np.copy(value)
                  for name, value in vars(forward).items()
                  if isinstance(value, np.ndarray)}
        first = engine.interpretation_gradients(forward)
        second = engine.interpretation_gradients(forward)
        assert engine.fleet.arena.buffer_ids() == identifiers
        assert engine.fleet.arena.nbytes == nbytes
        for name, value in before.items():
            assert np.array_equal(getattr(forward, name), value), name
        for left, right in zip(first, second):
            assert np.array_equal(left, right)
            assert not np.shares_memory(left, right)


class TestStackedEngine:
    """A K-model StackedInferenceEngine: per-model results bit-identical to
    each model's fleet of one (the InferenceEngine face), in float64 and
    float32 alike (the stacked buffers dispatch the same per-slice GEMMs and
    reductions at any width)."""

    def _fleet(self, dtype, n_models=3, **overrides):
        models = [build(dtype, seed=seed, **overrides)[0]
                  for seed in range(n_models)]
        rng = np.random.default_rng(7)
        window_sets = [np.ascontiguousarray(
            rng.normal(size=(9,
                             models[0].config.n_series,
                             models[0].config.window)),
            dtype=models[0].embedding.weight.data.dtype)
            for _ in models]
        return models, window_sets

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_evaluate_matches_per_model(self, dtype):
        models, window_sets = self._fleet(dtype)
        stacked = StackedInferenceEngine(models).evaluate(window_sets, 4)
        single = [InferenceEngine(model).evaluate(windows, 4)
                  for model, windows in zip(models, window_sets)]
        assert stacked == single

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_chunked_evaluate_matches_per_model(self, dtype, monkeypatch):
        monkeypatch.setattr(StackedInferenceEngine, "FULL_BATCH_ELEMENT_LIMIT",
                            1)
        models, window_sets = self._fleet(dtype)
        stacked = StackedInferenceEngine(models).evaluate(window_sets, 4)
        single = [InferenceEngine(model).evaluate(windows, 4)
                  for model, windows in zip(models, window_sets)]
        assert stacked == single

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_forward_matches_per_model(self, dtype):
        models, window_sets = self._fleet(dtype)
        stacked = StackedInferenceEngine(models).forward(window_sets)
        for row, (model, windows) in enumerate(zip(models, window_sets)):
            # predict() replays the same Tensor-construction cast chain the
            # stacked batch staging uses, so the comparison holds whatever
            # the ambient session dtype is.
            single = InferenceEngine(model).predict(windows)
            assert np.array_equal(stacked[row], single)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("single_kernel", [False, True])
    def test_interpretation_forward_matches_per_model(self, dtype,
                                                      single_kernel):
        models, window_sets = self._fleet(dtype, single_kernel=single_kernel)
        stacked = StackedInferenceEngine(models)
        forward = stacked.interpretation_forward(window_sets)
        for row, (model, windows) in enumerate(zip(models, window_sets)):
            reference = InferenceEngine(model).interpretation_forward(windows)
            for name in FORWARD_FIELDS:
                assert np.array_equal(getattr(forward, name)[row],
                                      getattr(reference, name)[0]), name

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("single_kernel", [False, True])
    def test_interpretation_gradients_match_per_model(self, dtype,
                                                      single_kernel):
        models, window_sets = self._fleet(dtype, single_kernel=single_kernel)
        stacked = StackedInferenceEngine(models)
        forward = stacked.interpretation_forward(window_sets)
        attention_grads, kernel_grads = stacked.interpretation_gradients(
            forward)
        for row, (model, windows) in enumerate(zip(models, window_sets)):
            engine = InferenceEngine(model)
            reference = engine.interpretation_gradients(
                engine.interpretation_forward(windows))
            assert np.array_equal(attention_grads[row], reference[0])
            assert np.array_equal(kernel_grads[row], reference[1])

    def test_rejects_mismatched_architectures(self):
        model_a, _ = build(np.float64)
        model_b, _ = build(np.float64, window=16)
        with pytest.raises(ValueError, match="same-architecture"):
            StackedInferenceEngine([model_a, model_b])

    def test_rejects_mismatched_window_shapes(self):
        models, window_sets = self._fleet(np.float64, n_models=2)
        with pytest.raises(ValueError, match="same-shape"):
            StackedInferenceEngine(models).evaluate(
                [window_sets[0], window_sets[1][:4]], 4)

    def test_steady_state_reuses_buffers(self):
        models, window_sets = self._fleet(np.float64)
        engine = StackedInferenceEngine(models)
        first = engine.evaluate(window_sets, 4)
        identifiers = engine.arena.buffer_ids()
        second = engine.evaluate(window_sets, 4)
        assert engine.arena.buffer_ids() == identifiers
        assert first == second


class TestStackedEngineValidation:
    def test_rejects_mismatched_temperature(self):
        model_a, _ = build(np.float64)
        model_b, _ = build(np.float64, seed=1)
        model_b.attention.temperature = 2.0
        with pytest.raises(ValueError, match="temperature"):
            StackedInferenceEngine([model_a, model_b])

    def test_full_batch_budget_scales_with_fleet_size(self):
        """The stacked full-batch branch divides the element budget by the
        fleet size; whichever branch each side takes, the per-model results
        stay bit-identical."""
        models = [build(np.float64, seed=seed)[0] for seed in range(3)]
        rng = np.random.default_rng(3)
        window_sets = [np.ascontiguousarray(
            rng.normal(size=(9, models[0].config.n_series,
                             models[0].config.window)))
            for _ in models]
        per_model_elements = 9 * models[0].config.n_series ** 2 \
            * models[0].config.window
        # A limit between the per-model and the stacked footprint: the
        # fleets of one run full-batch, the three-model fleet chunks.
        original = StackedInferenceEngine.FULL_BATCH_ELEMENT_LIMIT
        StackedInferenceEngine.FULL_BATCH_ELEMENT_LIMIT = 2 * per_model_elements
        try:
            stacked = StackedInferenceEngine(models).evaluate(window_sets, 4)
            single = [InferenceEngine(model).evaluate(windows, 4)
                      for model, windows in zip(models, window_sets)]
        finally:
            StackedInferenceEngine.FULL_BATCH_ELEMENT_LIMIT = original
        assert stacked == single


class TestSharedBackwardStages:
    """The backward stages the training step and the detector share, each
    against a plain einsum of its math.  One model chunks over the inner
    axis and three over the model axis, so both layouts are covered."""

    BATCH, N, WINDOW, HEADS, D_FFN = 3, 4, 5, 2, 6
    # einsum and the stages' GEMMs sum in different orders.
    TOLERANCE = {"rtol": 1e-12, "atol": 1e-12}

    @staticmethod
    def engine(n_models):
        model, _config = build(np.float64)
        return StackedInferenceEngine([model] * n_models)

    @pytest.mark.parametrize("n_models", [1, 3])
    def test_mlp_input_backward_matches_einsum(self, n_models):
        rng = np.random.default_rng(11)
        rows = self.BATCH * self.N
        grad_output = rng.normal(size=(n_models, rows, self.WINDOW))
        stage = {"w1": rng.normal(size=(n_models, self.WINDOW, self.D_FFN)),
                 "w2": rng.normal(size=(n_models, self.D_FFN, self.WINDOW)),
                 "w3": rng.normal(size=(n_models, self.WINDOW, self.WINDOW))}
        slope = np.where(rng.random((n_models, rows, self.D_FFN)) > 0.5,
                         1.0, 0.01)
        grad_ffn = np.empty_like(grad_output)
        grad_hidden = np.empty_like(slope)
        grad_combined = np.empty_like(grad_output)
        self.engine(n_models)._mlp_input_backward(
            grad_output, stage, slope, grad_ffn, grad_hidden, grad_combined)
        expected_ffn = np.einsum("mrt,mst->mrs", grad_output, stage["w3"])
        expected_hidden = np.einsum("mrt,mft->mrf", expected_ffn,
                                    stage["w2"]) * slope
        expected = np.einsum("mrf,mtf->mrt", expected_hidden, stage["w1"])
        np.testing.assert_allclose(grad_ffn, expected_ffn, **self.TOLERANCE)
        np.testing.assert_allclose(grad_hidden, expected_hidden,
                                   **self.TOLERANCE)
        np.testing.assert_allclose(grad_combined, expected, **self.TOLERANCE)

    @pytest.mark.parametrize("n_models", [1, 3])
    def test_combine_backward_matches_einsum(self, n_models):
        rng = np.random.default_rng(12)
        m, b, n, h, t = n_models, self.BATCH, self.N, self.HEADS, self.WINDOW
        grad_combined = rng.normal(size=(m, b * n, t))
        stage = {"w_output": rng.normal(size=(m, h))}
        probs = rng.random((m, h, b, n, n))
        tsbt = rng.normal(size=(m, n, n, b, t))
        grad_heads = np.empty((m, b, n, h, t))
        grad_probs = np.empty_like(probs)
        grad_tsbt = np.empty_like(tsbt)
        engine = self.engine(m)
        engine._combine_backward(grad_combined, stage, grad_heads)
        engine._combine_attention_backward(grad_heads, tsbt, grad_probs)
        engine._combine_values_backward(grad_heads, probs, grad_tsbt)
        expected_heads = np.einsum("mbit,mh->mbiht",
                                   grad_combined.reshape(m, b, n, t),
                                   stage["w_output"])
        np.testing.assert_allclose(grad_heads, expected_heads,
                                   **self.TOLERANCE)
        np.testing.assert_allclose(
            grad_probs, np.einsum("mbiht,mijbt->mhbij", expected_heads, tsbt),
            **self.TOLERANCE)
        np.testing.assert_allclose(
            grad_tsbt, np.einsum("mhbij,mbiht->mijbt", probs, expected_heads),
            **self.TOLERANCE)

    @pytest.mark.parametrize("n_models", [1, 3])
    def test_convolution_backward_matches_einsum(self, n_models):
        rng = np.random.default_rng(13)
        m, b, n, t = n_models, self.BATCH, self.N, self.WINDOW
        grad_tsbt = rng.normal(size=(m, n, n, b, t))
        scale = rng.random(b * t) + 0.5
        windows_flat = rng.normal(size=(m, n, b * t, t))
        kernel_grads = np.empty((m, n, n, t))
        # Undo the Eq. 4 right-shift of the self-series rows by hand.
        unshifted = grad_tsbt.copy()
        for i in range(n):
            unshifted[:, i, i, :, :-1] = grad_tsbt[:, i, i, :, 1:]
            unshifted[:, i, i, :, -1] = 0.0
        rescaled = unshifted.reshape(m, n, n, b * t) * scale
        self.engine(m)._convolution_backward(
            grad_tsbt, np.empty((m, n, b, t - 1)), scale, windows_flat,
            kernel_grads)
        np.testing.assert_allclose(
            kernel_grads, np.einsum("mjsr,msrk->msjk", rescaled, windows_flat),
            **self.TOLERANCE)
