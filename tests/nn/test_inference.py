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

import numpy as np
import pytest

from repro.core.config import CausalFormerConfig
from repro.core.training import Trainer
from repro.core.transformer import CausalityAwareTransformer
from repro.nn.inference import (InferenceEngine, ScratchArena,
                                StackedInferenceEngine)
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
        model, _config = build(np.float64)
        x = window_batch(model)
        fleet = InferenceEngine(model).fleet
        space = fleet.arena.space(("test", x.shape))
        values, _flat = fleet._convolution(space, x[None], fleet._stage())
        with no_grad():
            reference = model.convolution(Tensor(x.copy()))
        assert_matches_reference(values[0], reference.data, np.float64)

    def test_attention_probs_match_reference(self):
        model, _config = build(np.float64)
        x = window_batch(model)
        fleet = InferenceEngine(model).fleet
        space = fleet.arena.space(("test", x.shape))
        probs = fleet._attention_probs(space, x[None], fleet._stage())
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
        trainer = Trainer(model, config)
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


CACHE_FIELDS = ("inputs", "embedding", "values", "values_pre_shift",
                "conv_windows", "attention_combined", "ffn_hidden",
                "ffn_activated", "ffn_output", "output")


class TestCachePathParity:
    @pytest.mark.parametrize("overrides", ABLATION_GRID)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_interpretation_forward_matches_reference(self, dtype, overrides):
        model, _config = build(dtype, **overrides)
        x = window_batch(model)
        with no_grad():
            _prediction, reference = model(Tensor(x.copy()))
        cache = InferenceEngine(model).interpretation_forward(x).cache
        for field in CACHE_FIELDS:
            assert_matches_reference(getattr(cache, field),
                                     getattr(reference, field), dtype,
                                     err_msg=field)
        assert len(cache.head_caches) == len(reference.head_caches)
        for head_ref, head in zip(reference.head_caches, cache.head_caches):
            assert_matches_reference(head.attention_data,
                                     head_ref.attention_data, dtype)
            assert_matches_reference(head.head_output_data,
                                     head_ref.head_output_data, dtype)
            assert_matches_reference(head.scores_data, head_ref.scores_data,
                                     dtype)

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
            cache_a, cache_b = reference.cache, forward.forwards[row].cache
            for name in ("inputs", "embedding", "values_pre_shift", "values",
                         "conv_windows", "attention_combined", "ffn_hidden",
                         "ffn_activated", "ffn_output", "output"):
                assert np.array_equal(getattr(cache_a, name),
                                      getattr(cache_b, name)), name
            for head_a, head_b in zip(cache_a.head_caches,
                                      cache_b.head_caches):
                assert np.array_equal(head_a.attention_data,
                                      head_b.attention_data)
                assert np.array_equal(head_a.head_output_data,
                                      head_b.head_output_data)
                assert np.array_equal(head_a.scores_data, head_b.scores_data)

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
