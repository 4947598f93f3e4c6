"""The fused no-autograd training engine against the plain autograd reference.

Two contracts, stated separately:

* **Reference parity, at tolerance.**  The hand-derived
  :class:`TrainingEngine` backward must match ``loss.backward()`` on the
  plain autograd reference (``CausalityAwareTransformer.forward``/``loss``)
  across the Table 3 training ablation grid, including the single-kernel
  ablation, in float64 and float32.  The two sum in different orders, so
  this is a tolerance check (``tests.conftest.REFERENCE_TOLERANCE``).
* **Engine-internal bit identity.**  ``Trainer.fit``'s block gather must
  reproduce a naive shuffled per-batch loop over ``TrainingEngine
  .train_step`` bit for bit, and every row of a K-model stacked engine must
  equal that model's ``TrainingEngine`` step (the same engine at K = 1) bit
  for bit.
"""

import numpy as np
import pytest

from repro.core.batched import StackedCausalFormerTrainer
from repro.core.config import CausalFormerConfig
from repro.core.training import Trainer
from repro.core.transformer import CausalityAwareTransformer
from repro.nn.inference import StackedInferenceEngine
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor, default_dtype
from repro.nn.training_engine import TrainingEngine
from tests.conftest import ABLATION_GRID, assert_matches_reference


def make_config(**overrides):
    base = dict(n_series=4, window=10, d_model=14, d_qk=14, d_ffn=14,
                n_heads=3, seed=0, max_epochs=5, batch_size=8,
                window_stride=2, patience=3)
    base.update(overrides)
    return CausalFormerConfig(**base)


def reference_gradients(model, batch_np):
    """Loss and parameter gradients from one plain autograd reference step."""
    batch = Tensor(batch_np)
    model.zero_grad()
    prediction, _ = model(batch)
    loss = model.loss(prediction, batch)
    loss.backward()
    grads = {name: parameter.grad.copy()
             for name, parameter in model.named_parameters()}
    model.zero_grad()
    return float(loss.data), grads


def naive_fit(model, config, values):
    """``Trainer.fit`` with its epoch replaced by a naive per-batch loop.

    Shuffles, then gathers and steps one mini-batch at a time through
    ``TrainingEngine.train_step`` — what ``Trainer._run_epoch``'s block
    gather must reproduce bit for bit.
    """
    trainer = Trainer(model)

    def run_epoch(self, windows, rng):
        engine = self._training
        order = rng.permutation(windows.shape[0])
        losses = []
        for start in range(0, len(order), self.config.batch_size):
            batch = windows[order[start:start + self.config.batch_size]]
            losses.append(engine.train_step(engine.prepare_windows(batch)))
        return float(np.mean(losses)) if losses else float("nan")

    trainer._run_epoch = run_epoch.__get__(trainer, Trainer)
    return trainer.fit(values)


def training_series(seed, n_series=4, length=150):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n_series, length)).cumsum(axis=1)
    values -= values.mean(axis=1, keepdims=True)
    values /= values.std(axis=1, keepdims=True) + 1e-9
    return values


class TestReferenceParity:
    """Engine loss and gradients == reference loss and gradients, to rounding."""

    @pytest.mark.parametrize("overrides", ABLATION_GRID)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_gradients_match_reference(self, overrides, dtype):
        with default_dtype(dtype):
            config = make_config(**overrides)
            model = CausalityAwareTransformer(config)
            batch = np.random.default_rng(1).normal(
                size=(8, config.n_series, config.window))
            reference_loss, reference = reference_gradients(model, batch)
            engine = TrainingEngine(model)
            grads = engine.gradients(batch)
            loss = engine.forward_backward(engine.prepare_windows(batch))
            assert_matches_reference(loss, reference_loss, dtype)
            assert set(grads) == set(reference)
            # Per-parameter scale, floored relative to the largest gradient
            # so the exactly-zero key-bias gradients are not held to their
            # own rounding noise.
            floor = 1e-3 * max(np.abs(value).max()
                               for value in reference.values())
            for name, expected in reference.items():
                assert grads[name].dtype == expected.dtype, name
                assert_matches_reference(
                    grads[name], expected, dtype,
                    scale=max(np.abs(expected).max(), floor), err_msg=name)

    def test_loss_matches_reference(self):
        config = make_config()
        model = CausalityAwareTransformer(config)
        batch = np.random.default_rng(2).normal(
            size=(6, config.n_series, config.window))
        reference_loss, _grads = reference_gradients(model, batch)
        engine = TrainingEngine(model)
        loss = engine.forward_backward(engine.prepare_windows(batch))
        assert_matches_reference(loss, reference_loss, np.float64)

    def test_partial_batch_uses_its_own_space(self):
        """A trailing short batch must not corrupt the full-batch buffers."""
        config = make_config()
        engine = TrainingEngine(CausalityAwareTransformer(config))
        rng = np.random.default_rng(3)
        full = rng.normal(size=(8, config.n_series, config.window))
        short = rng.normal(size=(3, config.n_series, config.window))
        for batch in (full, short, full):
            # A fresh engine on an identical model is the uncorrupted answer.
            fresh = TrainingEngine(CausalityAwareTransformer(config))
            expected = fresh.gradients(batch)
            grads = engine.gradients(batch)
            for name, value in expected.items():
                assert np.array_equal(value, grads[name]), name


class TestFitParity:
    """The block-gather epoch matches a naive per-batch loop exactly."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("single_kernel", [False, True])
    def test_fit_bit_identical_to_naive_loop(self, dtype, single_kernel):
        with default_dtype(dtype):
            config = make_config(window=12, single_kernel=single_kernel)
            values = training_series(5)
            reference_model = CausalityAwareTransformer(config)
            reference = naive_fit(reference_model, config, values)
            model = CausalityAwareTransformer(config)
            history = Trainer(model).fit(values)
            assert history.train_loss == reference.train_loss
            assert history.validation_loss == reference.validation_loss
            assert history.best_epoch == reference.best_epoch
            assert history.best_validation_loss \
                == reference.best_validation_loss
            for (name, parameter), (_n, expected) in zip(
                    model.named_parameters(),
                    reference_model.named_parameters()):
                assert np.array_equal(parameter.data, expected.data), name

    def test_fit_deterministic_across_runs(self):
        """Fixed seed ⇒ identical histories and weights (guards the
        shuffle/index-view mini-batch refactor)."""
        config = make_config(max_epochs=4)
        values = training_series(7)

        def run():
            model = CausalityAwareTransformer(config)
            history = Trainer(model).fit(values)
            return history, model.state_dict()

        history_a, state_a = run()
        history_b, state_b = run()
        assert history_a.train_loss == history_b.train_loss
        assert history_a.validation_loss == history_b.validation_loss
        for key in state_a:
            assert np.array_equal(state_a[key], state_b[key]), key


class TestStackedGradientParity:
    """Per-model K-lane gradients == each model's K = 1 gradients, to the bit."""

    @pytest.mark.parametrize("overrides", ABLATION_GRID)
    def test_stacked_gradients_bit_identical(self, overrides):
        configs = [make_config(seed=seed, **overrides) for seed in range(3)]
        solo_models = [CausalityAwareTransformer(config)
                       for config in configs]
        stacked_models = [CausalityAwareTransformer(config)
                          for config in configs]
        trainer = StackedCausalFormerTrainer(stacked_models)
        rng = np.random.default_rng(11)
        batches = [rng.normal(size=(8, configs[0].n_series,
                                    configs[0].window))
                   for _ in configs]
        references = []
        for model, config, batch in zip(solo_models, configs, batches):
            engine = TrainingEngine(model)
            grads = engine.gradients(batch)
            references.append(
                (engine.forward_backward(engine.prepare_windows(batch)), grads))
        stacked_batch = np.stack(
            [np.asarray(batch, dtype=trainer.dtype) for batch in batches])
        losses, _grads = trainer._forward_backward(stacked_batch)
        for row, (reference_loss, reference) in enumerate(references):
            assert losses[row] == reference_loss
            for name, expected in reference.items():
                assert np.array_equal(expected,
                                      trainer._grad_views[name][row]), \
                    (row, name)


class TestOneBackward:
    """The training step and the detector run one set of backward stages.

    Each call must reach every shared stage exactly once, so a private copy
    of a stage in either caller fails here.
    """

    STAGES = ("_mlp_input_backward", "_combine_backward",
              "_convolution_backward")

    def count_stage_calls(self, monkeypatch):
        counts = dict.fromkeys(self.STAGES, 0)
        for name in self.STAGES:
            original = getattr(StackedInferenceEngine, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(StackedInferenceEngine, name, counting)
        return counts

    @staticmethod
    def fleet(single_kernel):
        configs = [make_config(seed=seed, single_kernel=single_kernel)
                   for seed in range(2)]
        models = [CausalityAwareTransformer(config) for config in configs]
        rng = np.random.default_rng(6)
        batch = rng.normal(size=(len(models), 8, configs[0].n_series,
                                 configs[0].window))
        return models, batch

    @pytest.mark.parametrize("single_kernel", [False, True])
    def test_train_step_runs_each_stage_once(self, monkeypatch,
                                             single_kernel):
        models, batch = self.fleet(single_kernel)
        trainer = StackedCausalFormerTrainer(models)
        counts = self.count_stage_calls(monkeypatch)
        trainer.engine.train_step(np.ascontiguousarray(batch,
                                                       dtype=trainer.dtype))
        assert counts == dict.fromkeys(self.STAGES, 1)

    @pytest.mark.parametrize("single_kernel", [False, True])
    def test_interpretation_gradients_run_each_stage_once(
            self, monkeypatch, single_kernel):
        models, batch = self.fleet(single_kernel)
        engine = StackedInferenceEngine(models)
        forward = engine.interpretation_forward(list(batch))
        counts = self.count_stage_calls(monkeypatch)
        engine.interpretation_gradients(forward)
        assert counts == dict.fromkeys(self.STAGES, 1)


class TestDtypePolicy:
    """The model dtype is the compute dtype of every training kernel."""

    @staticmethod
    def _trained_spaces(dtype):
        """The ``stack.eval`` spaces after one train step and one evaluate."""
        with default_dtype(dtype):
            config = make_config(n_heads=2)
            model = CausalityAwareTransformer(config)
            engine = TrainingEngine(model)
            windows = np.random.default_rng(2).normal(
                size=(20, config.n_series, config.window))
            engine.train_step(engine.prepare_windows(windows[:8]))
            engine.evaluate(windows, config.batch_size)
        spaces = [space for key, space in engine.arena._spaces.items()
                  if key[0] == "stack.eval"]
        assert len(spaces) == 2     # the step's batch and the evaluation's
        return spaces

    def test_float32_training_buffers_are_float32(self):
        for space in self._trained_spaces(np.float32):
            wide = {name: buffer.dtype
                    for name, buffer in space._buffers.items()
                    if buffer.dtype not in (np.float32, np.bool_)}
            assert not wide
            assert "conv.out" not in space._buffers
            assert "bwd.conv.flat_k" not in space._buffers

    def test_float64_training_buffers_stay_float64(self):
        for space in self._trained_spaces(np.float64):
            assert not [name for name, buffer in space._buffers.items()
                        if buffer.dtype == np.float32]


class TestEngineMechanics:
    def test_trainer_validates_on_its_training_engine(self):
        """Training steps and validation passes share the trainer's arena,
        which is not the model's."""
        config = make_config()
        model = CausalityAwareTransformer(config)
        trainer = Trainer(model)
        calls = []
        evaluate = trainer._training.evaluate
        trainer._training.evaluate = \
            lambda *args: calls.append(args) or evaluate(*args)
        trainer.fit(training_series(3))
        assert len(calls) == trainer.history.n_epochs
        assert trainer._training.arena is not model.inference_engine().arena

    def test_fit_pins_no_training_buffers_on_the_model(self):
        from repro.core import CausalFormer, fast_preset

        def buffer_names(arena):
            names = [name for name, _shape in arena._buffers]
            for space in arena._spaces.values():
                names.extend(space._buffers)
            return names

        method = CausalFormer(fast_preset(max_epochs=2, seed=0))
        method.fit(training_series(4, length=120))
        names = buffer_names(method.model_.inference_engine().arena)
        assert not [name for name in names
                    if name.startswith(("train.", "bwd."))]
        # The trainer's own arena held them while it trained.
        trainer = Trainer(CausalityAwareTransformer(method.config))
        trainer.fit(training_series(4, length=120))
        names = buffer_names(trainer._training.arena)
        assert any(name.startswith("train.") for name in names)
        assert any(name.startswith("bwd.") for name in names)

    def test_stacked_trainer_shares_engine_with_validation(self):
        configs = [make_config(seed=seed) for seed in range(2)]
        models = [CausalityAwareTransformer(config) for config in configs]
        trainer = StackedCausalFormerTrainer(models)
        # The training engine *is* the stacked inference engine that runs
        # every validation pass; one arena backs both phases.
        from repro.nn.inference import StackedInferenceEngine

        assert isinstance(trainer.engine, StackedInferenceEngine)
        trainer.fit([training_series(seed + 40) for seed in range(2)])

    def test_steady_state_steps_reuse_buffers(self):
        config = make_config()
        model = CausalityAwareTransformer(config)
        engine = TrainingEngine(model)
        batch = engine.prepare_windows(np.random.default_rng(4).normal(
            size=(8, config.n_series, config.window)))
        engine.train_step(batch)
        engine.train_step(batch)
        identifiers = engine.arena.buffer_ids()
        for _ in range(3):
            engine.train_step(batch)
        assert engine.arena.buffer_ids() == identifiers

    def test_gradients_written_into_the_gradient_row(self):
        """The model's parameters are views of the engine's (1, P) matrix,
        bound once, and the gradients land in the matching gradient row."""
        config = make_config()
        model = CausalityAwareTransformer(config)
        engine = TrainingEngine(model)
        stack = engine.stack
        assert stack.params.shape == stack.grads.shape == (1, stack.n_params)
        offset = 0
        for _name, parameter in model.named_parameters():
            size = parameter.data.size
            assert np.shares_memory(parameter.data,
                                    stack.params[0, offset:offset + size])
            offset += size
        assert offset == stack.n_params
        batch = np.random.default_rng(6).normal(
            size=(4, config.n_series, config.window))
        grads = engine.gradients(batch)
        # The per-name copies must agree with the gradient row's contents.
        rebuilt = np.concatenate(
            [grads[name].ravel() for name, _p in model.named_parameters()])
        assert np.array_equal(rebuilt, stack.grads[0])

    def test_engine_step_matches_adam_step(self):
        """Engine step + StackedAdam at K = 1 == the same grads + Adam.step()."""
        config = make_config()
        model_a = CausalityAwareTransformer(config)
        model_b = CausalityAwareTransformer(config)
        batch = np.random.default_rng(8).normal(
            size=(4, config.n_series, config.window))
        # Path A: the same gradients set on ``.grad`` + Adam.step().
        optimizer_a = Adam(list(model_a.parameters()),
                           lr=config.learning_rate,
                           clip_norm=config.grad_clip)
        grads = TrainingEngine(CausalityAwareTransformer(config)) \
            .gradients(batch)
        for name, parameter in model_a.named_parameters():
            parameter.grad = grads[name]
        optimizer_a.step()
        # Path B: the engine writes its gradient row + StackedAdam.step.
        engine = TrainingEngine(model_b)
        engine.train_step(engine.prepare_windows(batch))
        for (name, parameter_a), (_n, parameter_b) in zip(
                model_a.named_parameters(), model_b.named_parameters()):
            assert np.array_equal(parameter_a.data, parameter_b.data), name
