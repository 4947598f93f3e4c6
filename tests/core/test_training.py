"""Training loop: loss decrease, early stopping, best-state restoration."""

import numpy as np
import pytest

from repro.core import CausalFormerConfig, CausalityAwareTransformer, Trainer
from repro.data import fork_dataset


def make_config(**overrides):
    base = dict(n_series=3, window=8, d_model=12, d_qk=12, d_ffn=12, n_heads=2,
                max_epochs=12, window_stride=4, batch_size=32, seed=0,
                learning_rate=5e-3)
    base.update(overrides)
    return CausalFormerConfig(**base)


@pytest.fixture(scope="module")
def training_values():
    return fork_dataset(seed=0, length=260).normalized().values


class TestTrainer:
    def test_loss_decreases(self, training_values):
        config = make_config()
        model = CausalityAwareTransformer(config)
        trainer = Trainer(model)
        history = trainer.fit(training_values)
        assert history.n_epochs >= 2
        assert history.train_loss[-1] < history.train_loss[0]

    def test_history_lengths_match(self, training_values):
        config = make_config(max_epochs=5, patience=100)
        trainer = Trainer(CausalityAwareTransformer(config))
        history = trainer.fit(training_values)
        assert len(history.train_loss) == len(history.validation_loss) == 5

    def test_early_stopping_triggers(self, training_values):
        """With zero patience the trainer stops as soon as validation stalls."""
        config = make_config(max_epochs=50, patience=1, min_delta=10.0)
        trainer = Trainer(CausalityAwareTransformer(config))
        history = trainer.fit(training_values)
        assert history.stopped_early
        assert history.n_epochs < 50

    def test_best_state_restored(self, training_values):
        config = make_config(max_epochs=10)
        model = CausalityAwareTransformer(config)
        trainer = Trainer(model)
        history = trainer.fit(training_values)
        # After fit, the model must reproduce (approximately) the best
        # validation loss, not the last one.
        windows = trainer.make_windows(training_values)
        assert history.best_validation_loss <= min(history.validation_loss) + 1e-9

    def test_window_generation_respects_stride(self, training_values):
        config = make_config(window_stride=8)
        trainer = Trainer(CausalityAwareTransformer(config))
        windows = trainer.make_windows(training_values)
        expected = (training_values.shape[1] - config.window) // 8 + 1
        assert windows.shape == (expected, 3, config.window)

    def test_deterministic_given_seed(self, training_values):
        def run():
            config = make_config(max_epochs=4)
            model = CausalityAwareTransformer(config)
            Trainer(model).fit(training_values)
            return model.state_dict()

        a, b = run(), run()
        for key in a:
            np.testing.assert_allclose(a[key], b[key])


class TestBestStateRestoreStorage:
    """Best-state restoration copies in place, keeping every consumer of the
    parameter storage (the training engine's (1, P) matrix, the shared
    inference engine) bound to the restored best-epoch weights."""

    def _early_stopped(self, training_values):
        config = make_config(max_epochs=30, patience=1, min_delta=10.0)
        model = CausalityAwareTransformer(config)
        trainer = Trainer(model)
        # Warm the shared engine before fit so it is live across the restore.
        model.predict(trainer.make_windows(training_values)[:1])
        history = trainer.fit(training_values)
        assert history.stopped_early
        assert 0 <= history.best_epoch < history.n_epochs - 1
        return config, model, trainer, history

    def test_restore_keeps_parameter_matrix_live(self, training_values):
        _config, _model, trainer, _history = self._early_stopped(training_values)
        stack = trainer._training.stack
        assert stack.params.shape == (1, stack.n_params)
        for parameter, view, shape in zip(trainer._parameters, stack.slices,
                                          stack.shapes):
            assert parameter.data.base is stack.params
            assert np.array_equal(parameter.data,
                                  stack.params[0, view].reshape(shape))

    def test_predict_uses_best_epoch_weights_through_shared_engine(
            self, training_values):
        config, model, trainer, history = self._early_stopped(training_values)
        # Reproduce the best-epoch weights independently: the rng stream is
        # seeded per fit, so training a twin for exactly best_epoch + 1
        # epochs lands on the same (best) parameters.
        twin_config = make_config(max_epochs=history.best_epoch + 1,
                                  patience=1000, min_delta=10.0)
        twin = CausalityAwareTransformer(twin_config)
        Trainer(twin).fit(training_values)
        windows = trainer.make_windows(training_values)[:2]
        assert np.array_equal(model.predict(windows), twin.predict(windows))


class TestDivergenceDetection:
    def test_non_finite_loss_stops_and_flags(self, training_values,
                                             monkeypatch):
        config = make_config(max_epochs=10, patience=1000)
        trainer = Trainer(CausalityAwareTransformer(config))
        original = Trainer._run_epoch
        calls = {"count": 0}

        def poisoned(self, windows, rng):
            calls["count"] += 1
            loss = original(self, windows, rng)
            return float("nan") if calls["count"] >= 3 else loss

        monkeypatch.setattr(Trainer, "_run_epoch", poisoned)
        history = trainer.fit(training_values)
        assert history.diverged
        assert history.n_epochs == 3           # stopped at the NaN epoch
        assert not history.stopped_early       # divergence, not patience
        assert len(history.validation_loss) == 3
        # The finite epochs before the divergence kept a best state, and it
        # was restored: the model still predicts finite values.
        assert history.best_epoch >= 0
        windows = trainer.make_windows(training_values)[:1]
        assert np.isfinite(trainer.model.predict(windows)).all()

    def test_infinite_validation_loss_also_stops(self, training_values,
                                                 monkeypatch):
        config = make_config(max_epochs=10, patience=1000)
        trainer = Trainer(CausalityAwareTransformer(config))

        def infinite(self, windows):
            return float("inf")

        monkeypatch.setattr(Trainer, "_evaluate", infinite)
        history = trainer.fit(training_values)
        assert history.diverged
        assert history.n_epochs == 1
        assert history.best_epoch == -1


class _Weight:
    """Stand-in parameter: the epoch-end rule only reads ``.data``."""

    def __init__(self, value):
        self.data = np.array([value], dtype=np.float64)


def rule_progress():
    from repro.core.training import FitProgress, TrainingHistory

    return FitProgress(TrainingHistory(), [_Weight(1.0), _Weight(2.0)])


def run_epochs(progress, losses, config, telemetry=None, **fields):
    """Feed ``(train, validation)`` losses; returns each epoch's stop flag."""
    from repro.core.training import end_epoch
    from repro.telemetry import NULL_TELEMETRY

    telemetry = telemetry or NULL_TELEMETRY
    return [end_epoch(progress, epoch, train, validation, config, telemetry,
                      **fields)
            for epoch, (train, validation) in enumerate(losses)]


class TestEndEpochRule:
    """The one epoch-end rule both trainers call (``end_epoch``)."""

    def test_appends_losses_every_epoch(self):
        progress = rule_progress()
        run_epochs(progress, [(3.0, 2.5), (2.0, 2.6)],
                   make_config(patience=10))
        assert progress.history.train_loss == [3.0, 2.0]
        assert progress.history.validation_loss == [2.5, 2.6]

    def test_improvement_snapshots_parameters(self):
        progress = rule_progress()
        stops = run_epochs(progress, [(1.0, 0.5)], make_config())
        assert stops == [False]
        assert progress.history.best_epoch == 0
        assert progress.history.best_validation_loss == 0.5
        assert [saved.tolist() for saved in progress.best_state] == \
            [[1.0], [2.0]]

    def test_snapshot_is_a_copy(self):
        progress = rule_progress()
        run_epochs(progress, [(1.0, 0.5)], make_config())
        progress.parameters[0].data[...] = 99.0
        assert progress.best_state[0].tolist() == [1.0]

    def test_improvement_resets_stale_count(self):
        progress = rule_progress()
        run_epochs(progress, [(1.0, 0.5), (1.0, 0.6), (1.0, 0.4)],
                   make_config(patience=3))
        assert progress.stale_epochs == 0
        assert progress.history.best_epoch == 2

    def test_gain_within_min_delta_is_stale(self):
        progress = rule_progress()
        run_epochs(progress, [(1.0, 0.5), (1.0, 0.45)],
                   make_config(patience=3, min_delta=0.1))
        assert progress.history.best_epoch == 0
        assert progress.history.best_validation_loss == 0.5
        assert progress.stale_epochs == 1

    def test_stops_after_patience_stale_epochs(self):
        progress = rule_progress()
        stops = run_epochs(progress,
                           [(1.0, 0.5), (1.0, 0.6), (1.0, 0.7), (1.0, 0.8)],
                           make_config(patience=3))
        assert stops == [False, False, False, True]
        assert progress.history.stopped_early
        assert not progress.history.diverged
        assert progress.history.best_epoch == 0

    @pytest.mark.parametrize("train, validation", [
        (float("nan"), 0.5), (1.0, float("nan")),
        (float("inf"), 0.5), (1.0, float("-inf"))])
    def test_non_finite_loss_stops_as_divergence(self, train, validation):
        progress = rule_progress()
        stops = run_epochs(progress, [(train, validation)],
                           make_config(patience=100))
        assert stops == [True]
        assert progress.history.diverged
        assert not progress.history.stopped_early
        assert progress.history.n_epochs == 1

    def test_divergence_keeps_last_best_snapshot(self):
        progress = rule_progress()
        run_epochs(progress, [(1.0, 0.5)], make_config(patience=100))
        progress.parameters[0].data[...] = float("nan")
        run_epochs(progress, [(float("nan"), float("nan"))],
                   make_config(patience=100))
        assert progress.history.best_epoch == 0
        assert progress.best_state[0].tolist() == [1.0]

    def test_divergence_before_any_improvement_has_no_snapshot(self):
        progress = rule_progress()
        run_epochs(progress, [(1.0, float("inf"))], make_config())
        assert progress.best_state is None
        assert progress.history.best_epoch == -1

    def test_train_epoch_events_carry_fields(self):
        from repro.telemetry import capture

        progress = rule_progress()
        with capture() as telemetry:
            run_epochs(progress, [(3.0, 2.5), (2.0, 2.0)],
                       make_config(patience=10), telemetry, model=7)
        epochs = [record["attrs"] for record in telemetry.records()
                  if record["name"] == "train_epoch"]
        assert epochs == [
            {"model": 7, "epoch": 0, "loss": 3.0, "validation_loss": 2.5},
            {"model": 7, "epoch": 1, "loss": 2.0, "validation_loss": 2.0}]

    def test_early_stop_event_names_best_epoch(self):
        from repro.telemetry import capture

        progress = rule_progress()
        with capture() as telemetry:
            run_epochs(progress, [(1.0, 0.5), (1.0, 0.3), (1.0, 0.9)],
                       make_config(patience=1), telemetry)
        stops = [record["attrs"] for record in telemetry.records()
                 if record["name"] == "early_stop"]
        assert stops == [{"epoch": 2, "best_epoch": 1}]

    def test_divergence_emits_train_diverged(self):
        from repro.telemetry import capture

        progress = rule_progress()
        with capture() as telemetry:
            run_epochs(progress, [(float("nan"), 0.5)], make_config(),
                       telemetry, model=2)
        names = [record["name"] for record in telemetry.records()]
        assert names == ["train_epoch", "train_diverged"]


class TestBothTrainersShareTheRule:
    """Solo and stacked fits route every epoch end through ``end_epoch``."""

    @staticmethod
    def _counting(monkeypatch, module):
        from repro.core import training

        calls = []
        original = training.end_epoch

        def counted(progress, *args, **kwargs):
            calls.append(progress.history)
            return original(progress, *args, **kwargs)

        monkeypatch.setattr(module, "end_epoch", counted)
        return calls

    def test_solo_fit_calls_the_rule_once_per_epoch(self, training_values,
                                                    monkeypatch):
        from repro.core import training

        calls = self._counting(monkeypatch, training)
        config = make_config(max_epochs=6, patience=2)
        history = Trainer(CausalityAwareTransformer(config)).fit(training_values)
        assert len(calls) == history.n_epochs
        assert all(recorded is history for recorded in calls)

    def test_stacked_fit_calls_the_rule_once_per_lane_epoch(
            self, training_values, monkeypatch):
        from repro.core import batched

        calls = self._counting(monkeypatch, batched)
        models = [CausalityAwareTransformer(make_config(max_epochs=6,
                                                        patience=2, seed=seed))
                  for seed in (0, 1)]
        histories = batched.StackedCausalFormerTrainer(models).fit(
            [training_values, training_values])
        assert len(calls) == sum(history.n_epochs for history in histories)
        for history in histories:
            assert sum(recorded is history for recorded in calls) == \
                history.n_epochs
