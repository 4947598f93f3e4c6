"""Stacked lockstep training must be bit-identical to sequential training."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.batched import StackedCausalFormerTrainer
from repro.core.config import CausalFormerConfig
from repro.core.training import Trainer
from repro.core.transformer import CausalityAwareTransformer


def base_config(**overrides):
    payload = dict(
        window=12, d_model=18, d_qk=18, d_ffn=18, n_heads=3, batch_size=16,
        window_stride=2, max_epochs=5, patience=2, n_series=None)
    payload.update(overrides)
    return CausalFormerConfig(**payload)


def make_series(seed, n_series=4, length=150):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n_series, length)).cumsum(axis=1)
    values -= values.mean(axis=1, keepdims=True)
    values /= values.std(axis=1, keepdims=True) + 1e-9
    return values


@pytest.fixture(scope="module")
def trained_pair():
    """Three models trained sequentially and stacked on the same data."""
    values_list = [make_series(seed) for seed in range(3)]
    configs = [replace(base_config(), n_series=v.shape[0], seed=seed)
               for seed, v in enumerate(values_list)]
    sequential = [CausalityAwareTransformer(config) for config in configs]
    sequential_histories = [
        Trainer(model).fit(values)
        for model, config, values in zip(sequential, configs, values_list)]
    stacked = [CausalityAwareTransformer(config) for config in configs]
    stacked_histories = StackedCausalFormerTrainer(stacked).fit(values_list)
    return sequential, sequential_histories, stacked, stacked_histories


class TestBitIdentity:
    def test_final_parameters_identical(self, trained_pair):
        sequential, _sh, stacked, _bh = trained_pair
        for model_a, model_b in zip(sequential, stacked):
            for (name, param_a), (_n, param_b) in zip(
                    model_a.named_parameters(), model_b.named_parameters()):
                assert np.array_equal(param_a.data, param_b.data), name

    def test_histories_identical(self, trained_pair):
        _seq, sequential_histories, _stacked, stacked_histories = trained_pair
        for history_a, history_b in zip(sequential_histories,
                                        stacked_histories):
            assert history_a.train_loss == history_b.train_loss
            assert history_a.validation_loss == history_b.validation_loss
            assert history_a.best_epoch == history_b.best_epoch
            assert history_a.best_validation_loss == history_b.best_validation_loss
            assert history_a.stopped_early == history_b.stopped_early

    def test_models_usable_after_stacked_training(self, trained_pair):
        _seq, _sh, stacked, _bh = trained_pair
        for model in stacked:
            windows = make_series(9)[:, :model.config.window][None]
            prediction = model.predict(windows)
            assert np.isfinite(prediction).all()


class TestHeterogeneousStopping:
    def test_models_may_stop_at_different_epochs(self):
        """Lockstep training honours each model's own early stop."""
        values_list = [make_series(seed + 20) for seed in range(2)]
        configs = [replace(base_config(max_epochs=8, patience=1),
                           n_series=v.shape[0], seed=seed)
                   for seed, v in enumerate(values_list)]
        stacked = [CausalityAwareTransformer(config) for config in configs]
        histories = StackedCausalFormerTrainer(stacked).fit(values_list)
        reference = [
            Trainer(CausalityAwareTransformer(config)).fit(values)
            for config, values in zip(configs, values_list)]
        for history, expected in zip(histories, reference):
            assert history.n_epochs == expected.n_epochs
            assert history.train_loss == expected.train_loss


class TestValidation:
    def test_rejects_mismatched_configs(self):
        config_a = replace(base_config(), n_series=4, seed=0)
        config_b = replace(base_config(d_model=24), n_series=4, seed=1)
        models = [CausalityAwareTransformer(config_a),
                  CausalityAwareTransformer(config_b)]
        with pytest.raises(ValueError, match="identical configs"):
            StackedCausalFormerTrainer(models)

    def test_single_kernel_is_stackable(self):
        config = replace(base_config(single_kernel=True), n_series=4)
        models = [CausalityAwareTransformer(config),
                  CausalityAwareTransformer(replace(config, seed=1))]
        trainer = StackedCausalFormerTrainer(models)
        assert trainer.config.single_kernel

    def test_rejects_empty_model_list(self):
        with pytest.raises(ValueError, match="at least one"):
            StackedCausalFormerTrainer([])

    def test_rejects_mismatched_dataset_count(self):
        config = replace(base_config(), n_series=4)
        models = [CausalityAwareTransformer(config),
                  CausalityAwareTransformer(replace(config, seed=1))]
        with pytest.raises(ValueError, match="one dataset per model"):
            StackedCausalFormerTrainer(models).fit([make_series(0)])

    def test_rejects_mismatched_variable_counts(self):
        """Lanes must share the (N, T) window geometry — padding the model's
        own variable axis would change every GEMM."""
        config = replace(base_config(), n_series=4)
        models = [CausalityAwareTransformer(config),
                  CausalityAwareTransformer(replace(config, seed=1))]
        with pytest.raises(ValueError, match="window geometry"):
            StackedCausalFormerTrainer(models).fit(
                [make_series(0), make_series(1, n_series=3)])


class TestSingleKernelBitIdentity:
    """The single-kernel ablation trains in the stack like any other config."""

    @pytest.fixture(scope="class")
    def trained_single_kernel(self):
        values_list = [make_series(seed + 40) for seed in range(2)]
        configs = [replace(base_config(single_kernel=True),
                           n_series=v.shape[0], seed=seed)
                   for seed, v in enumerate(values_list)]
        sequential = [CausalityAwareTransformer(config) for config in configs]
        sequential_histories = [
            Trainer(model).fit(values)
            for model, config, values in zip(sequential, configs, values_list)]
        stacked = [CausalityAwareTransformer(config) for config in configs]
        stacked_histories = StackedCausalFormerTrainer(stacked).fit(values_list)
        return sequential, sequential_histories, stacked, stacked_histories

    def test_parameters_identical(self, trained_single_kernel):
        sequential, _sh, stacked, _bh = trained_single_kernel
        for model_a, model_b in zip(sequential, stacked):
            for (name, param_a), (_n, param_b) in zip(
                    model_a.named_parameters(), model_b.named_parameters()):
                assert np.array_equal(param_a.data, param_b.data), name

    def test_histories_identical(self, trained_single_kernel):
        _seq, sequential_histories, _stacked, stacked_histories = \
            trained_single_kernel
        for history_a, history_b in zip(sequential_histories,
                                        stacked_histories):
            assert history_a.train_loss == history_b.train_loss
            assert history_a.validation_loss == history_b.validation_loss
            assert history_a.best_epoch == history_b.best_epoch


class TestRetiredModelsOwnTheirWeights:
    def test_best_state_restore_detaches_from_stack(self):
        """A finished lane's model leaves with *owned* best-epoch arrays —
        its stack row is overwritten when the lanes above it shift down, so
        the restored weights must not alias the (K, P) matrix."""
        values_list = [make_series(seed + 60) for seed in range(2)]
        configs = [replace(base_config(max_epochs=8, patience=1,
                                       min_delta=10.0),
                           n_series=v.shape[0], seed=seed)
                   for seed, v in enumerate(values_list)]
        models = [CausalityAwareTransformer(config) for config in configs]
        trainer = StackedCausalFormerTrainer(models)
        histories = trainer.fit(values_list)
        assert any(history.stopped_early for history in histories)
        for row in range(len(models)):
            for parameter in trainer._parameters[row]:
                assert not np.shares_memory(parameter.data, trainer.params)
        for model in models:
            windows = make_series(9)[:, :model.config.window][None]
            assert np.isfinite(model.predict(windows)).all()


class TestDivergenceStopsRow:
    def test_non_finite_loss_flags_and_stops(self, monkeypatch):
        """A NaN loss in one model stops that row immediately and flags its
        history, without derailing the other rows."""
        values_list = [make_series(seed + 80) for seed in range(2)]
        configs = [replace(base_config(max_epochs=6, patience=1000),
                           n_series=v.shape[0], seed=seed)
                   for seed, v in enumerate(values_list)]
        models = [CausalityAwareTransformer(config) for config in configs]
        trainer = StackedCausalFormerTrainer(models)

        original = StackedCausalFormerTrainer._forward_backward
        state = {"epoch_batches": 0}

        def poisoned(self, xb):
            losses, grads = original(self, xb)
            state["epoch_batches"] += 1
            # Poison row 0 in later epochs, but only while both lanes are
            # live — once model 0 retires, lane compaction shifts model 1
            # into row 0.
            if state["epoch_batches"] > 12 and len(losses) > 1:
                losses[0] = float("nan")
            return losses, grads

        monkeypatch.setattr(StackedCausalFormerTrainer, "_forward_backward",
                            poisoned)
        histories = trainer.fit(values_list)
        assert histories[0].diverged
        assert not histories[1].diverged
        assert histories[0].n_epochs <= histories[1].n_epochs
        assert histories[1].n_epochs == 6

    def test_divergence_without_best_state_matches_sequential(self,
                                                              monkeypatch):
        """A row that diverges before ever improving must end with the same
        weights as the sequential trainer's immediate break — not keep
        riding the remaining stacked Adam steps."""
        values_list = [make_series(seed + 90) for seed in range(2)]
        configs = [replace(base_config(max_epochs=6, patience=1000),
                           n_series=v.shape[0], seed=seed)
                   for seed, v in enumerate(values_list)]

        stacked_models = [CausalityAwareTransformer(config)
                          for config in configs]
        trainer = StackedCausalFormerTrainer(stacked_models)
        original_stacked = StackedCausalFormerTrainer._forward_backward

        def poison_row0(self, xb):
            losses, grads = original_stacked(self, xb)
            if len(losses) > 1:        # row 0 is model 0 until it retires
                losses[0] = float("nan")
            return losses, grads

        monkeypatch.setattr(StackedCausalFormerTrainer, "_forward_backward",
                            poison_row0)
        histories = trainer.fit(values_list)
        assert histories[0].diverged and histories[0].best_epoch == -1
        assert not histories[1].diverged

        # Sequential reference for row 0: same data, every reported epoch
        # loss NaN, real steps still taken — breaks after epoch 0.
        sequential = CausalityAwareTransformer(configs[0])
        sequential_trainer = Trainer(sequential)
        original_epoch = Trainer._run_epoch

        def poison_epoch(self, windows, rng):
            original_epoch(self, windows, rng)
            return float("nan")

        monkeypatch.setattr(Trainer, "_run_epoch", poison_epoch)
        sequential_history = sequential_trainer.fit(values_list[0])
        assert sequential_history.diverged

        for (name, param_a), (_n, param_b) in zip(
                sequential.named_parameters(),
                stacked_models[0].named_parameters()):
            assert np.array_equal(param_a.data, param_b.data), name


#: the training-relevant Table 3 ablation grid (detector-only switches
#: never touch a training step), plus the head/penalty axes that change
#: the backward's accumulation structure — see test_training_engine
ABLATION_GRID = [
    {},
    {"single_kernel": True},
    {"lambda_kernel": 0.0},
    {"lambda_mask": 0.0},
    {"n_heads": 1},
    {"temperature": 2.5},
]


class TestEqualWindowCounts:
    """Lanes must carry equal train and validation window counts: every
    stacked step runs all lanes at the solo batch shape."""

    @staticmethod
    def _fit(lengths, **overrides):
        configs = [replace(base_config(**overrides), n_series=4, seed=seed)
                   for seed in range(len(lengths))]
        models = [CausalityAwareTransformer(config) for config in configs]
        StackedCausalFormerTrainer(models).fit(
            [make_series(seed, length=length)
             for seed, length in enumerate(lengths)])

    def test_rejects_unequal_train_counts(self):
        # window=12, stride=2: 70, 90 and 78 windows.
        with pytest.raises(ValueError, match="equal train and validation"):
            self._fit([150, 190, 166])

    def test_rejects_unequal_validation_counts(self):
        # 105 and 106 windows split into 95 + 10 and 95 + 11 under a 0.1
        # validation fraction: equal train counts, unequal validation.
        with pytest.raises(ValueError, match=r"95 \+ 11 against 95 \+ 10"):
            self._fit([220, 222], validation_fraction=0.1)

    def test_rejected_fit_leaves_the_trainer_usable(self):
        """A fit refused for its window counts trains nothing, so the same
        trainer then fits equal-length series bit-identically to solo
        training."""
        configs = [replace(base_config(), n_series=4, seed=seed)
                   for seed in range(2)]
        stacked = [CausalityAwareTransformer(config) for config in configs]
        trainer = StackedCausalFormerTrainer(stacked)
        with pytest.raises(ValueError, match="equal train and validation"):
            trainer.fit([make_series(0, length=150),
                         make_series(1, length=190)])
        values_list = [make_series(seed) for seed in range(2)]
        trainer.fit(values_list)
        for config, model, values in zip(configs, stacked, values_list):
            solo = CausalityAwareTransformer(config)
            Trainer(solo).fit(values)
            for (name, a), (_n, b) in zip(solo.named_parameters(),
                                          model.named_parameters()):
                assert np.array_equal(a.data, b.data), name


class TestFitsOnce:
    def test_second_fit_raises_a_clear_error(self):
        """Fit compacts every lane out of the stack, so a second fit on
        the same trainer is refused up front."""
        configs = [replace(base_config(max_epochs=2), n_series=4, seed=seed)
                   for seed in range(2)]
        models = [CausalityAwareTransformer(config) for config in configs]
        trainer = StackedCausalFormerTrainer(models)
        values_list = [make_series(seed) for seed in range(2)]
        trainer.fit(values_list)
        with pytest.raises(RuntimeError, match="fits once"):
            trainer.fit(values_list)


class TestAblationGrid:
    @pytest.mark.parametrize("overrides", ABLATION_GRID)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_ablation_grid_bit_identical(self, overrides, dtype):
        """Two equal-length lanes across the Table 3 ablation grid."""
        from repro.nn.tensor import default_dtype

        with default_dtype(dtype):
            values_list = [make_series(7, length=198),
                           make_series(8, length=198)]
            configs = [replace(base_config(max_epochs=3, **overrides),
                               n_series=v.shape[0], seed=seed)
                       for seed, v in enumerate(values_list)]
            sequential = [CausalityAwareTransformer(config)
                          for config in configs]
            for model, config, values in zip(sequential, configs,
                                             values_list):
                Trainer(model).fit(values)
            stacked = [CausalityAwareTransformer(config)
                       for config in configs]
            StackedCausalFormerTrainer(stacked).fit(values_list)
        for model_a, model_b in zip(sequential, stacked):
            for (name, param_a), (_n, param_b) in zip(
                    model_a.named_parameters(), model_b.named_parameters()):
                assert param_a.data.dtype == param_b.data.dtype
                assert np.array_equal(param_a.data, param_b.data), name


class TestCompaction:
    def test_retired_lanes_stop_consuming_step_time(self, monkeypatch):
        """Once a lane diverges, the stack repacks to (K-1, P) and later
        steps run at the narrower width — a dead lane costs nothing."""
        values_list = [make_series(seed + 100) for seed in range(3)]
        configs = [replace(base_config(max_epochs=4, patience=1000),
                           n_series=v.shape[0], seed=seed)
                   for seed, v in enumerate(values_list)]
        models = [CausalityAwareTransformer(config) for config in configs]
        trainer = StackedCausalFormerTrainer(models)

        original = StackedCausalFormerTrainer._forward_backward
        widths = []

        def recording(self, xb):
            widths.append(xb.shape[0])
            losses, grads = original(self, xb)
            if len(losses) == 3:       # poison one lane in the full fleet
                losses[0] = float("nan")
            return losses, grads

        monkeypatch.setattr(StackedCausalFormerTrainer, "_forward_backward",
                            recording)
        histories = trainer.fit(values_list)
        assert histories[0].diverged
        assert not histories[1].diverged and not histories[2].diverged
        assert widths[0] == 3          # epoch 0 runs the full stack
        assert widths[-1] == 2         # survivors run without the dead lane
        assert set(widths) == {3, 2}

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_survivors_bit_identical_after_compaction(self, dtype,
                                                      monkeypatch):
        """A lane retired mid-fit shifts the survivors down a row; their
        weights and histories still equal solo fits bit for bit."""
        from repro.nn.tensor import default_dtype

        values_list = [make_series(seed + 110) for seed in range(3)]
        original = StackedCausalFormerTrainer._forward_backward
        state = {"steps": 0}

        def poison_model0_late(self, xb):
            losses, grads = original(self, xb)
            state["steps"] += 1
            if state["steps"] > 8 and len(losses) == 3:
                losses[0] = float("nan")
            return losses, grads

        monkeypatch.setattr(StackedCausalFormerTrainer, "_forward_backward",
                            poison_model0_late)
        with default_dtype(dtype):
            configs = [replace(base_config(max_epochs=5, patience=1000),
                               n_series=4, seed=seed) for seed in range(3)]
            stacked = [CausalityAwareTransformer(config)
                       for config in configs]
            histories = StackedCausalFormerTrainer(stacked).fit(values_list)
            solo = [CausalityAwareTransformer(config)
                    for config in configs[1:]]
            solo_histories = [Trainer(model).fit(values) for model, values
                              in zip(solo, values_list[1:])]
        assert histories[0].diverged
        assert 1 < histories[0].n_epochs < histories[1].n_epochs == 5
        for model_a, model_b in zip(solo, stacked[1:]):
            for (name, param_a), (_n, param_b) in zip(
                    model_a.named_parameters(), model_b.named_parameters()):
                assert param_a.data.dtype == param_b.data.dtype == dtype
                assert np.array_equal(param_a.data, param_b.data), name
        for history_a, history_b in zip(solo_histories, histories[1:]):
            assert history_a.train_loss == history_b.train_loss
            assert history_a.validation_loss == history_b.validation_loss
            assert history_a.best_epoch == history_b.best_epoch
