"""Stacked-fleet fault tolerance: a failing step fails the whole fit.

A stacked step cannot pin a failure on one lane, so the stacked trainer
recovers nothing itself: a ``raise@lane_step`` fault must leave
:meth:`StackedCausalFormerTrainer.fit` as the injected exception (no lane
is silently lost), and the service layer re-runs the group job by job
(see ``tests/service/test_batched_jobs.py``).  A solo fit has no resume
point either: a ``raise@train_step`` crash fails the job, and the
executor's retry refits it from scratch, which being seeded returns the
same graph (see ``tests/service/test_executor.py``).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import faults
from repro.core.batched import StackedCausalFormerTrainer
from repro.core.config import CausalFormerConfig
from repro.core.transformer import CausalityAwareTransformer
from repro.faults import InjectedFault


def make_series(seed, n_series=4, length=150):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n_series, length)).cumsum(axis=1)
    values -= values.mean(axis=1, keepdims=True)
    values /= values.std(axis=1, keepdims=True) + 1e-9
    return values


def make_fleet(values_list):
    config = CausalFormerConfig(window=12, d_model=18, d_qk=18, d_ffn=18,
                                n_heads=3, batch_size=16, window_stride=2,
                                max_epochs=5, patience=2)
    return [CausalityAwareTransformer(
                replace(config, n_series=values.shape[0], seed=seed))
            for seed, values in enumerate(values_list)]


def test_lane_step_fault_leaves_fit():
    values_list = [make_series(seed) for seed in range(3)]
    trainer = StackedCausalFormerTrainer(make_fleet(values_list))
    with faults.override("raise@lane_step=5") as injector:
        with pytest.raises(InjectedFault, match="lane_step=5"):
            trainer.fit(values_list)
    assert [str(spec) for spec in injector.fired] == ["raise@lane_step=5"]
    assert injector.counters["lane_step"] == 5


def assert_bit_identical(models_a, models_b):
    for index, (model_a, model_b) in enumerate(zip(models_a, models_b)):
        for (name, param_a), (_n, param_b) in zip(
                model_a.named_parameters(), model_b.named_parameters()):
            assert np.array_equal(param_a.data, param_b.data), (index, name)


def test_idle_lane_step_seam_leaves_fit_bit_identical():
    """With a plan active, every lockstep step visits the seam; a clause
    that never comes due changes no weight and no loss."""
    values_list = [make_series(seed + 20) for seed in range(3)]
    ref_models = make_fleet(values_list)
    with faults.override(None):
        ref_histories = StackedCausalFormerTrainer(ref_models).fit(
            values_list)
    models = make_fleet(values_list)
    with faults.override("raise@lane_step=1000000") as injector:
        histories = StackedCausalFormerTrainer(models).fit(values_list)
    assert injector.fired == []
    assert injector.counters["lane_step"] > 0
    for history, ref_history in zip(histories, ref_histories):
        assert history.train_loss == ref_history.train_loss
        assert history.validation_loss == ref_history.validation_loss
    assert_bit_identical(ref_models, models)


def test_fleet_refit_after_fired_fault_matches_fault_free():
    """The fault is one-shot and the failed fit leaves nothing behind: a
    fresh fleet trained under the same, spent plan matches a fault-free
    fit bit for bit."""
    values_list = [make_series(seed + 30) for seed in range(2)]
    ref_models = make_fleet(values_list)
    with faults.override(None):
        ref_histories = StackedCausalFormerTrainer(ref_models).fit(
            values_list)
    with faults.override("raise@lane_step=2"):
        with pytest.raises(InjectedFault):
            StackedCausalFormerTrainer(make_fleet(values_list)).fit(
                values_list)
        models = make_fleet(values_list)
        histories = StackedCausalFormerTrainer(models).fit(values_list)
    for history, ref_history in zip(histories, ref_histories):
        assert history.train_loss == ref_history.train_loss
        assert history.best_epoch == ref_history.best_epoch
    assert_bit_identical(ref_models, models)
