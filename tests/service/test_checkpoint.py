"""Fit checkpoint/resume: storage paranoia and bit-identical resumption."""

import os

import numpy as np
import pytest

from repro.core.config import CausalFormerConfig
from repro.core.training import Trainer
from repro.core.transformer import CausalityAwareTransformer
from repro.nn.tensor import default_dtype
from repro.service.artifacts import ArtifactStore
from repro.service.checkpoint import FORMAT_VERSION, FitCheckpointer
from repro.telemetry import capture


def small_config(**overrides):
    payload = dict(window=10, d_model=12, d_qk=12, d_ffn=12, n_heads=2,
                   batch_size=8, window_stride=2, max_epochs=6, patience=3,
                   n_series=3, seed=0)
    payload.update(overrides)
    return CausalFormerConfig(**payload)


def make_values(seed=0, n_series=3, length=120):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n_series, length)).cumsum(axis=1)
    values -= values.mean(axis=1, keepdims=True)
    values /= values.std(axis=1, keepdims=True) + 1e-9
    return values


class TestStorage:
    def test_save_then_load_round_trips(self, tmp_path):
        checkpointer = FitCheckpointer(str(tmp_path), key="abc")
        state = {"meta": {"kind": "test", "loss": 0.125},
                 "arrays": {"weights": np.arange(6.0).reshape(2, 3)}}
        path = checkpointer.save(state)
        assert os.path.exists(path) and checkpointer.saves == 1
        loaded = checkpointer.load()
        assert loaded["meta"]["kind"] == "test"
        assert loaded["meta"]["loss"] == 0.125
        assert loaded["meta"]["format_version"] == FORMAT_VERSION
        assert np.array_equal(loaded["arrays"]["weights"],
                              state["arrays"]["weights"])

    def test_missing_checkpoint_loads_as_none(self, tmp_path):
        assert FitCheckpointer(str(tmp_path), key="nope").load() is None

    def test_torn_file_is_evicted_and_degrades_to_none(self, tmp_path):
        checkpointer = FitCheckpointer(str(tmp_path), key="torn")
        checkpointer.save({"meta": {}, "arrays": {"x": np.zeros(4)}})
        with open(checkpointer.path, "r+b") as handle:
            handle.truncate(20)
        assert checkpointer.load() is None
        assert not os.path.exists(checkpointer.path)

    def test_garbage_file_is_evicted(self, tmp_path):
        checkpointer = FitCheckpointer(str(tmp_path), key="junk")
        os.makedirs(str(tmp_path), exist_ok=True)
        with open(checkpointer.path, "wb") as handle:
            handle.write(b"not an npz archive")
        assert checkpointer.load() is None
        assert not os.path.exists(checkpointer.path)

    def test_wrong_format_version_rejected(self, tmp_path):
        checkpointer = FitCheckpointer(str(tmp_path), key="old")
        checkpointer.save({"meta": {}, "arrays": {}})
        import json

        data = np.load(checkpointer.path, allow_pickle=False)
        meta = json.loads(str(data["__meta__"][()]))
        meta["format_version"] = FORMAT_VERSION + 1
        data.close()
        with open(checkpointer.path, "wb") as handle:
            np.savez(handle, __meta__=np.array(json.dumps(meta)))
        assert checkpointer.load() is None

    def test_clear_removes_snapshot(self, tmp_path):
        checkpointer = FitCheckpointer(str(tmp_path), key="gone")
        checkpointer.save({"meta": {}, "arrays": {}})
        assert checkpointer.clear() is True
        assert checkpointer.load() is None
        assert checkpointer.clear() is False

    def test_cadence(self, tmp_path):
        checkpointer = FitCheckpointer(str(tmp_path), key="c", every=3)
        assert [checkpointer.due(i) for i in range(6)] == \
            [False, False, True, False, False, True]

    def test_key_and_cadence_validation(self, tmp_path):
        with pytest.raises(ValueError):
            FitCheckpointer(str(tmp_path), key="a/b")
        with pytest.raises(ValueError):
            FitCheckpointer(str(tmp_path), every=0)

    def test_reserved_array_name_rejected(self, tmp_path):
        checkpointer = FitCheckpointer(str(tmp_path))
        with pytest.raises(ValueError):
            checkpointer.save({"meta": {},
                               "arrays": {"__meta__": np.zeros(1)}})


class TestRunArtifacts:
    def test_checkpointer_lives_under_the_run(self, tmp_path):
        run = ArtifactStore(str(tmp_path)).create_run()
        checkpointer = run.checkpointer("job-key", every=2)
        assert checkpointer.every == 2
        checkpointer.save({"meta": {}, "arrays": {}})
        assert checkpointer.path.startswith(run.checkpoint_dir)
        assert os.path.exists(checkpointer.path)


class _CrashAfter:
    """Wrap Trainer._run_epoch to raise after N completed epochs."""

    def __init__(self, trainer, epochs):
        self.original = trainer._run_epoch
        self.remaining = epochs

    def __call__(self, *args, **kwargs):
        if self.remaining == 0:
            raise RuntimeError("injected crash")
        self.remaining -= 1
        return self.original(*args, **kwargs)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
class TestSoloResumeBitIdentity:
    def _train(self, values, checkpoint=None, crash_after=None):
        model = CausalityAwareTransformer(small_config())
        trainer = Trainer(model, model.config)
        if crash_after is not None:
            trainer._run_epoch = _CrashAfter(trainer, crash_after)
        history = trainer.fit(values, checkpoint=checkpoint)
        return model, history

    def test_resumed_fit_is_bit_identical(self, tmp_path, dtype):
        with default_dtype(dtype):
            values = make_values()
            reference, ref_history = self._train(values)

            checkpointer = FitCheckpointer(str(tmp_path), key="fit")
            with pytest.raises(RuntimeError, match="injected crash"):
                self._train(values, checkpoint=checkpointer, crash_after=3)
            assert os.path.exists(checkpointer.path)

            resumed, history = self._train(
                values, checkpoint=FitCheckpointer(str(tmp_path), key="fit"))
        assert history.train_loss == ref_history.train_loss
        assert history.validation_loss == ref_history.validation_loss
        assert history.best_epoch == ref_history.best_epoch
        assert history.stopped_early == ref_history.stopped_early
        for (name, param_a), (_n, param_b) in zip(
                reference.named_parameters(), resumed.named_parameters()):
            assert param_a.data.dtype == np.dtype(dtype)
            assert np.array_equal(param_a.data, param_b.data), name
        # a completed fit leaves no resume point behind
        assert not os.path.exists(checkpointer.path)

    def test_incompatible_snapshot_degrades_to_fresh_fit(self, tmp_path,
                                                         dtype):
        with default_dtype(dtype):
            values = make_values()
            reference, ref_history = self._train(values)
            checkpointer = FitCheckpointer(str(tmp_path), key="fit")
            checkpointer.save({"meta": {"kind": "solo_fit", "seed": 999},
                               "arrays": {}})
            resumed, history = self._train(values, checkpoint=checkpointer)
        assert history.train_loss == ref_history.train_loss
        for (name, param_a), (_n, param_b) in zip(
                reference.named_parameters(), resumed.named_parameters()):
            assert np.array_equal(param_a.data, param_b.data), name

    def test_snapshot_with_legacy_history_key_resumes(self, tmp_path, dtype):
        """Snapshots whose history carries the retired ``quarantined`` flag
        still resume bit-identically; the extra key is ignored."""
        with default_dtype(dtype):
            values = make_values()
            reference, ref_history = self._train(values)
            checkpointer = FitCheckpointer(str(tmp_path), key="fit")
            with pytest.raises(RuntimeError, match="injected crash"):
                self._train(values, checkpoint=checkpointer, crash_after=3)
            state = checkpointer.load()
            state["meta"]["history"]["quarantined"] = False
            checkpointer.save(state)
            with capture() as telemetry:
                resumed, history = self._train(values,
                                               checkpoint=checkpointer)
        resumes = [record for record in telemetry.records()
                   if record.get("name") == "fit_resumed"]
        assert len(resumes) == 1
        assert history.train_loss == ref_history.train_loss
        assert history.validation_loss == ref_history.validation_loss
        assert "quarantined" not in history.to_dict()
        for (name, param_a), (_n, param_b) in zip(
                reference.named_parameters(), resumed.named_parameters()):
            assert np.array_equal(param_a.data, param_b.data), name
