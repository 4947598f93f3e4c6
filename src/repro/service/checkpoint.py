"""Checkpoint/resume storage for training fits.

A :class:`FitCheckpointer` persists one solo fit's in-flight state —
parameter vectors, the flat Adam moment buffers and step count, RNG state
and the :class:`~repro.core.training.TrainingHistory` bookkeeping — as a
single atomically-replaced ``.npz`` file, so an interrupted fit resumes at
the last saved epoch **bit-identically** to an uninterrupted run (the
trainer restores every array in place and re-seeds the generator from the
exact saved bit-generator state).  Checkpointing is per job: a stacked
group (:class:`repro.core.batched.StackedCausalFormerTrainer`) is never
snapshotted and is retried from scratch.

The state format is deliberately dumb: a JSON-able ``meta`` dict plus a
flat ``arrays`` dict of numpy arrays.  The trainer owns the schema
(:meth:`repro.core.training.Trainer.fit` builds and consumes it); this
module only moves it to and from disk, with the same paranoia as
the result cache: a checkpoint that fails to load for *any* reason is
evicted and reported as absent — a torn snapshot degrades to a fresh fit,
never to a crash or a wrong resume.

Layout under a checkpoint directory (the executor keys fits by their job's
cache key; ``RunArtifacts.checkpointer`` places the directory inside the
run)::

    <directory>/<key>.ckpt.npz
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Dict, Optional

import numpy as np

#: name of the archive member holding the JSON metadata
META_KEY = "__meta__"

#: schema version stamped into every checkpoint; a mismatch means the
#: trainer's state layout changed and the snapshot must not be resumed.
FORMAT_VERSION = 1


class FitCheckpointer:
    """Periodic snapshot storage for one fit, keyed inside a directory.

    Parameters
    ----------
    directory:
        Where snapshots live; created on first save.
    key:
        Filesystem-safe identifier for this fit (the executor uses the
        job's cache key, so a retried job finds its own snapshot).
    every:
        Save cadence in epochs: state is saved when ``due(index)`` is
        true, i.e. every ``every``-th completed epoch.
    """

    def __init__(self, directory: str, key: str = "fit",
                 every: int = 1) -> None:
        if every < 1:
            raise ValueError("checkpoint cadence must be at least 1")
        if not key or any(ch in key for ch in "/\\"):
            raise ValueError(f"checkpoint keys must be filesystem-safe; got {key!r}")
        self.directory = str(directory)
        self.key = key
        self.every = int(every)
        self.saves = 0

    @property
    def path(self) -> str:
        return os.path.join(self.directory, f"{self.key}.ckpt.npz")

    def due(self, index: int) -> bool:
        """Whether the 0-based completed epoch ``index`` should snapshot."""
        return (index + 1) % self.every == 0

    # ------------------------------------------------------------------ #
    # Save / load
    # ------------------------------------------------------------------ #
    def save(self, state: Dict[str, Any]) -> str:
        """Atomically persist ``{"meta": ..., "arrays": {...}}``; returns path.

        ``meta`` must be JSON-able (Python floats round-trip exactly through
        ``json`` — repr-based encoding — so loss bookkeeping survives bit
        for bit).  Array names must not collide with ``__meta__``.
        """
        from repro.telemetry import get_telemetry

        meta = dict(state.get("meta") or {})
        meta["format_version"] = FORMAT_VERSION
        arrays = dict(state.get("arrays") or {})
        if META_KEY in arrays:
            raise ValueError(f"array name {META_KEY!r} is reserved")
        os.makedirs(self.directory, exist_ok=True)
        descriptor, temp_path = tempfile.mkstemp(dir=self.directory,
                                                 suffix=".tmp")
        try:
            with os.fdopen(descriptor, "wb") as handle:
                # A file object sidesteps np.savez's extension appending,
                # keeping the tmp-file + os.replace rename atomic.
                np.savez(handle, **arrays,
                         **{META_KEY: np.array(json.dumps(meta))})
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_path, self.path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        self.saves += 1
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.counter("checkpoint.saves").inc()
            telemetry.event("checkpoint_saved", key=self.key,
                            path=self.path)
        return self.path

    def load(self) -> Optional[Dict[str, Any]]:
        """The last saved state, or ``None`` when absent or unreadable.

        Any load failure — missing file, torn archive, wrong format
        version, unparseable metadata — evicts the snapshot and returns
        ``None``: a broken checkpoint must degrade to a fresh fit.
        """
        from repro.telemetry import get_telemetry

        path = self.path
        if not os.path.exists(path):
            return None
        try:
            with np.load(path, allow_pickle=False) as archive:
                meta = json.loads(str(archive[META_KEY][()]))
                if not isinstance(meta, dict) or \
                        meta.get("format_version") != FORMAT_VERSION:
                    raise ValueError("unsupported checkpoint format")
                arrays = {name: archive[name] for name in archive.files
                          if name != META_KEY}
        except Exception:
            telemetry = get_telemetry()
            telemetry.counter("checkpoint.corrupt").inc()
            if telemetry.enabled:
                telemetry.event("checkpoint_corrupt", key=self.key,
                                path=path)
            self.clear()
            return None
        return {"meta": meta, "arrays": arrays}

    def clear(self) -> bool:
        """Remove the snapshot (a completed fit needs no resume point)."""
        try:
            os.unlink(self.path)
        except OSError:
            return False
        return True

    def __repr__(self) -> str:
        return (f"FitCheckpointer({self.directory!r}, key={self.key!r}, "
                f"every={self.every})")
