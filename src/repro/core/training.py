"""Training loop for the causality-aware transformer.

Follows the paper's scheme (Sec. 5.3): parameters initialised with He
initialisation, optimised with Adam, and trained with an early-stop strategy
on a held-out validation split of the windows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro import faults
from repro.core.config import CausalFormerConfig
from repro.core.transformer import CausalityAwareTransformer
from repro.nn.inference import profiling_hook
from repro.nn.optim import Adam
from repro.nn.parallel import get_engine_threads
from repro.nn.training_engine import TrainingEngine
from repro.telemetry import get_telemetry, verbose_telemetry

#: Element budget for the fused multi-step training gather: blocks of
#: mini-batches are staged through one ``np.take`` into a buffer of at most
#: this many elements (~32 MB at float64), amortising per-step gather
#: dispatch without letting wide window sets balloon the arena.
GATHER_ELEMENT_BUDGET = 4_000_000


@dataclass
class TrainingHistory:
    """Per-epoch losses and the early-stopping bookkeeping."""

    train_loss: List[float] = field(default_factory=list)
    validation_loss: List[float] = field(default_factory=list)
    best_epoch: int = -1
    best_validation_loss: float = float("inf")
    stopped_early: bool = False
    #: training produced a NaN/inf epoch or validation loss and was aborted.
    #: A non-finite loss can never improve ``best_validation_loss``, so
    #: without this flag a diverged run would silently burn the whole
    #: patience window and hand back garbage weights with ``best_epoch == -1``.
    diverged: bool = False
    #: the lane training this model raised mid-fit and was quarantined out
    #: of its stacked fleet (see
    #: :class:`repro.core.batched.StackedCausalFormerTrainer`); the history
    #: covers only the epochs completed before the fault.
    quarantined: bool = False

    @property
    def n_epochs(self) -> int:
        return len(self.train_loss)

    def to_dict(self) -> dict:
        """JSON-able snapshot (used by the fit checkpoints)."""
        return {
            "train_loss": list(self.train_loss),
            "validation_loss": list(self.validation_loss),
            "best_epoch": self.best_epoch,
            "best_validation_loss": self.best_validation_loss,
            "stopped_early": self.stopped_early,
            "diverged": self.diverged,
            "quarantined": self.quarantined,
        }

    def restore(self, payload: dict) -> "TrainingHistory":
        """Overwrite this history in place from :meth:`to_dict` output.

        In place (rather than a classmethod constructor) because trainers
        and lanes hold references to the history object they report into —
        a resumed fit must keep appending to the same object."""
        self.train_loss = [float(value) for value in payload["train_loss"]]
        self.validation_loss = [float(value)
                                for value in payload["validation_loss"]]
        self.best_epoch = int(payload["best_epoch"])
        self.best_validation_loss = float(payload["best_validation_loss"])
        self.stopped_early = bool(payload.get("stopped_early", False))
        self.diverged = bool(payload.get("diverged", False))
        self.quarantined = bool(payload.get("quarantined", False))
        return self


def losses_diverged(epoch_loss: float, validation_loss: float) -> bool:
    """Whether a (train, validation) loss pair signals divergence.

    Shared by :class:`Trainer` and the stacked trainer so both stop on the
    exact same condition (the batched path's identity contract includes the
    divergence bookkeeping).
    """
    return not (np.isfinite(epoch_loss) and np.isfinite(validation_loss))


def split_windows(windows: np.ndarray, rng: np.random.Generator,
                  config: CausalFormerConfig):
    """Shuffle-split windows into (train, validation) per the config.

    Shared by :class:`Trainer` and the stacked trainer
    (:mod:`repro.core.batched`) — the batched path's bit-identity contract
    requires both to draw exactly the same split from the same rng stream.
    """
    n_windows = windows.shape[0]
    indices = rng.permutation(n_windows)
    n_validation = int(round(n_windows * config.validation_fraction))
    n_validation = min(max(n_validation, 1 if n_windows > 1 else 0),
                       n_windows - 1)
    validation_idx = indices[:n_validation]
    train_idx = indices[n_validation:]
    return windows[train_idx], windows[validation_idx] if n_validation else None


class Trainer:
    """Adam + early stopping over sliding windows of one dataset."""

    def __init__(self, model: CausalityAwareTransformer,
                 config: Optional[CausalFormerConfig] = None) -> None:
        self.model = model
        self.config = config or model.config
        self._parameters = list(model.parameters())
        self.optimizer = Adam(self._parameters, lr=self.config.learning_rate,
                              clip_norm=self.config.grad_clip)
        self.history = TrainingHistory()
        # Training steps and validation passes run on one fused no-autograd
        # engine (hand-derived backward, gradients written straight into the
        # flat Adam buffer).  Its scratch arena belongs to the trainer, so
        # every training buffer is released with it instead of staying
        # pinned on the model after fit().
        self._training = TrainingEngine(model, self.optimizer)
        # Resolved per fit(): the active telemetry runtime, or a transient
        # stderr one when fit(verbose=True) runs with telemetry off.
        self._telemetry = None

    def _resolve_telemetry(self, verbose: bool = False):
        """Pick the runtime for this run and sync the engine profiling hook.

        The fused engines' per-op hook is instance state with zero cost when
        off; it follows the runtime's ``engine_profiling`` flag so enabling
        telemetry after the trainer was built still takes effect (and
        disabling it cleanly unhooks).  The hook caches its histograms and
        the metrics registry locks their updates, so profiled engines stay
        safe under threaded op execution.
        """
        telemetry = self._telemetry = verbose_telemetry(verbose)
        if telemetry.enabled:
            telemetry.gauge("engine.threads").set(get_engine_threads())
        if telemetry.engine_profiling:
            self._training.enable_profiling(profiling_hook(telemetry))
        else:
            self._training.disable_profiling()
        return telemetry

    # ------------------------------------------------------------------ #
    # Data preparation
    # ------------------------------------------------------------------ #
    def make_windows(self, values: np.ndarray) -> np.ndarray:
        """Cut the ``(N, T_total)`` series into training windows."""
        from repro.data.windows import sliding_windows

        return sliding_windows(values, self.config.window, self.config.window_stride)

    def _split(self, windows: np.ndarray, rng: np.random.Generator):
        return split_windows(windows, rng, self.config)

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def fit(self, values: np.ndarray, verbose: bool = False,
            checkpoint=None) -> TrainingHistory:
        """Train on an ``(N, T_total)`` array; returns the loss history.

        ``checkpoint`` (an optional
        :class:`~repro.service.checkpoint.FitCheckpointer`) snapshots the
        full optimisation state — weights, flat Adam buffers, RNG state and
        the history bookkeeping — at its cadence; when it already holds a
        snapshot for this fit, training resumes from the saved epoch and the
        finished run is **bit-identical** to an uninterrupted one (every
        array restores in place, the generator resumes from the exact saved
        bit-generator state).  The snapshot is cleared on completion.
        """
        telemetry = self._resolve_telemetry(verbose)
        rng = np.random.default_rng(self.config.seed)
        windows = self.make_windows(values)
        # Cast once to the model's parameter dtype (float32 engine default)
        # so no per-batch Tensor construction re-casts the data.
        dtype = next(iter(self.model.parameters())).data.dtype
        windows = np.ascontiguousarray(windows, dtype=dtype)
        train_windows, validation_windows = self._split(windows, rng)

        best_state = None
        epochs_without_improvement = 0
        start_epoch = 0
        if checkpoint is not None:
            state = checkpoint.load()
            if state is not None:
                try:
                    start_epoch, best_state, epochs_without_improvement = \
                        self._restore_fit_state(state, rng)
                except (KeyError, TypeError, ValueError):
                    # A snapshot from an incompatible config/architecture:
                    # degrade to a fresh fit (validation happens before any
                    # mutation, so nothing is half-restored).
                    if telemetry.enabled:
                        telemetry.counter("checkpoint.rejected").inc()
                        telemetry.event("checkpoint_rejected",
                                        key=checkpoint.key)
                else:
                    if telemetry.enabled:
                        telemetry.event("fit_resumed", epoch=start_epoch,
                                        key=checkpoint.key)

        # repro: allow(telemetry-guard): fit-scoped span; null trace is free
        with telemetry.trace("train_fit", n_windows=windows.shape[0],
                             max_epochs=self.config.max_epochs,
                             seed=self.config.seed) as fit_span:
            for epoch in range(start_epoch, self.config.max_epochs):
                epoch_loss = self._run_epoch(train_windows, rng)
                self.history.train_loss.append(epoch_loss)

                if validation_windows is not None and len(validation_windows):
                    validation_loss = self._evaluate(validation_windows)
                else:
                    validation_loss = epoch_loss
                self.history.validation_loss.append(validation_loss)

                if telemetry.enabled:
                    telemetry.event("train_epoch", epoch=epoch,
                                    loss=epoch_loss,
                                    validation_loss=validation_loss)

                if losses_diverged(epoch_loss, validation_loss):
                    # A non-finite loss never improves and never errors out
                    # of the patience window: stop immediately and flag the
                    # run, restoring the last finite best state below (if
                    # any).
                    self.history.diverged = True
                    if telemetry.enabled:
                        telemetry.event("train_diverged", epoch=epoch,
                                        loss=epoch_loss,
                                        validation_loss=validation_loss)
                    break

                if validation_loss < self.history.best_validation_loss - self.config.min_delta:
                    self.history.best_validation_loss = validation_loss
                    self.history.best_epoch = epoch
                    # Snapshot parameter values directly — cheaper than a
                    # full state_dict walk, and taken every improving epoch.
                    best_state = [parameter.data.copy()
                                  for parameter in self._parameters]
                    epochs_without_improvement = 0
                else:
                    epochs_without_improvement += 1
                    if epochs_without_improvement >= self.config.patience:
                        self.history.stopped_early = True
                        if telemetry.enabled:
                            telemetry.event(
                                "early_stop", epoch=epoch,
                                best_epoch=self.history.best_epoch)
                        break

                if checkpoint is not None and checkpoint.due(epoch):
                    checkpoint.save(self._fit_checkpoint_state(
                        epoch + 1, rng, best_state,
                        epochs_without_improvement))
            fit_span.set(epochs=self.history.n_epochs,
                         best_epoch=self.history.best_epoch,
                         stopped_early=self.history.stopped_early,
                         diverged=self.history.diverged)

        if best_state is not None:
            # Copy in place rather than re-pointing ``parameter.data`` at the
            # snapshot arrays: the fused Adam's flat parameter buffer, the
            # training engine's views and the stacked trainer's (K, P) views
            # are all bound to the current storage — re-pointing would detach
            # every one of them from the restored weights.
            for parameter, saved in zip(self._parameters, best_state):
                parameter.data[...] = saved
        if checkpoint is not None:
            # The fit finished — its resume point would only shadow the
            # (cached/stored) result on a future identical run.
            checkpoint.clear()
        return self.history

    # ------------------------------------------------------------------ #
    # Checkpoint state (consumed by service.checkpoint.FitCheckpointer)
    # ------------------------------------------------------------------ #
    def _fit_checkpoint_state(self, next_epoch: int,
                              rng: np.random.Generator,
                              best_state, epochs_without_improvement: int):
        """Snapshot everything epoch ``next_epoch`` needs to run as if the
        preceding epochs had just happened in this process."""
        arrays = {f"param_{i}": parameter.data.copy()
                  for i, parameter in enumerate(self._parameters)}
        adam = self.optimizer.state_dict()
        arrays["adam_m"] = adam["m"]
        arrays["adam_v"] = adam["v"]
        if best_state is not None:
            for i, saved in enumerate(best_state):
                arrays[f"best_{i}"] = saved
        meta = {
            "kind": "solo_fit",
            "seed": self.config.seed,
            "dtype": str(np.dtype(self._parameters[0].data.dtype)),
            "n_parameters": len(self._parameters),
            "epoch": next_epoch,
            "rng": rng.bit_generator.state,
            "adam_step_count": adam["step_count"],
            "epochs_without_improvement": epochs_without_improvement,
            "has_best": best_state is not None,
            "history": self.history.to_dict(),
        }
        return {"meta": meta, "arrays": arrays}

    def _restore_fit_state(self, state, rng: np.random.Generator):
        """In-place restore of :meth:`_fit_checkpoint_state` output.

        Validates *everything* (kind, seed, dtype, parameter count and
        shapes, RNG family) before mutating anything, so a rejected
        snapshot leaves the fresh fit untouched.  Raises ``KeyError`` /
        ``TypeError`` / ``ValueError`` on mismatch.
        """
        meta = state["meta"]
        arrays = state["arrays"]
        if meta.get("kind") != "solo_fit":
            raise ValueError("not a solo-fit checkpoint")
        if int(meta["seed"]) != self.config.seed:
            raise ValueError("checkpoint seed mismatch")
        dtype = self._parameters[0].data.dtype
        if meta.get("dtype") != str(np.dtype(dtype)):
            raise ValueError("checkpoint dtype mismatch")
        if int(meta["n_parameters"]) != len(self._parameters):
            raise ValueError("checkpoint parameter count mismatch")
        params = [np.asarray(arrays[f"param_{i}"])
                  for i in range(len(self._parameters))]
        for parameter, saved in zip(self._parameters, params):
            if saved.shape != parameter.data.shape or saved.dtype != dtype:
                raise ValueError("checkpoint parameter layout mismatch")
        best_state = None
        if meta.get("has_best"):
            best_state = [np.asarray(arrays[f"best_{i}"]).copy()
                          for i in range(len(self._parameters))]
            for parameter, saved in zip(self._parameters, best_state):
                if saved.shape != parameter.data.shape or saved.dtype != dtype:
                    raise ValueError("checkpoint best-state layout mismatch")
        rng_state = meta["rng"]
        if not isinstance(rng_state, dict) or \
                rng_state.get("bit_generator") != \
                rng.bit_generator.state["bit_generator"]:
            raise ValueError("checkpoint RNG family mismatch")
        start_epoch = int(meta["epoch"])
        if not 0 < start_epoch <= self.config.max_epochs:
            raise ValueError("checkpoint epoch out of range")
        history = dict(meta["history"])

        # Validation passed — mutate in place (the fused Adam buffer, the
        # shared engines and any stacked views stay bound to the restored
        # storage, exactly like the best-state restore at fit end).
        rng.bit_generator.state = rng_state
        self.optimizer.load_state_dict({
            "step_count": meta["adam_step_count"],
            "m": arrays["adam_m"], "v": arrays["adam_v"]})
        for parameter, saved in zip(self._parameters, params):
            parameter.data[...] = saved
        self.history.restore(history)
        return (start_epoch, best_state,
                int(meta["epochs_without_improvement"]))

    def _run_epoch(self, windows: np.ndarray, rng: np.random.Generator) -> float:
        """One shuffled pass over the training windows.

        Runs on the fused no-autograd :class:`TrainingEngine` (fused
        forward, hand-derived backward, no graph).  Mini-batches are index
        views: the epoch shuffles indices once and gathers a *block* of
        several mini-batches through one stacked ``np.take`` into a
        persistent arena buffer (bounded by :data:`GATHER_ELEMENT_BUDGET`),
        then steps over contiguous ``batch_size`` slices of the block — the
        same rows in the same order as a naive per-step gather, so losses
        and weights are bit-identical to that loop.
        """
        telemetry = self._telemetry if self._telemetry is not None \
            else get_telemetry()
        order = rng.permutation(windows.shape[0])
        batch_size = self.config.batch_size
        engine = self._training
        # Replays the per-batch Tensor-construction casts once per epoch
        # (a no-op when the windows already carry the engine dtype).
        windows = engine.prepare_windows(windows)
        arena = engine.arena
        tail_shape = windows.shape[1:]
        row_elements = max(1, int(np.prod(tail_shape)))
        steps_per_block = max(1, GATHER_ELEMENT_BUDGET
                              // max(1, row_elements * batch_size))
        block_rows = min(max(len(order), 1), steps_per_block * batch_size)
        gather = arena.take("train.gather", (block_rows,) + tail_shape,
                            windows.dtype)
        losses = []
        if not telemetry.enabled and not faults.active():
            # The instrumented loop below is identical but pays a
            # perf_counter pair and a fault seam per step; this branch keeps
            # the telemetry-off, faults-off path at one attribute check per
            # epoch.
            for block_start in range(0, len(order), block_rows):
                block_index = order[block_start:block_start + block_rows]
                block = gather[:len(block_index)]
                np.take(windows, block_index, axis=0, out=block)
                for start in range(0, len(block_index), batch_size):
                    losses.append(
                        engine.train_step(block[start:start + batch_size]))
            return float(np.mean(losses)) if losses else float("nan")
        # repro: allow(telemetry-guard): also reached with telemetry off when a fault plan is active; the null-runtime histogram is a no-op and chaos runs are not perf-sensitive
        histogram = telemetry.histogram("train.step_seconds")
        for block_start in range(0, len(order), block_rows):
            block_index = order[block_start:block_start + block_rows]
            block = gather[:len(block_index)]
            np.take(windows, block_index, axis=0, out=block)
            for start in range(0, len(block_index), batch_size):
                batch = block[start:start + batch_size]
                faults.fault_point("train_step")
                step_start = time.perf_counter()
                losses.append(engine.train_step(batch))
                histogram.observe(time.perf_counter() - step_start)
        return float(np.mean(losses)) if losses else float("nan")

    def _evaluate(self, windows: np.ndarray) -> float:
        """Validation loss, evaluated in ``batch_size`` chunks.

        Chunking keeps peak memory proportional to the batch size — the
        forward pass materialises a ``(chunk, N, N, T)`` convolution tensor,
        so a single full-split evaluation used to dominate peak RSS.  Each
        window contributes the same number of loss elements and the L1
        penalties are constant across chunks, so the window-weighted mean of
        the chunk losses equals the single-shot loss exactly.

        The pass runs on the training engine's fused no-autograd forward,
        which writes every intermediate into a reusable scratch arena
        instead of fresh graph nodes and temporaries; its losses match the
        plain autograd reference (:meth:`CausalityAwareTransformer.loss`) up
        to floating-point rounding.
        """
        return self._training.evaluate(windows, self.config.batch_size)
