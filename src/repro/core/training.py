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
from repro.nn.parallel import engine_session
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

    @property
    def n_epochs(self) -> int:
        return len(self.train_loss)


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


class FitProgress:
    """Early-stopping state of one fit.

    Holds the fit's :class:`TrainingHistory`, the parameters whose values
    are snapshotted at every improving epoch, the count of epochs since the
    last improvement and that best-epoch snapshot.  :class:`Trainer` keeps
    one per fit; each lane of the stacked trainer is one.
    """

    __slots__ = ("history", "parameters", "stale_epochs", "best_state")

    def __init__(self, history: TrainingHistory, parameters) -> None:
        self.history = history
        self.parameters = parameters
        self.stale_epochs = 0
        self.best_state: Optional[List[np.ndarray]] = None


def end_epoch(progress: FitProgress, epoch: int, epoch_loss: float,
              validation_loss: float, config: CausalFormerConfig,
              telemetry, **fields) -> bool:
    """Record one finished epoch and apply the early-stopping rule.

    Appends the losses, emits ``train_epoch``, then stops on divergence,
    snapshots the weights on a ``min_delta`` improvement, or counts a stale
    epoch and stops once ``patience`` of them ran.  Returns whether the fit
    must stop.  Restoring the best weights is the caller's: the solo trainer
    copies them in place, the stacked trainer re-points a retiring lane.
    ``fields`` tag every event (the stacked trainer passes ``model=``).

    Shared by :class:`Trainer` and the stacked trainer — the batched path's
    bit-identity contract includes this bookkeeping.
    """
    history = progress.history
    history.train_loss.append(epoch_loss)
    history.validation_loss.append(validation_loss)
    if telemetry.enabled:
        telemetry.event("train_epoch", **fields, epoch=epoch, loss=epoch_loss,
                        validation_loss=validation_loss)
    if not (np.isfinite(epoch_loss) and np.isfinite(validation_loss)):
        # A non-finite loss never improves and never errors out of the
        # patience window: stop immediately and flag the run.  A fit that
        # diverged before ever improving has no snapshot and keeps its
        # current weights.
        history.diverged = True
        if telemetry.enabled:
            telemetry.event("train_diverged", **fields, epoch=epoch,
                            loss=epoch_loss, validation_loss=validation_loss)
        return True
    if validation_loss < history.best_validation_loss - config.min_delta:
        history.best_validation_loss = validation_loss
        history.best_epoch = epoch
        progress.best_state = [parameter.data.copy()
                               for parameter in progress.parameters]
        progress.stale_epochs = 0
        return False
    progress.stale_epochs += 1
    if progress.stale_epochs < config.patience:
        return False
    history.stopped_early = True
    if telemetry.enabled:
        telemetry.event("early_stop", **fields, epoch=epoch,
                        best_epoch=history.best_epoch)
    return True


class Trainer:
    """Adam + early stopping over sliding windows of one dataset."""

    def __init__(self, model: CausalityAwareTransformer) -> None:
        self.model = model
        self.config = model.config
        self._parameters = list(model.parameters())
        self.history = TrainingHistory()
        # Training steps and validation passes run on one fused no-autograd
        # engine (hand-derived backward, gradients written straight into its
        # (1, P) gradient matrix, stacked Adam at K = 1).  Its scratch arena
        # and parameter matrix belong to the trainer, so every training
        # buffer is released with it instead of staying pinned on the model
        # after fit().
        self._training = TrainingEngine(model)
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
    def fit(self, values: np.ndarray, verbose: bool = False) -> TrainingHistory:
        """Train on an ``(N, T_total)`` array; returns the loss history.

        BLAS runs on one thread from the loop's start to its end
        (:func:`repro.nn.parallel.engine_session`), so the weights are the
        same at every engine thread count.
        """
        telemetry = self._resolve_telemetry(verbose)
        rng = np.random.default_rng(self.config.seed)
        windows = self.make_windows(values)
        # Cast once to the model's parameter dtype (float32 engine default)
        # so no per-batch Tensor construction re-casts the data.
        dtype = next(iter(self.model.parameters())).data.dtype
        windows = np.ascontiguousarray(windows, dtype=dtype)
        train_windows, validation_windows = self._split(windows, rng)
        progress = FitProgress(self.history, self._parameters)

        # repro: allow(telemetry-guard): fit-scoped span; null trace is free
        with telemetry.trace("train_fit", n_windows=windows.shape[0],
                             max_epochs=self.config.max_epochs,
                             seed=self.config.seed) as fit_span, \
                engine_session():
            for epoch in range(self.config.max_epochs):
                epoch_loss = self._run_epoch(train_windows, rng)
                if validation_windows is not None and len(validation_windows):
                    validation_loss = self._evaluate(validation_windows)
                else:
                    validation_loss = epoch_loss
                if end_epoch(progress, epoch, epoch_loss, validation_loss,
                             self.config, telemetry):
                    break
            if telemetry.enabled:
                telemetry.gauge("engine.threads").set(
                    self._training.fleet.threads)
            fit_span.set(epochs=self.history.n_epochs,
                         best_epoch=self.history.best_epoch,
                         stopped_early=self.history.stopped_early,
                         diverged=self.history.diverged)

        if progress.best_state is not None:
            # Copy in place rather than re-pointing ``parameter.data`` at the
            # snapshot arrays: the parameters are views of the training
            # engine's (1, P) matrix, and re-pointing them would detach the
            # model from the matrix a later step updates.
            for parameter, saved in zip(self._parameters, progress.best_state):
                parameter.data[...] = saved
        return self.history

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
