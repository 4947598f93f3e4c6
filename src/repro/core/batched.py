"""Lockstep training of several same-shape CausalFormer models.

A causal-discovery sweep runs many *small* models — one per (dataset, seed)
cell — and at these sizes the per-step numpy/autograd dispatch overhead
costs more than the arithmetic.  :class:`StackedCausalFormerTrainer` trains
``K`` same-architecture models (different datasets and seeds) in lockstep:
every parameter gains a leading model axis, each training step runs the
whole fleet through stacked GEMMs (one set of numpy calls for ``K`` models
instead of ``K`` sets), and a hand-derived backward with a leading model
axis, evaluated over persistent scratch arenas by
:class:`repro.nn.training_engine.StackedTrainingEngine` (the engine a solo
fit runs at ``K = 1``), fills the gradient rows of a
:class:`repro.nn.optim.ParameterStack` that
:class:`repro.nn.optim.StackedAdam` then updates (the solo fit's storage
and optimizer, at ``K = 1``).  Mini-batches are built by one stacked gather
(a single ``np.take`` over the concatenated training sets into a persistent
batch buffer), and the engine that runs the training steps is the same
object (same arena) that runs every validation pass; its arena is also
handed to the group detector interpretation.

**Equal window counts.**  Every lane must carry the same number of training
windows and the same number of validation windows (:meth:`fit` raises
``ValueError`` otherwise; the service layer groups jobs by exact series
length, so its groups always qualify).  Each lane draws its own shuffle, so
an epoch is ``n_train // batch_size`` full steps at the exact solo
``(B, N, T)`` batch shape plus one ragged tail step at the solo tail shape,
every one of them over all ``K`` live lanes.

**Live lane compaction.**  When a lane early-stops, diverges or completes
``max_epochs``, it is retired at the round boundary: its best-epoch weights
become owned arrays on the model, and the ``(K, P)`` parameter/Adam
matrices repack in place to ``(K-1, P)`` — the remaining lanes stop paying
for a dead row on every subsequent step.

Numerical contract: batched matmuls dispatch one GEMM per 2-D slice and
reductions keep their per-model order, so every model's parameter
trajectory is **bit-identical** to training it alone through
:class:`repro.core.training.Trainer` (the correctness tests assert exactly
this), in float64 and float32 alike, through compaction.

While a lane is live, its model's parameter tensors are views of the
stacked ``(K, P)`` matrix (zero-copy stacked steps); when it retires, the
best-state restore re-points the model at owned arrays, because its row is
about to be overwritten by the compaction.  The single-kernel ablation
stacks too: its shared ``(1, 1, T)`` kernel is broadcast through the same
constant-ones multiply as ``MultiKernelCausalConvolution.effective_kernel``,
with the matching unbroadcast-sum backward.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import faults
from repro.core.config import CausalFormerConfig
from repro.core.training import (GATHER_ELEMENT_BUDGET, FitProgress,
                                 TrainingHistory, end_epoch, split_windows)
from repro.core.transformer import CausalityAwareTransformer
from repro.data.windows import sliding_windows
from repro.nn.inference import profiling_hook
from repro.nn.optim import ParameterStack, StackedAdam
from repro.nn.parallel import engine_session
from repro.nn.training_engine import StackedTrainingEngine
from repro.telemetry import get_telemetry


class _Lane(FitProgress):
    """Bookkeeping for one occupied stack row (its early-stopping state
    included)."""

    __slots__ = ("model", "index", "rng", "train", "validation", "epoch",
                 "batch_losses")

    def __init__(self, model, index, parameters, rng, train, validation,
                 history) -> None:
        super().__init__(history, parameters)
        self.model = model
        #: index into the trainer's ``models``/``histories`` lists
        self.index = index
        self.rng = rng
        self.train = train
        self.validation = validation
        self.epoch = 0
        self.batch_losses: List[float] = []

    @property
    def n_train(self) -> int:
        return self.train.shape[0]

    @property
    def n_validation(self) -> int:
        return 0 if self.validation is None else len(self.validation)


class StackedCausalFormerTrainer:
    """Adam + early stopping over ``K`` models, one stacked step at a time.

    Parameters
    ----------
    models:
        Same-architecture :class:`CausalityAwareTransformer` instances (their
        configs may differ only in ``seed``), one lane each.
    """

    def __init__(self, models: Sequence[CausalityAwareTransformer]) -> None:
        if not models:
            raise ValueError("need at least one model to train")
        self.models = list(models)
        reference = self.models[0].config
        for model in self.models[1:]:
            if not self._compatible(reference, model.config):
                raise ValueError(
                    "stacked training requires identical configs up to the seed")
        self.config = reference
        self.histories = [TrainingHistory() for _ in self.models]
        self._parameters = [list(model.parameters()) for model in self.models]
        self._lanes: List[_Lane] = []
        # Every model's parameters as one row of a (K, P) matrix.
        self._stack = ParameterStack(
            [name for name, _p in self.models[0].named_parameters()],
            self._parameters)
        self.dtype = self._stack.dtype
        self.params = self._stack.params
        self._grads = self._stack.grads
        self._k = len(self.models)
        stacked, self._grad_views = self._stack.views(self._k)
        # One fused engine serves the whole sweep: training steps (its
        # hand-derived stacked backward writes into self._grads), every
        # validation pass (it is a StackedInferenceEngine) and — via its
        # arena, handed to compute_scores_group by the service layer — the
        # group's detector interpretation.
        self.engine = StackedTrainingEngine(self.models, stacked,
                                            self._grad_views)
        self._optimizer = StackedAdam(self.params, lr=self.config.learning_rate,
                                      clip_norm=self.config.grad_clip)
        self._train_flat: Optional[np.ndarray] = None
        # fit compacts every lane out of the stack as it finishes, so a
        # trainer fits once
        self._fitted = False
        #: the most engine threads a step of this fit ran on (gauge)
        self._threads = 0

    @staticmethod
    def _compatible(a: CausalFormerConfig, b: CausalFormerConfig) -> bool:
        payload_a = {k: v for k, v in a.to_dict().items() if k != "seed"}
        payload_b = {k: v for k, v in b.to_dict().items() if k != "seed"}
        return payload_a == payload_b

    # ------------------------------------------------------------------ #
    # Lane lifecycle
    # ------------------------------------------------------------------ #
    def _make_lane(self, model, values, index: int) -> _Lane:
        config = self.config
        rng = np.random.default_rng(model.config.seed)
        windows = sliding_windows(np.asarray(values), config.window,
                                  config.window_stride)
        windows = np.ascontiguousarray(windows, dtype=self.dtype)
        train, validation = self._split(windows, rng, model.config)
        lane = _Lane(model, index, self._parameters[index], rng, train,
                     validation, self.histories[index])
        if self._lanes:
            first = self._lanes[0]
            if train.shape[1:] != first.train.shape[1:]:
                raise ValueError("stacked training requires matching (N, T) "
                                 "window geometry")
            if (lane.n_train, lane.n_validation) \
                    != (first.n_train, first.n_validation):
                raise ValueError(
                    "stacked training requires equal train and validation "
                    f"window counts; got {lane.n_train} + {lane.n_validation}"
                    f" against {first.n_train} + {first.n_validation}")
        return lane

    def _retire_lane(self, row: int, telemetry) -> None:
        """Restore a finished lane's best weights and compact it out.

        The model leaves with *owned* parameter arrays (its stack row is
        about to be overwritten); rows above it shift up one-by-one in the
        parameter and Adam matrices, and every shifted lane's model is
        re-pointed at its new row — all plain per-row copies, so the
        surviving lanes' trajectories are untouched bit for bit.
        """
        lane = self._lanes.pop(row)
        k = self._k
        if lane.best_state is not None:
            final = lane.best_state
        else:
            # Never improved and did not diverge-before-best: keep the
            # current weights, exactly like the sequential trainer without a
            # snapshot to restore.
            final = [parameter.data.copy() for parameter in lane.parameters]
        for parameter, data in zip(lane.parameters, final):
            parameter.data = data
        for r in range(row, k - 1):
            self.params[r] = self.params[r + 1]
        self._optimizer.compact_row(row, k)
        self._k = k - 1
        for r in range(row, self._k):
            self._stack.point_at_row(self._lanes[r].parameters, r)
        if telemetry.enabled:
            telemetry.event("lane_compacted", model=lane.index,
                            epochs=lane.history.n_epochs, lanes=self._k)

    def _refresh_bindings(self) -> None:
        """Rebind the engine to the ``(K, P)`` prefix left by compaction."""
        stacked, self._grad_views = self._stack.views(self._k)
        self.engine.rebind([lane.model for lane in self._lanes], stacked,
                           self._grad_views)
        self._train_flat = None

    # ------------------------------------------------------------------ #
    # Training loop (lockstep replica of Trainer.fit)
    # ------------------------------------------------------------------ #
    def fit(self, values_list: Sequence[np.ndarray]) -> List[TrainingHistory]:
        """Train every model on its own ``(N, T_total)`` series, in lockstep.

        Raises ``ValueError`` unless every series yields the same window
        geometry and the same train and validation window counts, and
        ``RuntimeError`` when this trainer has already fitted.  Any
        exception inside a step leaves ``fit`` — a stacked step cannot pin
        a failure on one lane — and the service layer re-runs the whole
        group job by job (:func:`repro.service.batched.execute_batched_jobs`).
        As in :meth:`repro.core.training.Trainer.fit`, BLAS runs on one
        thread for the whole loop, whatever the engine thread count.
        """
        if self._fitted:
            raise RuntimeError("a StackedCausalFormerTrainer fits once; "
                               "build a new trainer to fit again")
        if len(values_list) != len(self.models):
            raise ValueError("one dataset per model required")
        config = self.config
        telemetry = get_telemetry()
        self._lanes = []
        for index, (model, values) in enumerate(zip(self.models, values_list)):
            self._lanes.append(self._make_lane(model, values, index))
        self._fitted = True

        engine = self.engine
        self._threads = 0
        if telemetry.engine_profiling:
            engine.enable_profiling(profiling_hook(telemetry))
        else:
            engine.disable_profiling()
        # repro: allow(telemetry-guard): handle fetched once per fit and set
        lanes_gauge = telemetry.gauge("scheduler.lanes_active")
        lanes_gauge.set(self._k)

        # repro: allow(telemetry-guard): fit-scoped span; null trace is free
        with telemetry.trace(
                "train_fit_stacked", models=self._k,
                n_windows=sum(lane.n_train for lane in self._lanes),
                max_epochs=config.max_epochs) as fit_span, \
                engine_session():
            while self._lanes:
                self._run_round()
                finished = self._finish_epochs(telemetry)
                for row in reversed(finished):
                    self._retire_lane(row, telemetry)
                if finished:
                    if self._lanes:
                        self._refresh_bindings()
                    lanes_gauge.set(self._k)
            if telemetry.enabled:
                telemetry.gauge("engine.threads").set(self._threads)
            fit_span.set(
                models=len(self.models),
                epochs=max(history.n_epochs for history in self.histories),
                stopped_early=sum(history.stopped_early
                                  for history in self.histories),
                diverged=sum(history.diverged
                             for history in self.histories))
        return self.histories

    def _run_round(self) -> None:
        """One epoch for every live lane: full steps, then one tail step.

        Each lane shuffles its own windows with its own rng; every step
        gathers one ``batch_size`` slab per lane and runs all ``K`` lanes at
        the exact solo ``(B, N, T)`` shape, and the ragged remainder is one
        more all-lane step at the solo tail shape — so each lane's step
        sequence is its solo epoch.
        """
        lanes = self._lanes
        k = self._k
        batch_size = self.config.batch_size
        arena = self.engine.arena
        n_train = lanes[0].n_train
        if self._train_flat is None:
            # The live lanes' training sets, concatenated for one gather.
            self._train_flat = np.ascontiguousarray(
                np.concatenate([lane.train for lane in lanes], axis=0))
        train_flat = self._train_flat
        tail_shape = train_flat.shape[1:]
        row_elements = max(1, int(np.prod(tail_shape)))
        # (K, n_train) row indices into the concatenated sets.
        orders = np.stack([lane.rng.permutation(n_train) for lane in lanes])
        orders += (np.arange(k) * n_train)[:, None]
        for lane in lanes:
            lane.batch_losses = []

        n_full = n_train // batch_size
        step_rows = k * batch_size
        if n_full:
            steps = orders[:, :n_full * batch_size].reshape(k, n_full,
                                                            batch_size)
            block_steps = max(1, min(n_full, GATHER_ELEMENT_BUDGET
                                     // max(1, step_rows * row_elements)))
            gather = arena.take("train.gather",
                                (block_steps, k, batch_size) + tail_shape,
                                self.dtype)
            for block_start in range(0, n_full, block_steps):
                block_stop = min(block_start + block_steps, n_full)
                count = block_stop - block_start
                block = gather[:count]
                np.take(train_flat,
                        steps[:, block_start:block_stop]
                        .transpose(1, 0, 2).ravel(), axis=0,
                        out=block.reshape((count * step_rows,) + tail_shape))
                for index in range(count):
                    self._step_lanes(block[index])

        remainder = n_train - n_full * batch_size
        if remainder:
            batch = arena.take("train.batch", (k, remainder) + tail_shape,
                               self.dtype)
            np.take(train_flat, orders[:, n_full * batch_size:].ravel(),
                    axis=0, out=batch.reshape((k * remainder,) + tail_shape))
            self._step_lanes(batch)

    def _step_lanes(self, batch: np.ndarray) -> None:
        """One lockstep step of every live lane; ``batch`` has one slab per
        lane.  The ``lane_step`` fault seam raises straight out of
        :meth:`fit`."""
        if faults.active():
            faults.fault_point("lane_step", lanes=self._k)
        losses, grads = self._forward_backward(batch)
        self._optimizer.step(grads, self._k)
        for lane, loss in zip(self._lanes, losses):
            lane.batch_losses.append(loss)

    def _finish_epochs(self, telemetry) -> List[int]:
        """Per-lane epoch-end bookkeeping; returns lane rows to retire."""
        lanes = self._lanes
        config = self.config
        validation_losses = None
        if lanes[0].n_validation:
            validation_losses = self.engine.evaluate_grouped(
                [lane.validation for lane in lanes], config.batch_size)
        finished: List[int] = []
        for row, lane in enumerate(lanes):
            epoch_loss = float(np.mean(lane.batch_losses)) \
                if lane.batch_losses else float("nan")
            validation_loss = epoch_loss if validation_losses is None \
                else validation_losses[row]
            epoch = lane.epoch
            lane.epoch = epoch + 1
            if end_epoch(lane, epoch, epoch_loss, validation_loss, config,
                         telemetry, model=lane.index) \
                    or lane.epoch >= config.max_epochs:
                finished.append(row)
        return finished

    # The split must match the sequential trainer draw for draw.
    _split = staticmethod(split_windows)

    def _forward_backward(self, xb: np.ndarray
                          ) -> Tuple[List[float], np.ndarray]:
        """One stacked fused forward + hand-derived backward (no autograd).

        Delegates to :class:`repro.nn.training_engine.StackedTrainingEngine`,
        which runs the hand-derived backward with a leading model axis over
        persistent arena buffers and writes every gradient into the stacked
        flat matrix returned here; batched matmuls run the same per-slice
        GEMMs, so each model's gradients are bit-identical to a solo step
        (the same engine at K = 1).
        """
        losses = self.engine.train_step(xb)
        self._threads = max(self._threads, self.engine.threads)
        return losses, self._grads
