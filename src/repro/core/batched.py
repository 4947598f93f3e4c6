"""Lockstep training of several CausalFormer models with continuous batching.

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

This is the scheduler's *steady-state* mode, not a same-shape sweep trick —
three continuous-batching mechanisms keep the stack full and honest:

**Pad-and-mask lanes.**  Lanes may carry *different window counts* (datasets
of different lengths bucketed together by the service scheduler).  Padding a
model's own batch axis would break bit-exactness — a different GEMM ``M``
dimension can change BLAS kernel selection, hence summation order — so the
padding happens on the *lane axis* instead: the lockstep schedule is the
rectangular ``K x max_steps`` grid, every full-size step runs at the exact
solo ``(B, N, T)`` batch shape, and a lane whose epoch has fewer full steps
is masked out of the surplus steps.  The mask genuinely *skips* the work:
lanes stay sorted by descending window count, so each full step's
participants form a contiguous prefix of the stack and the step runs at
width ``m`` through a cached prefix engine over ``params[:m]`` — the masked
lanes contribute no FLOPs, no gradients, and no Adam tick (the row-masked
:class:`repro.nn.optim.StackedAdam` never touches them).  Ragged epoch
tails group by remainder size and run at each exact tail shape through a
small gathered sub-stack of just the participating rows.  Per-lane
validation counts are handled the same way
(:meth:`StackedInferenceEngine.evaluate_grouped`: shape sub-groups
evaluated at their exact solo shapes).  Because stacked width never enters
a row's arithmetic (batched matmuls dispatch per-slice 2-D GEMMs), every
lane's step/evaluate sequence is *exactly* the solo sequence.

**Live lane compaction.**  When a lane early-stops, diverges or completes
``max_epochs``, it is retired at the round boundary: its best-epoch weights
become owned arrays on the model, and the ``(K, P)`` parameter/Adam
matrices repack in place to ``(K-1, P)`` — the remaining lanes stop paying
for a dead row on every subsequent step.

**Queue refill.**  A ``refill`` callback can hand freed lanes new
``(model, values)`` work at round boundaries; a refilled lane starts at
epoch 0 with zeroed Adam state, exactly like a fresh solo fit.

Numerical contract: batched matmuls dispatch one GEMM per 2-D slice and
reductions keep their per-model order, so every model's parameter
trajectory is **bit-identical** to training it alone through
:class:`repro.core.training.Trainer` (the correctness tests assert exactly
this), in float64 and float32 alike, through compaction and refill.

While a lane is live, its model's parameter tensors are views of the
stacked ``(K, P)`` matrix (zero-copy stacked steps); when it retires, the
best-state restore re-points the model at owned arrays, because its lane is
about to be reused.  The single-kernel ablation stacks too: its shared
``(1, 1, T)`` kernel is broadcast through the same constant-ones multiply
as ``MultiKernelCausalConvolution.effective_kernel``, with the matching
unbroadcast-sum backward.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

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

#: type of the queue-refill callback: receives the number of free lanes and
#: returns up to that many ``(model, values)`` pairs to admit.
RefillCallback = Callable[[int], Sequence[Tuple[CausalityAwareTransformer,
                                                np.ndarray]]]


class _Lane(FitProgress):
    """Bookkeeping for one occupied stack row (its early-stopping state
    included)."""

    __slots__ = ("model", "index", "rng", "train", "validation", "epoch",
                 "batch_losses")

    def __init__(self, model, index, parameters, rng, train, validation,
                 history) -> None:
        super().__init__(history, parameters)
        self.model = model
        #: admission index into the trainer's ``models``/``histories`` lists
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
    def has_validation(self) -> bool:
        return self.validation is not None and len(self.validation) > 0


class _TailStack:
    """A gathered ``(g, P)`` sub-stack for one ragged-tail row group."""

    __slots__ = ("params", "grads", "engine")

    def __init__(self, params, grads, engine) -> None:
        self.params = params
        self.grads = grads
        self.engine = engine


class StackedCausalFormerTrainer:
    """Adam + early stopping over ``K`` models, one stacked step at a time.

    Parameters
    ----------
    models:
        Same-architecture :class:`CausalityAwareTransformer` instances (their
        configs may differ only in ``seed``).  They occupy the initial lanes.
    capacity:
        Total lane capacity ``C >= len(models)``; the extra rows let
        :meth:`fit`'s ``refill`` callback admit queued models into lanes
        freed by compaction.  Defaults to ``len(models)``.
    """

    def __init__(self, models: Sequence[CausalityAwareTransformer],
                 capacity: Optional[int] = None) -> None:
        if not models:
            raise ValueError("need at least one model to train")
        initial = list(models)
        reference = initial[0].config
        for model in initial[1:]:
            if not self._compatible(reference, model.config):
                raise ValueError(
                    "stacked training requires identical configs up to the seed")
        self.config = reference
        self.capacity = max(len(initial),
                            int(capacity) if capacity is not None else 0)
        #: admission-ordered — grows when ``refill`` admits queued models
        self.models = initial
        self.histories = [TrainingHistory() for _ in initial]
        self._parameters = [list(model.parameters()) for model in initial]
        self._lanes: List[_Lane] = []
        # Every model's parameters as one row of a (C, P) matrix; rows past
        # K are lane capacity for queue refill.
        self._stack = ParameterStack(
            [name for name, _p in initial[0].named_parameters()],
            self._parameters, self.capacity)
        self.dtype = self._stack.dtype
        self.params = self._stack.params
        self._grads = self._stack.grads
        self._k = len(initial)
        self._refresh_views()
        # One fused engine serves the whole sweep: training steps (its
        # hand-derived stacked backward writes into self._grads), every
        # validation pass (it is a StackedInferenceEngine) and — via its
        # arena, handed to compute_scores_group by the service layer — the
        # group's detector interpretation.
        self.engine = StackedTrainingEngine(self.models, self._stacked,
                                            self._grad_views)
        self._optimizer = StackedAdam(self.params, lr=self.config.learning_rate,
                                      clip_norm=self.config.grad_clip)
        self._train_flat: Optional[np.ndarray] = None
        self._row_offsets: Optional[np.ndarray] = None
        self._flat_dirty = True
        self._members_dirty = False
        self._padded_lane_steps = 0
        self._total_lane_steps = 0
        #: the most engine threads a step of this fit ran on (gauge)
        self._threads = 0
        #: width → engine over the ``params[:m]`` prefix (narrow full steps)
        self._prefix_engines = {}
        #: participating-rows tuple → gathered sub-stack (ragged tail steps)
        self._tail_stacks = {}
        #: rows tuple → sub-fleet engine for grouped validation passes
        self._eval_engines = {}
        #: (engine, grad matrix) the next ``_forward_backward`` call runs on
        self._step_ctx = (self.engine, self._grads)

    @staticmethod
    def _compatible(a: CausalFormerConfig, b: CausalFormerConfig) -> bool:
        payload_a = {k: v for k, v in a.to_dict().items() if k != "seed"}
        payload_b = {k: v for k, v in b.to_dict().items() if k != "seed"}
        return payload_a == payload_b

    @property
    def padded_window_fraction(self) -> float:
        """Fraction of the lockstep schedule's lane-step slots that were
        padding — slots a lane sat out because its epoch had fewer steps.
        Padded slots are *skipped*, not ridden: the step runs at the width
        of the participating rows only, so this is saved work."""
        if not self._total_lane_steps:
            return 0.0
        return self._padded_lane_steps / self._total_lane_steps

    # ------------------------------------------------------------------ #
    # Stacked parameter storage
    # ------------------------------------------------------------------ #
    def _refresh_views(self) -> None:
        """(Re)build the ``(K, *shape)`` stacked views over the active prefix.

        Always derived from the same capacity-wide base matrices, so views of
        a given width are layout-identical no matter how often lanes come and
        go — the engine's per-shape scratch spaces stay valid across rebinds.
        """
        self._stacked, self._grad_views = self._stack.views(self._k)

    def _grad_view(self, name: str) -> np.ndarray:
        """The ``(K, *shape)`` stacked view into the flat gradient matrix."""
        return self._grad_views[name]

    def _refresh_bindings(self) -> None:
        """Rebind the engine after lane compaction/refill changed the width."""
        self._refresh_views()
        self.engine.rebind([lane.model for lane in self._lanes],
                           self._stacked, self._grad_views)
        # Sub-engines index rows by lane position; a membership change (or
        # re-sort) invalidates every cached width/row-set binding.
        self._prefix_engines.clear()
        self._tail_stacks.clear()
        self._eval_engines.clear()
        self._step_ctx = (self.engine, self._grads)
        self._flat_dirty = True
        self._members_dirty = False

    def _reorder_lanes(self) -> None:
        """Keep lanes sorted by descending window count (ties: admission).

        The sort is what turns the lane mask into *skipped* work: with
        non-increasing per-lane step counts, every full step's participants
        are the contiguous prefix ``lanes[:m]``, which runs through a
        prefix-width engine with no masked rows at all.  Reordering is a
        plain row permutation of the parameter and Adam matrices (fancy
        indexing gathers before it assigns, so in-place is safe) plus a
        re-point of each model at its new row — per-lane trajectories are
        position-independent, so this is bit-neutral.
        """
        lanes = self._lanes
        order = sorted(range(len(lanes)),
                       key=lambda row: (-lanes[row].n_train,
                                        lanes[row].index))
        if order == list(range(len(lanes))):
            return
        k = self._k
        index = np.asarray(order, dtype=np.intp)
        self.params[:k] = self.params[index]
        self._optimizer.permute_rows(order, k)
        self._lanes = [lanes[row] for row in order]
        for row, lane in enumerate(self._lanes):
            self._stack.point_at_row(lane.parameters, row)
        self._members_dirty = True

    def _prefix_engine(self, m: int) -> StackedTrainingEngine:
        """The engine for a width-``m`` prefix step (cached per width).

        Width ``K`` is the main engine.  Narrower widths get their own
        :class:`StackedTrainingEngine` over ``params[:m]`` /
        ``grads[:m]`` views of the same base matrices — zero copies, and
        the shared arena keys scratch buffers by ``(name, shape)`` so every
        width keeps its own persistent scratch space.
        """
        if m == self._k:
            return self.engine
        engine = self._prefix_engines.get(m)
        if engine is None:
            stacked, grad_views = self._stack.views(m)
            engine = StackedTrainingEngine(
                [lane.model for lane in self._lanes[:m]], stacked, grad_views,
                arena=self.engine.arena)
            if self.engine.profiling_enabled:
                engine.enable_profiling(profiling_hook(get_telemetry()))
            self._prefix_engines[m] = engine
        return engine

    def _tail_stack(self, rows: Tuple[int, ...]) -> "_TailStack":
        """The gathered sub-stack for a scattered tail group (cached).

        Tail participants rarely form a prefix, so their rows are gathered
        into a private ``(g, P)`` parameter/gradient pair with an engine
        bound to views over it.  Tail group membership is constant within a
        lane era, so the stack (and its engine's backward plans) is reused
        every epoch; only the ``(g, P)`` row gather/scatter repeats.
        """
        entry = self._tail_stacks.get(rows)
        if entry is None:
            g = len(rows)
            params = np.empty((g, self._stack.n_params), dtype=self.dtype)
            grads = np.empty_like(params)
            stacked, grad_views = self._stack.views(g, params, grads)
            engine = StackedTrainingEngine(
                [self._lanes[row].model for row in rows], stacked, grad_views,
                arena=self.engine.arena)
            if self.engine.profiling_enabled:
                engine.enable_profiling(profiling_hook(get_telemetry()))
            entry = _TailStack(params, grads, engine)
            self._tail_stacks[rows] = entry
        return entry

    # ------------------------------------------------------------------ #
    # Lane lifecycle
    # ------------------------------------------------------------------ #
    def _make_lane(self, model, values, index: int, parameters) -> _Lane:
        config = self.config
        rng = np.random.default_rng(model.config.seed)
        windows = sliding_windows(np.asarray(values), config.window,
                                  config.window_stride)
        windows = np.ascontiguousarray(windows, dtype=self.dtype)
        train, validation = self._split(windows, rng, model.config)
        if self._lanes and train.shape[1:] != self._lanes[0].train.shape[1:]:
            raise ValueError(
                "stacked training requires matching (N, T) window geometry")
        return _Lane(model, index, parameters, rng, train, validation,
                     self.histories[index])

    def _retire_lane(self, row: int, telemetry) -> None:
        """Restore a finished lane's best weights and compact it out.

        The model leaves with *owned* parameter arrays (its stack row is
        about to be reused); rows above it shift up one-by-one in the
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
        self._members_dirty = True
        if telemetry.enabled:
            telemetry.event("lane_compacted", model=lane.index,
                            epochs=lane.history.n_epochs, lanes=self._k)

    def _admit_lane(self, model, values, telemetry) -> None:
        """Occupy a freed lane with a queued model (continuous batching)."""
        if self._k >= self.capacity:
            raise RuntimeError("no free lane to admit a model into")
        if not self._compatible(self.config, model.config):
            raise ValueError(
                "refilled model must match the fleet config up to the seed")
        parameters = list(model.parameters())
        if [p.data.shape for p in parameters] != self._stack.shapes:
            raise ValueError("refilled model must match the fleet architecture")
        if any(p.data.dtype != self.dtype for p in parameters):
            raise ValueError("refilled model must match the fleet dtype")
        row = self._k
        index = len(self.models)
        self.models.append(model)
        self.histories.append(TrainingHistory())
        self._parameters.append(parameters)
        lane = self._make_lane(model, values, index, parameters)
        self._stack.fill_row(row, parameters)
        self._stack.point_at_row(parameters, row)
        self._optimizer.reset_row(row)
        self._lanes.append(lane)
        self._k = row + 1
        self._members_dirty = True
        if telemetry.enabled:
            telemetry.event("lane_refilled", model=index, lanes=self._k)

    def _ensure_train_flat(self) -> None:
        """Concatenate the live lanes' training sets for the fused gather."""
        if not self._flat_dirty:
            return
        sets = [lane.train for lane in self._lanes]
        self._train_flat = np.ascontiguousarray(np.concatenate(sets, axis=0))
        counts = [lane.n_train for lane in self._lanes]
        self._row_offsets = np.concatenate(
            ([0], np.cumsum(counts[:-1]))).astype(np.intp)
        self._flat_dirty = False

    # ------------------------------------------------------------------ #
    # Training loop (lockstep replica of Trainer.fit, per-lane schedules)
    # ------------------------------------------------------------------ #
    def fit(self, values_list: Sequence[np.ndarray],
            refill: Optional[RefillCallback] = None) -> List[TrainingHistory]:
        """Train every model on its own ``(N, T_total)`` series, in lockstep.

        ``refill`` (optional) is consulted at round boundaries whenever
        compaction freed lanes: it receives the number of free lanes and
        returns up to that many ``(model, values)`` pairs to admit.  The
        returned histories cover *every* admitted model, in admission order.

        Any exception inside a step leaves ``fit`` — a stacked step cannot
        pin a failure on one lane — and the service layer re-runs the whole
        group job by job (:func:`repro.service.batched.execute_batched_jobs`).
        """
        if len(values_list) != len(self.models):
            raise ValueError("one dataset per model required")
        config = self.config
        telemetry = get_telemetry()
        self._lanes = []
        for index, (model, values) in enumerate(zip(self.models, values_list)):
            self._lanes.append(self._make_lane(model, values, index,
                                               self._parameters[index]))
        self._reorder_lanes()
        if self._members_dirty:
            self._refresh_bindings()

        engine = self.engine
        self._threads = 0
        if telemetry.engine_profiling:
            engine.enable_profiling(profiling_hook(telemetry))
        else:
            engine.disable_profiling()
        # repro: allow(telemetry-guard): handle fetched once per fit and set
        lanes_gauge = telemetry.gauge("scheduler.lanes_active")
        lanes_gauge.set(self._k)
        self._padded_lane_steps = 0
        self._total_lane_steps = 0

        # repro: allow(telemetry-guard): fit-scoped span; null trace is free
        with telemetry.trace(
                "train_fit_stacked", models=self._k,
                capacity=self.capacity,
                n_windows=sum(lane.n_train for lane in self._lanes),
                max_epochs=config.max_epochs) as fit_span, \
                engine_session():
            while self._lanes:
                self._run_round()
                for row in reversed(self._finish_epochs(telemetry)):
                    self._retire_lane(row, telemetry)
                if refill is not None:
                    free = self.capacity - self._k
                    if free > 0:
                        for model, values in list(refill(free))[:free]:
                            self._admit_lane(model, values, telemetry)
                if self._lanes:
                    self._reorder_lanes()
                if self._members_dirty:
                    if self._lanes:
                        self._refresh_bindings()
                    lanes_gauge.set(self._k)
            fraction = self.padded_window_fraction
            if telemetry.enabled:
                telemetry.gauge(
                    "scheduler.padded_window_fraction").set(fraction)
                telemetry.gauge("engine.threads").set(self._threads)
            fit_span.set(
                models=len(self.models),
                epochs=max(history.n_epochs for history in self.histories),
                stopped_early=sum(history.stopped_early
                                  for history in self.histories),
                diverged=sum(history.diverged
                             for history in self.histories),
                padded_window_fraction=fraction)
        return self.histories

    def _run_round(self) -> None:
        """One epoch for every live lane: prefix full steps, then tails.

        Every full step runs at the exact solo ``(B, N, T)`` shape.  Lanes
        are kept sorted by descending window count, so the participants of
        full step ``s`` are always the prefix ``lanes[:m]`` — the step runs
        at width ``m`` through a cached prefix engine and the masked lanes
        contribute *nothing*: no FLOPs, no loss, no Adam tick.  Ragged
        remainders group by size and run at each exact tail shape through a
        gathered sub-stack of just the participating rows, after the full
        steps, so each lane's own step order matches its solo epoch exactly.
        """
        lanes = self._lanes
        k = self._k
        config = self.config
        batch_size = config.batch_size
        engine = self.engine
        arena = engine.arena
        self._ensure_train_flat()
        train_flat = self._train_flat
        offsets = self._row_offsets
        tail_shape = train_flat.shape[1:]
        row_elements = max(1, int(np.prod(tail_shape)))
        orders = [lane.rng.permutation(lane.n_train) for lane in lanes]
        n_fulls = [lane.n_train // batch_size for lane in lanes]
        max_full = max(n_fulls)
        for lane in lanes:
            lane.batch_losses = []

        step_rows = k * batch_size
        if max_full:
            # The gather stays rectangular (filler slots repeat a lane's
            # first window — a few kB of memcpy); the *compute* does not:
            # each step slices the participating prefix off the block.
            steps = np.empty((k, max_full, batch_size), dtype=np.intp)
            for row, lane in enumerate(lanes):
                n_full = n_fulls[row]
                if n_full:
                    steps[row, :n_full] = orders[row][:n_full * batch_size] \
                        .reshape(n_full, batch_size) + offsets[row]
                if n_full < max_full:
                    steps[row, n_full:] = offsets[row]
            block_steps = max(1, min(max_full, GATHER_ELEMENT_BUDGET
                                     // max(1, step_rows * row_elements)))
            gather = arena.take("train.gather",
                                (block_steps, k, batch_size) + tail_shape,
                                self.dtype)
            for block_start in range(0, max_full, block_steps):
                block_stop = min(block_start + block_steps, max_full)
                count = block_stop - block_start
                block = gather[:count]
                np.take(train_flat,
                        steps[:, block_start:block_stop]
                        .transpose(1, 0, 2).ravel(), axis=0,
                        out=block.reshape((count * step_rows,) + tail_shape))
                for index in range(count):
                    step = block_start + index
                    m = 0
                    while m < k and n_fulls[m] > step:
                        m += 1
                    self._step_lanes(block[index][:m], list(range(m)))

        tails = {}
        for row, lane in enumerate(lanes):
            remainder = lane.n_train - n_fulls[row] * batch_size
            if remainder:
                tails.setdefault(remainder, []).append(row)
        for remainder in sorted(tails):
            rows = tails[remainder]
            g = len(rows)
            indices = np.empty((g, remainder), dtype=np.intp)
            for i, row in enumerate(rows):
                indices[i] = orders[row][n_fulls[row] * batch_size:] \
                    + offsets[row]
            batch = arena.take("train.batch", (g, remainder) + tail_shape,
                               self.dtype)
            np.take(train_flat, indices.ravel(), axis=0,
                    out=batch.reshape((g * remainder,) + tail_shape))
            self._step_lanes(batch, rows)

    def _step_lanes(self, batch: np.ndarray, rows: List[int]) -> None:
        """One lockstep step over ``rows``; ``batch`` has one slab per row.

        The ``lane_step`` fault seam raises straight out of :meth:`fit`.
        """
        lanes = self._lanes
        if faults.active():
            faults.fault_point("lane_step", lanes=len(rows))
        losses = self._train_step(batch, rows)
        for position, row in enumerate(rows):
            lanes[row].batch_losses.append(losses[position])
        self._total_lane_steps += self._k
        self._padded_lane_steps += self._k - len(rows)

    def _finish_epochs(self, telemetry) -> List[int]:
        """Per-lane epoch-end bookkeeping; returns lane rows to retire."""
        lanes = self._lanes
        config = self.config
        requests = [lane.validation if lane.has_validation else None
                    for lane in lanes]
        if any(request is not None for request in requests):
            validation_losses = self.engine.evaluate_grouped(
                requests, config.batch_size, cache=self._eval_engines)
        else:
            validation_losses = [None] * len(lanes)
        finished: List[int] = []
        for row, lane in enumerate(lanes):
            epoch_loss = float(np.mean(lane.batch_losses)) \
                if lane.batch_losses else float("nan")
            validation_loss = validation_losses[row] \
                if validation_losses[row] is not None else epoch_loss
            epoch = lane.epoch
            lane.epoch = epoch + 1
            if end_epoch(lane, epoch, epoch_loss, validation_loss, config,
                         telemetry, model=lane.index) \
                    or lane.epoch >= config.max_epochs:
                finished.append(row)
        return finished

    # The split must match the sequential trainer draw for draw.
    _split = staticmethod(split_windows)

    # ------------------------------------------------------------------ #
    # One stacked step: forward, per-model losses, backward, masked Adam
    # ------------------------------------------------------------------ #
    def _train_step(self, batch: np.ndarray,
                    rows: Optional[Sequence[int]] = None) -> List[float]:
        """One stacked step for ``rows`` (default: every live lane).

        ``batch`` has one slab per participating row, in ``rows`` order, and
        the returned losses are positional the same way.  A prefix row set
        runs straight off the main stack through a prefix-width engine; a
        scattered tail set runs through its gathered sub-stack — its rows
        are copied in, the sub-engine's gradients are scattered back into
        the main gradient matrix, and the row-masked Adam update proceeds
        exactly as if a full-width masked step had produced them.
        """
        k = self._k
        row_list = list(range(k)) if rows is None else list(rows)
        m = len(row_list)
        if row_list == list(range(m)):
            self._step_ctx = (self._prefix_engine(m), self._grads)
            losses, grads = self._forward_backward(batch)
            self._optimizer.step_rows(grads, row_list, k)
            return losses
        entry = self._tail_stack(tuple(row_list))
        np.take(self.params, row_list, axis=0, out=entry.params)
        self._step_ctx = (entry.engine, entry.grads)
        losses, grads = self._forward_backward(batch)
        self._grads[row_list] = grads
        self._optimizer.step_rows(self._grads, row_list, k)
        return losses

    def _forward_backward(self, xb: np.ndarray
                          ) -> Tuple[List[float], np.ndarray]:
        """One stacked fused forward + hand-derived backward (no autograd).

        Delegates to :class:`repro.nn.training_engine.StackedTrainingEngine`
        — the one staged in ``_step_ctx`` (the main engine by default),
        which runs the hand-derived backward with a leading model axis over
        persistent arena buffers and writes every gradient into the stacked
        flat matrix returned here; batched matmuls run the same per-slice
        GEMMs, so each model's gradients are bit-identical to a solo step
        (the same engine at K = 1).
        """
        engine, grads = self._step_ctx
        losses = engine.train_step(xb)
        self._threads = max(self._threads, engine.threads)
        return losses, grads
