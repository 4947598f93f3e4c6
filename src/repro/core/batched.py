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
fit runs at ``K = 1``), fills a stacked flat Adam state.  Mini-batches are built by one stacked gather (a single
``np.take`` over the concatenated training sets into a persistent batch
buffer), and the engine that runs the training steps is the same object
(same arena) that runs every validation pass; its arena is also handed to
the group detector interpretation.

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
from repro.core.training import (GATHER_ELEMENT_BUDGET, TrainingHistory,
                                 losses_diverged, split_windows)
from repro.faults import LaneFault
from repro.core.transformer import CausalityAwareTransformer
from repro.data.windows import sliding_windows
from repro.nn.inference import profiling_hook
from repro.nn.optim import StackedAdam
from repro.nn.parallel import get_engine_threads
from repro.nn.training_engine import StackedTrainingEngine
from repro.telemetry import get_telemetry

#: type of the queue-refill callback: receives the number of free lanes and
#: returns up to that many ``(model, values)`` pairs to admit.
RefillCallback = Callable[[int], Sequence[Tuple[CausalityAwareTransformer,
                                                np.ndarray]]]


class _Lane:
    """Bookkeeping for one occupied stack row."""

    __slots__ = ("model", "index", "parameters", "rng", "train", "validation",
                 "history", "epoch", "stale_epochs", "best_state",
                 "batch_losses")

    def __init__(self, model, index, parameters, rng, train, validation,
                 history) -> None:
        self.model = model
        #: admission index into the trainer's ``models``/``histories`` lists
        self.index = index
        self.parameters = parameters
        self.rng = rng
        self.train = train
        self.validation = validation
        self.history = history
        self.epoch = 0
        self.stale_epochs = 0
        self.best_state: Optional[List[np.ndarray]] = None
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
        self._build_parameter_stack()
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
        #: width → engine over the ``params[:m]`` prefix (narrow full steps)
        self._prefix_engines = {}
        #: participating-rows tuple → gathered sub-stack (ragged tail steps)
        self._tail_stacks = {}
        #: rows tuple → sub-fleet engine for grouped validation passes
        self._eval_engines = {}
        #: (engine, grad matrix) the next ``_forward_backward`` call runs on
        self._step_ctx = (self.engine, self._grads)
        #: admission index → error text for lanes quarantined mid-fit (the
        #: service layer retries these jobs solo)
        self.quarantined = {}
        #: stack rows quarantined during the current round (excluded from
        #: every remaining step and retired at the round boundary)
        self._dead_rows = set()
        #: completed rounds (checkpoint cadence unit; survives resume)
        self._rounds = 0

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
    def _build_parameter_stack(self) -> None:
        """Stack every model's parameters into one ``(C, P)`` matrix.

        Each model's ``Parameter.data`` is re-pointed at a contiguous view
        of its row, mirroring the fused flat Adam's parameter fusion — the
        stacked update is then a single in-place subtraction and the models
        (and their inference engines) observe it with no copies.  Only the
        first ``K`` rows are occupied; rows above ``K`` are lane capacity
        for queue refill.
        """
        reference = self._parameters[0]
        self.dtype = reference[0].data.dtype
        self._names = [name for name, _p in self.models[0].named_parameters()]
        self._shapes = [parameter.data.shape for parameter in reference]
        sizes = [parameter.data.size for parameter in reference]
        self._slices = []
        offset = 0
        for size in sizes:
            self._slices.append(slice(offset, offset + size))
            offset += size
        self.n_params = offset
        self._k = len(self.models)
        self.params = np.empty((self.capacity, offset), dtype=self.dtype)
        self._grads = np.empty((self.capacity, offset), dtype=self.dtype)
        for row, parameters in enumerate(self._parameters):
            self._fill_row(row, parameters)
            self._point_parameters_at_row(parameters, row)
        self._refresh_views()

    def _fill_row(self, row: int, parameters: Sequence) -> None:
        for view, parameter in zip(self._slices, parameters):
            self.params[row, view] = parameter.data.ravel()

    def _point_parameters_at_row(self, parameters: Sequence, row: int) -> None:
        for view, shape, parameter in zip(self._slices, self._shapes,
                                          parameters):
            data = self.params[row, view].reshape(shape)
            assert np.shares_memory(data, self.params)
            parameter.data = data

    def _refresh_views(self) -> None:
        """(Re)build the ``(K, *shape)`` stacked views over the active prefix.

        Always derived from the same capacity-wide base matrices, so views of
        a given width are layout-identical no matter how often lanes come and
        go — the engine's per-shape scratch spaces stay valid across rebinds.
        """
        self._stacked, self._grad_views = self._views_over(
            self.params, self._grads, self._k)

    def _views_over(self, params: np.ndarray, grads: np.ndarray,
                    m: int) -> Tuple[dict, dict]:
        """Name → ``(m, *shape)`` stacked views over two flat matrices."""
        stacked = {}
        grad_views = {}
        for name, view, shape in zip(self._names, self._slices, self._shapes):
            stacked[name] = params[:m, view].reshape((m,) + shape)
            grad_views[name] = grads[:m, view].reshape((m,) + shape)
        return stacked, grad_views

    def _grad_view(self, name: str) -> np.ndarray:
        """The ``(K, *shape)`` stacked view into the flat gradient matrix."""
        return self._grad_views[name]

    def _refresh_bindings(self) -> None:
        """Rebind the engine after lane compaction/refill changed the width."""
        self._refresh_views()
        self.engine.rebind([lane.model for lane in self._lanes],
                           self._stacked, self._grad_views)
        self.engine.parallel_model_axis = self._k >= get_engine_threads()
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
            self._point_parameters_at_row(lane.parameters, row)
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
            stacked, grad_views = self._views_over(self.params, self._grads, m)
            engine = StackedTrainingEngine(
                [lane.model for lane in self._lanes[:m]], stacked, grad_views,
                arena=self.engine.arena)
            engine.parallel_model_axis = m >= get_engine_threads()
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
            params = np.empty((g, self.n_params), dtype=self.dtype)
            grads = np.empty((g, self.n_params), dtype=self.dtype)
            stacked, grad_views = self._views_over(params, grads, g)
            engine = StackedTrainingEngine(
                [self._lanes[row].model for row in rows], stacked, grad_views,
                arena=self.engine.arena)
            engine.parallel_model_axis = g >= get_engine_threads()
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
            self._point_parameters_at_row(self._lanes[r].parameters, r)
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
        if [p.data.shape for p in parameters] != self._shapes:
            raise ValueError("refilled model must match the fleet architecture")
        if any(p.data.dtype != self.dtype for p in parameters):
            raise ValueError("refilled model must match the fleet dtype")
        row = self._k
        index = len(self.models)
        self.models.append(model)
        self.histories.append(TrainingHistory())
        self._parameters.append(parameters)
        lane = self._make_lane(model, values, index, parameters)
        self._fill_row(row, parameters)
        self._point_parameters_at_row(parameters, row)
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
    # Checkpoint state (consumed by service.checkpoint.FitCheckpointer)
    # ------------------------------------------------------------------ #
    def _stacked_checkpoint_state(self):
        """Snapshot the fleet at a round boundary.

        Captures the live ``(K, P)`` parameter rows (in lane order), the
        row-masked Adam's moments and per-row step counts, each lane's RNG
        state / epoch bookkeeping / best-state vector, plus the weights and
        histories of models already retired — everything a fresh trainer
        over the same model list needs to replay the next round as if the
        preceding ones had just happened.
        """
        lanes = self._lanes
        k = self._k
        optimizer = self._optimizer
        arrays = {
            "params": self.params[:k].copy(),
            "adam_m": optimizer.m[:k].copy(),
            "adam_v": optimizer.v[:k].copy(),
        }
        lane_records = []
        for row, lane in enumerate(lanes):
            if lane.best_state is not None:
                arrays[f"best_{lane.index}"] = np.concatenate(
                    [saved.ravel() for saved in lane.best_state])
            lane_records.append({
                "index": lane.index,
                "epoch": lane.epoch,
                "stale_epochs": lane.stale_epochs,
                "adam_t": optimizer.t[row],
                "rng": lane.rng.bit_generator.state,
                "has_best": lane.best_state is not None,
                "history": lane.history.to_dict(),
            })
        live = {lane.index for lane in lanes}
        retired_records = []
        for index in range(len(self.models)):
            if index in live:
                continue
            retired_records.append({
                "index": index,
                "history": self.histories[index].to_dict(),
            })
            arrays[f"model_{index}"] = np.concatenate(
                [parameter.data.ravel()
                 for parameter in self._parameters[index]])
        meta = {
            "kind": "stacked_fit",
            "dtype": str(np.dtype(self.dtype)),
            "n_params": self.n_params,
            "capacity": self.capacity,
            "n_models": len(self.models),
            "seeds": [model.config.seed for model in self.models],
            "rounds": self._rounds,
            "lanes": lane_records,
            "retired": retired_records,
            "quarantined": {str(index): error
                            for index, error in self.quarantined.items()},
        }
        return {"meta": meta, "arrays": arrays}

    def _restore_stacked_state(self, state, values_list) -> None:
        """Rebuild lanes from :meth:`_stacked_checkpoint_state` output.

        Validates everything before mutating anything; raises ``KeyError``
        / ``TypeError`` / ``ValueError`` on any mismatch (different model
        list, capacity, dtype, architecture, or a snapshot taken after a
        refill the resumed trainer doesn't know about) so the caller can
        degrade to a fresh fit.
        """
        meta = state["meta"]
        arrays = state["arrays"]
        if meta.get("kind") != "stacked_fit":
            raise ValueError("not a stacked-fit checkpoint")
        if int(meta["n_models"]) != len(self.models):
            raise ValueError(
                "snapshot covers refilled models the fresh trainer lacks")
        if [int(seed) for seed in meta["seeds"]] != \
                [model.config.seed for model in self.models]:
            raise ValueError("checkpoint model seeds mismatch")
        if meta.get("dtype") != str(np.dtype(self.dtype)):
            raise ValueError("checkpoint dtype mismatch")
        if int(meta["n_params"]) != self.n_params:
            raise ValueError("checkpoint architecture mismatch")
        if int(meta["capacity"]) != self.capacity:
            raise ValueError("checkpoint capacity mismatch")
        lane_records = list(meta["lanes"])
        retired_records = list(meta["retired"])
        k = len(lane_records)
        if not 0 < k <= self.capacity:
            raise ValueError("checkpoint lane count out of range")
        live_indices = [int(record["index"]) for record in lane_records]
        retired_indices = [int(record["index"])
                           for record in retired_records]
        if sorted(live_indices + retired_indices) != \
                list(range(len(self.models))):
            raise ValueError("checkpoint lane bookkeeping inconsistent")
        params = np.asarray(arrays["params"])
        adam_m = np.asarray(arrays["adam_m"])
        adam_v = np.asarray(arrays["adam_v"])
        expected = (k, self.n_params)
        if params.shape != expected or params.dtype != self.dtype:
            raise ValueError("checkpoint parameter matrix mismatch")
        if adam_m.shape != expected or adam_v.shape != expected:
            raise ValueError("checkpoint optimizer matrix mismatch")
        for record in lane_records:
            if not isinstance(record["rng"], dict):
                raise ValueError("checkpoint RNG state malformed")
            if record.get("has_best") and np.asarray(
                    arrays[f"best_{int(record['index'])}"]).shape != \
                    (self.n_params,):
                raise ValueError("checkpoint best-state vector mismatch")
        for record in retired_records:
            if np.asarray(arrays[f"model_{int(record['index'])}"]).shape \
                    != (self.n_params,):
                raise ValueError("checkpoint retired-weights mismatch")

        # Validation passed — mutate.  Retired models first (they leave the
        # stack with owned arrays), then the live rows repack in saved lane
        # order and every live model re-points at its restored row.
        for record in retired_records:
            index = int(record["index"])
            vector = np.asarray(arrays[f"model_{index}"], dtype=self.dtype)
            for view, shape, parameter in zip(self._slices, self._shapes,
                                              self._parameters[index]):
                parameter.data = vector[view].reshape(shape).copy()
            self.histories[index].restore(record["history"])
        self.params[:k] = params
        self._lanes = []
        self._k = k
        for row, record in enumerate(lane_records):
            index = int(record["index"])
            lane = self._make_lane(self.models[index], values_list[index],
                                   index, self._parameters[index])
            # _make_lane drew the split from a fresh seed-derived rng (the
            # same first permutation the original fit consumed); now fast-
            # forward the generator to the saved mid-training state.
            lane.rng.bit_generator.state = record["rng"]
            lane.epoch = int(record["epoch"])
            lane.stale_epochs = int(record["stale_epochs"])
            lane.history.restore(record["history"])
            if record.get("has_best"):
                vector = np.asarray(arrays[f"best_{index}"],
                                    dtype=self.dtype)
                lane.best_state = [vector[view].reshape(shape).copy()
                                   for view, shape in zip(self._slices,
                                                          self._shapes)]
            self._point_parameters_at_row(lane.parameters, row)
            self._lanes.append(lane)
        optimizer = self._optimizer
        optimizer.m[:k] = adam_m
        optimizer.v[:k] = adam_v
        for row, record in enumerate(lane_records):
            optimizer.t[row] = int(record["adam_t"])
        self.quarantined = {int(index): str(error) for index, error in
                            (meta.get("quarantined") or {}).items()}
        self._rounds = int(meta.get("rounds", 0))
        self._flat_dirty = True
        self._members_dirty = True

    # ------------------------------------------------------------------ #
    # Training loop (lockstep replica of Trainer.fit, per-lane schedules)
    # ------------------------------------------------------------------ #
    def fit(self, values_list: Sequence[np.ndarray],
            refill: Optional[RefillCallback] = None,
            checkpoint=None) -> List[TrainingHistory]:
        """Train every model on its own ``(N, T_total)`` series, in lockstep.

        ``refill`` (optional) is consulted at round boundaries whenever
        compaction freed lanes: it receives the number of free lanes and
        returns up to that many ``(model, values)`` pairs to admit.  The
        returned histories cover *every* admitted model, in admission order.

        ``checkpoint`` (an optional
        :class:`~repro.service.checkpoint.FitCheckpointer`) snapshots the
        whole fleet at round boundaries — the ``(K, P)`` parameter rows,
        the per-row Adam moments and step counts, each lane's RNG state and
        history, and the already-retired models' weights — and resumes a
        matching fleet bit-identically.  A snapshot taken after ``refill``
        admitted extra models cannot be resumed by a fresh trainer (the
        initial model list no longer matches) and degrades to a fresh fit.
        """
        if len(values_list) != len(self.models):
            raise ValueError("one dataset per model required")
        config = self.config
        telemetry = get_telemetry()
        self.quarantined = {}
        self._dead_rows = set()
        self._rounds = 0
        restored = False
        if checkpoint is not None:
            state = checkpoint.load()
            if state is not None:
                try:
                    self._restore_stacked_state(state, values_list)
                except (KeyError, TypeError, ValueError):
                    if telemetry.enabled:
                        telemetry.counter("checkpoint.rejected").inc()
                        telemetry.event("checkpoint_rejected",
                                        key=checkpoint.key)
                else:
                    restored = True
                    if telemetry.enabled:
                        telemetry.event("fit_resumed", round=self._rounds,
                                        key=checkpoint.key)
        if not restored:
            self._lanes = []
            for index, (model, values) in enumerate(zip(self.models,
                                                        values_list)):
                self._lanes.append(self._make_lane(model, values, index,
                                                   self._parameters[index]))
            self._reorder_lanes()
        if self._members_dirty:
            self._refresh_bindings()

        engine = self.engine
        # The stacked engines thread over the model axis when the fleet is
        # at least as wide as the pool, otherwise over the batch axis.
        engine.parallel_model_axis = self._k >= get_engine_threads()
        if telemetry.enabled:
            telemetry.gauge("engine.threads").set(get_engine_threads())
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
                max_epochs=config.max_epochs) as fit_span:
            while self._lanes:
                if faults.active():
                    # A plain ``raise@round=N`` clause crashes the whole
                    # stacked fit (no lane attribution) — the seam the
                    # checkpoint/resume chaos tests interrupt at.
                    faults.fault_point("round", round=self._rounds)
                self._run_round(telemetry)
                finished = self._finish_epochs(telemetry)
                retire = set(finished) | self._dead_rows
                self._dead_rows = set()
                for row in sorted(retire, reverse=True):
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
                self._rounds += 1
                if checkpoint is not None and self._lanes \
                        and checkpoint.due(self._rounds - 1):
                    checkpoint.save(self._stacked_checkpoint_state())
            fraction = self.padded_window_fraction
            if telemetry.enabled:
                telemetry.gauge(
                    "scheduler.padded_window_fraction").set(fraction)
            fit_span.set(
                models=len(self.models),
                epochs=max(history.n_epochs for history in self.histories),
                stopped_early=sum(history.stopped_early
                                  for history in self.histories),
                diverged=sum(history.diverged
                             for history in self.histories),
                quarantined=len(self.quarantined),
                padded_window_fraction=fraction)
        if checkpoint is not None:
            checkpoint.clear()
        return self.histories

    def _run_round(self, telemetry) -> None:
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
                    self._step_lanes(block[index][:m], list(range(m)),
                                     telemetry)

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
            self._step_lanes(batch, rows, telemetry)

    def _step_lanes(self, slab: np.ndarray, candidate: List[int],
                    telemetry) -> None:
        """One lockstep step over ``candidate`` rows, quarantine-aware.

        ``slab`` carries one batch per candidate row, in ``candidate``
        order.  Rows quarantined earlier in the round are excluded up
        front; when the step's fault seam attributes a :class:`LaneFault`
        to a participant, that lane is quarantined and the step re-runs
        for the survivors — whose arithmetic is unchanged by the
        exclusion, because a sub-row-set step runs each row at its exact
        solo shape (the same pad-and-mask contract that lets mixed window
        counts share a stack).
        """
        lanes = self._lanes
        k = self._k
        while True:
            rows = [row for row in candidate if row not in self._dead_rows]
            if not rows:
                self._total_lane_steps += k
                self._padded_lane_steps += k
                return
            positions = [candidate.index(row) for row in rows]
            if positions == list(range(len(positions))):
                batch = slab[:len(positions)]
            else:
                batch = slab[np.asarray(positions, dtype=np.intp)]
            try:
                if faults.active():
                    faults.fault_point(
                        "lane_step",
                        models=[lanes[row].index for row in rows])
                losses = self._train_step(batch, rows)
            except LaneFault as fault:
                self._quarantine_lane(fault, telemetry)
                continue
            for position, row in enumerate(rows):
                lanes[row].batch_losses.append(losses[position])
            self._total_lane_steps += k
            self._padded_lane_steps += k - len(rows)
            return

    def _quarantine_lane(self, fault: LaneFault, telemetry) -> None:
        """Mark the faulted lane dead for the rest of the round.

        The lane is *not* compacted mid-round (rows must keep their
        positions while the round's schedule is in flight); it is excluded
        from every remaining step and retired — via the ordinary
        compaction path — at the round boundary.  A fault naming no live
        lane re-raises: it cannot be attributed, so it must not be
        swallowed.
        """
        for row, lane in enumerate(self._lanes):
            if lane.index == fault.model_index \
                    and row not in self._dead_rows:
                break
        else:
            raise fault
        self._dead_rows.add(row)
        self.quarantined[lane.index] = f"{type(fault).__name__}: {fault}"
        lane.history.quarantined = True
        if telemetry.enabled:
            telemetry.counter("jobs.quarantined").inc()
            telemetry.event("lane_quarantined", model=lane.index, row=row,
                            epoch=lane.epoch, error=str(fault))

    def _finish_epochs(self, telemetry) -> List[int]:
        """Per-lane epoch-end bookkeeping; returns lane rows to retire.

        Rows quarantined during the round get no bookkeeping at all — no
        validation pass, no epoch entry — and are retired by the caller.
        """
        lanes = self._lanes
        config = self.config
        dead = self._dead_rows
        requests = [lane.validation
                    if lane.has_validation and row not in dead else None
                    for row, lane in enumerate(lanes)]
        if any(request is not None for request in requests):
            validation_losses = self.engine.evaluate_grouped(
                requests, config.batch_size, cache=self._eval_engines)
        else:
            validation_losses = [None] * len(lanes)
        finished: List[int] = []
        for row, lane in enumerate(lanes):
            if row in dead:
                continue
            history = lane.history
            epoch = lane.epoch
            epoch_loss = float(np.mean(lane.batch_losses)) \
                if lane.batch_losses else float("nan")
            history.train_loss.append(epoch_loss)
            validation_loss = validation_losses[row] \
                if validation_losses[row] is not None else epoch_loss
            history.validation_loss.append(validation_loss)
            lane.epoch = epoch + 1
            if telemetry.enabled:
                telemetry.event("train_epoch", model=lane.index, epoch=epoch,
                                loss=epoch_loss,
                                validation_loss=validation_loss)
            if losses_diverged(epoch_loss, validation_loss):
                # Same rule as the sequential trainer: a NaN/inf loss stops
                # this model immediately (it would otherwise ride the whole
                # patience window without ever improving).  A lane that
                # diverged before ever improving has no best snapshot —
                # retirement keeps its current weights, exactly what the
                # sequential trainer's break leaves behind.
                history.diverged = True
                if telemetry.enabled:
                    telemetry.event("train_diverged", model=lane.index,
                                    epoch=epoch, loss=epoch_loss,
                                    validation_loss=validation_loss)
                finished.append(row)
                continue
            if validation_loss < history.best_validation_loss - config.min_delta:
                history.best_validation_loss = validation_loss
                history.best_epoch = history.n_epochs - 1
                lane.best_state = [parameter.data.copy()
                                   for parameter in lane.parameters]
                lane.stale_epochs = 0
            else:
                lane.stale_epochs += 1
                if lane.stale_epochs >= config.patience:
                    history.stopped_early = True
                    if telemetry.enabled:
                        telemetry.event("early_stop", model=lane.index,
                                        epoch=epoch,
                                        best_epoch=history.best_epoch)
                    finished.append(row)
                    continue
            if lane.epoch >= config.max_epochs:
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
        return engine.train_step(xb), grads
