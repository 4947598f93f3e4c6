"""Optimisers: SGD (with momentum) and Adam, plus gradient clipping.

The paper optimises the causality-aware transformer with Adam and an early
stop strategy; the training loop in :mod:`repro.core.training` uses
:class:`Adam` from this module.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.nn.module import Parameter


class Optimizer:
    """Base class holding a list of parameters to update."""

    def __init__(self, parameters: Iterable[Parameter]) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")

    def zero_grad(self) -> None:
        for parameter in self.parameters:
            parameter.grad = None

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, parameters: Iterable[Parameter], lr: float = 1e-2,
                 momentum: float = 0.0, weight_decay: float = 0.0) -> None:
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        for parameter in self.parameters:
            if parameter.grad is None:
                continue
            grad = parameter.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * parameter.data
            if self.momentum:
                velocity = self._velocity.get(id(parameter))
                if velocity is None:
                    velocity = np.zeros_like(parameter.data)
                    self._velocity[id(parameter)] = velocity
                velocity *= self.momentum
                velocity += grad
                grad = velocity
            parameter.data -= self.lr * grad


#: Adam defaults, shared with the stacked trainer's fused replica
#: (:mod:`repro.core.batched`) so both updates stay bit-identical.
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
ADAM_CLIP_FUZZ = 1e-12


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba, 2015)."""

    def __init__(self, parameters: Iterable[Parameter], lr: float = 1e-3,
                 betas: tuple = ADAM_BETAS, eps: float = ADAM_EPS,
                 weight_decay: float = 0.0,
                 clip_norm: Optional[float] = None) -> None:
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if not (0.0 <= betas[0] < 1.0 and 0.0 <= betas[1] < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.lr = lr
        #: when set, gradients are globally L2-clipped to this norm inside
        #: ``step`` — one dot product on the fused gradient vector instead of
        #: a per-parameter pass through :func:`clip_grad_norm_`.
        self.clip_norm = clip_norm
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        # Fused update state: every parameter's gradient and both moments
        # live in one flat buffer each, so a step is a handful of vectorized
        # ops over the whole parameter vector instead of ~10 numpy calls per
        # parameter.  Rebuilt (with moments preserved) whenever the set of
        # gradient-carrying parameters changes.
        self._flat_key: Optional[tuple] = None
        self._flat_views: List[tuple] = []
        self._flat_grad: Optional[np.ndarray] = None
        self._flat_m: Optional[np.ndarray] = None
        self._flat_v: Optional[np.ndarray] = None
        # When every parameter shares one dtype, their .data arrays are
        # re-pointed at views of one flat vector so the whole update is a
        # single in-place subtraction (no per-parameter scatter).  External
        # reassignment of a .data array is detected by identity and the
        # fusion is rebuilt from the new arrays.
        self._flat_data: Optional[np.ndarray] = None
        self._data_ids: List[int] = []

    def _flush_moments(self) -> None:
        """Write the flat moment buffers back to the per-parameter store."""
        for parameter, view_slice, _shape in self._flat_views:
            key = id(parameter)
            self._m[key] = self._flat_m[view_slice].copy()
            self._v[key] = self._flat_v[view_slice].copy()

    def _rebuild_flat(self, active: List[Parameter]) -> None:
        if self._flat_views:
            self._flush_moments()
        dtype = np.result_type(*(p.data.dtype for p in active))
        total = sum(p.data.size for p in active)
        self._flat_grad = np.empty(total, dtype=dtype)
        self._flat_m = np.zeros(total, dtype=dtype)
        self._flat_v = np.zeros(total, dtype=dtype)
        self._flat_views = []
        offset = 0
        for parameter in active:
            size = parameter.data.size
            view_slice = slice(offset, offset + size)
            key = id(parameter)
            if key in self._m:
                self._flat_m[view_slice] = self._m[key].ravel()
                self._flat_v[view_slice] = self._v[key].ravel()
            self._flat_views.append((parameter, view_slice, parameter.data.shape))
            offset += size
        self._flat_key = tuple(id(p) for p in active)
        self._fuse_parameter_data(dtype)

    def _fuse_parameter_data(self, dtype) -> None:
        if any(p.data.dtype != dtype for p, _s, _shape in self._flat_views):
            self._flat_data = None
            self._data_ids = []
            return
        self._flat_data = np.concatenate(
            [p.data.ravel() for p, _s, _shape in self._flat_views])
        self._data_ids = []
        for parameter, view_slice, shape in self._flat_views:
            parameter.data = self._flat_data[view_slice].reshape(shape)
            self._data_ids.append(id(parameter.data))

    def _ensure_views_current(self, active: List[Parameter]) -> None:
        """(Re)build the fused flat state for ``active`` if it drifted."""
        if self._flat_key != tuple(id(p) for p in active):
            self._rebuild_flat(active)
        elif self._flat_data is not None:
            for (parameter, _s, _shape), data_id in zip(self._flat_views,
                                                        self._data_ids):
                if id(parameter.data) != data_id:
                    # A .data array was replaced (e.g. Module.load_state_dict):
                    # re-fuse from the new arrays.
                    self._fuse_parameter_data(self._flat_data.dtype)
                    break

    def ensure_flat(self, parameters: Optional[List[Parameter]] = None
                    ) -> List[tuple]:
        """Build (or refresh) the fused flat state and return its views.

        Returns the ``(parameter, slice, shape)`` triples of the flat
        layout.  Callers that compute gradients *without* the autograd
        engine (:mod:`repro.nn.training_engine`) write them directly into
        ``flat_gradient`` views obtained from these triples, then call
        :meth:`step_flat` — skipping the per-parameter ``.grad`` arrays and
        the gather entirely.  The layout (hence the update) is identical to
        what :meth:`step` builds from the same parameter list.
        """
        active = list(parameters) if parameters is not None else self.parameters
        self._ensure_views_current(active)
        return self._flat_views

    @property
    def flat_gradient(self) -> Optional[np.ndarray]:
        """The fused flat gradient buffer (``None`` before the first build)."""
        return self._flat_grad

    def step_flat(self) -> None:
        """One Adam update reading the already-filled flat gradient buffer.

        The caller must have obtained the layout via :meth:`ensure_flat`
        (same step — a parameter-set change in between would misroute the
        update) and written every parameter's gradient into its
        ``flat_gradient`` slice.  Performs the exact op sequence of
        :meth:`step` after its gather, so trajectories are bit-identical.
        """
        if self._flat_grad is None:
            raise RuntimeError("ensure_flat() must run before step_flat()")
        self._step_count += 1
        t = self._step_count
        self._apply_flat_update(1.0 - self.beta1 ** t, 1.0 - self.beta2 ** t)

    def step(self) -> None:
        self._step_count += 1
        t = self._step_count
        bias_correction1 = 1.0 - self.beta1 ** t
        bias_correction2 = 1.0 - self.beta2 ** t
        active = [p for p in self.parameters if p.grad is not None]
        if not active:
            return
        self._ensure_views_current(active)
        grad = self._flat_grad
        np.concatenate([p.grad.ravel() for p in active], out=grad)
        self._apply_flat_update(bias_correction1, bias_correction2)

    def _apply_flat_update(self, bias_correction1: float,
                           bias_correction2: float) -> None:
        grad = self._flat_grad
        if self.clip_norm is not None:
            total = float(np.sqrt(np.dot(grad, grad)))
            if total > self.clip_norm:
                grad *= self.clip_norm / (total + ADAM_CLIP_FUZZ)
        if self.weight_decay:
            for parameter, view_slice, _shape in self._flat_views:
                grad[view_slice] += self.weight_decay * parameter.data.ravel()
        m, v = self._flat_m, self._flat_v
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        np.multiply(grad, grad, out=grad)  # grad buffer now holds g²
        v += (1.0 - self.beta2) * grad
        denominator = np.sqrt(v / bias_correction2)
        denominator += self.eps
        update = (self.lr / bias_correction1) * m
        update /= denominator
        if self._flat_data is not None:
            self._flat_data -= update
        else:
            for parameter, view_slice, shape in self._flat_views:
                parameter.data -= update[view_slice].reshape(shape)


class StackedAdam:
    """Row-masked Adam over a stacked ``(C, P)`` parameter matrix.

    The stacked trainer (:mod:`repro.core.batched`) trains ``K <= C`` models
    whose flat parameter vectors occupy the first ``K`` rows of one matrix
    (``C`` is the lane capacity).  Under continuous batching the rows stop
    moving in lockstep: a lane whose dataset has fewer windows sits out the
    trailing steps of a round, a freshly refilled lane starts its step count
    at zero, and a finished lane is compacted out of the prefix entirely.
    Each row therefore carries its *own* Adam step count — and its own bias
    corrections — and :meth:`step_rows` updates only the rows that really
    trained this step.

    Bit-exactness contract: every participating row sees the exact scalar
    arithmetic of the solo fused update (:meth:`Adam._apply_flat_update`) —
    the per-row bias corrections are computed with Python-float ``**`` and
    applied through columns cast to the parameter dtype, matching the
    implicit scalar cast of the solo path, and the moment/denominator op
    sequence is identical — so a row's trajectory equals training that model
    alone regardless of which other rows ride along.
    """

    def __init__(self, params: np.ndarray, lr: float,
                 clip_norm: Optional[float] = None,
                 betas: tuple = ADAM_BETAS, eps: float = ADAM_EPS) -> None:
        if params.ndim != 2:
            raise ValueError("StackedAdam expects a (C, P) parameter matrix")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.params = params
        self.lr = lr
        self.clip_norm = clip_norm
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        #: per-row step counts (Python ints: the bias corrections must come
        #: from the same ``float ** int`` the solo optimiser computes).
        self.t: List[int] = [0] * params.shape[0]

    def _clip_rows(self, grad: np.ndarray) -> None:
        clip = self.clip_norm
        if clip is None:
            return
        for row in range(grad.shape[0]):
            g = grad[row]
            total = float(np.sqrt(np.dot(g, g)))
            if total > clip:
                g *= clip / (total + ADAM_CLIP_FUZZ)

    def _bias_columns(self, rows: List[int]):
        dtype = self.params.dtype
        scale = np.array([[self.lr / (1.0 - self.beta1 ** self.t[row])]
                          for row in rows], dtype=dtype)
        bias2 = np.array([[1.0 - self.beta2 ** self.t[row]]
                          for row in rows], dtype=dtype)
        return scale, bias2

    def step_rows(self, grads: np.ndarray, rows: Iterable[int],
                  active: int) -> None:
        """One Adam update for ``rows``, reading their ``grads`` rows.

        ``active`` is the current lane count ``K``; when every active row
        participates the update runs in place on the ``[:K]`` prefix (the
        lockstep fast path — no gathers), otherwise the participating rows
        are gathered, updated with the identical op sequence, and scattered
        back.  Non-participating rows are untouched: no moment decay, no
        step-count tick, no parameter change.
        """
        rows = list(rows)
        if not rows:
            return
        for row in rows:
            self.t[row] += 1
        beta1, beta2 = self.beta1, self.beta2
        scale, bias2 = self._bias_columns(rows)
        if len(rows) == active:
            grad = grads[:active]
            self._clip_rows(grad)
            m = self.m[:active]
            v = self.v[:active]
            m *= beta1
            m += (1.0 - beta1) * grad
            v *= beta2
            np.multiply(grad, grad, out=grad)  # grad buffer now holds g²
            v += (1.0 - beta2) * grad
            denominator = np.sqrt(v / bias2)
            denominator += self.eps
            update = scale * m
            update /= denominator
            self.params[:active] -= update
            return
        index = np.asarray(rows, dtype=np.intp)
        grad = grads[index]
        self._clip_rows(grad)
        m = self.m[index]
        v = self.v[index]
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        np.multiply(grad, grad, out=grad)
        v += (1.0 - beta2) * grad
        self.m[index] = m
        self.v[index] = v
        denominator = np.sqrt(v / bias2)
        denominator += self.eps
        update = scale * m
        update /= denominator
        self.params[index] -= update

    def permute_rows(self, order: Sequence[int], active: int) -> None:
        """Reorder the first ``active`` rows of the moments and step counts.

        The stacked trainer keeps its lanes sorted by descending window
        count so that every full step's participants form a contiguous
        prefix; admissions and compactions can disturb that order, and the
        matching permutation of the parameter matrix must be mirrored here.
        Fancy indexing materialises the gathered rows before assignment, so
        the in-place overwrite is safe for any permutation.
        """
        index = np.asarray(list(order), dtype=np.intp)
        if index.shape[0] != active:
            raise ValueError("permutation must cover the active prefix")
        self.m[:active] = self.m[index]
        self.v[:active] = self.v[index]
        self.t[:active] = [self.t[row] for row in order]

    def compact_row(self, row: int, active: int) -> None:
        """Drop ``row`` from the first ``active`` rows, shifting the tail up.

        Row-by-row copies (no overlapping slice assignment); the caller
        performs the matching shift on the parameter matrix itself.  The
        vacated row at ``active - 1`` is left cleared for a future refill.
        """
        for r in range(row, active - 1):
            self.m[r] = self.m[r + 1]
            self.v[r] = self.v[r + 1]
            self.t[r] = self.t[r + 1]
        self.reset_row(active - 1)

    def reset_row(self, row: int) -> None:
        """Zero one lane's moments and step count for a fresh admission."""
        self.m[row] = 0.0
        self.v[row] = 0.0
        self.t[row] = 0


def clip_grad_norm_(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Clip gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm, which the trainer logs for diagnostics.
    """
    parameters = [p for p in parameters if p.grad is not None]
    if not parameters:
        return 0.0
    total = float(np.sqrt(sum(
        float(np.dot(p.grad.ravel(), p.grad.ravel())) for p in parameters)))
    if total > max_norm and total > 0:
        scale = max_norm / (total + 1e-12)
        for parameter in parameters:
            parameter.grad *= scale
    return total
