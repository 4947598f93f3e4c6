"""Optimisers: Adam over autograd parameters, and its stacked form.

The paper optimises the causality-aware transformer with Adam and an early
stop strategy.  CausalFormer training runs :class:`StackedAdam` over a
:class:`ParameterStack` — the stacked trainer (:mod:`repro.core.batched`)
at ``K`` rows, the solo training engine
(:class:`repro.nn.training_engine.TrainingEngine`) at one.  :class:`Adam`
is the autograd optimiser of the baselines and the plain per-parameter
reference the tests compare :class:`StackedAdam` against.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.module import Parameter

#: Adam defaults, shared by :class:`Adam` and :class:`StackedAdam` so both
#: updates stay bit-identical.
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
ADAM_CLIP_FUZZ = 1e-12


class Adam:
    """Adam optimiser (Kingma & Ba, 2015)."""

    def __init__(self, parameters: Iterable[Parameter], lr: float = 1e-3,
                 betas: tuple = ADAM_BETAS, eps: float = ADAM_EPS,
                 clip_norm: Optional[float] = None) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if not (0.0 <= betas[0] < 1.0 and 0.0 <= betas[1] < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.lr = lr
        #: when set, gradients are globally L2-clipped to this norm inside
        #: ``step`` — one dot product on the fused gradient vector.
        self.clip_norm = clip_norm
        self.beta1, self.beta2 = betas
        self.eps = eps
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

    def zero_grad(self) -> None:
        for parameter in self.parameters:
            parameter.grad = None

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

    def step(self) -> None:
        self._step_count += 1
        t = self._step_count
        active = [p for p in self.parameters if p.grad is not None]
        if not active:
            return
        if self._flat_key != tuple(id(p) for p in active):
            self._rebuild_flat(active)
        grad = self._flat_grad
        np.concatenate([p.grad.ravel() for p in active], out=grad)
        if self.clip_norm is not None:
            total = float(np.sqrt(np.dot(grad, grad)))
            if total > self.clip_norm:
                grad *= self.clip_norm / (total + ADAM_CLIP_FUZZ)
        m, v = self._flat_m, self._flat_v
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        np.multiply(grad, grad, out=grad)  # grad buffer now holds g²
        v += (1.0 - self.beta2) * grad
        denominator = np.sqrt(v / (1.0 - self.beta2 ** t))
        denominator += self.eps
        update = (self.lr / (1.0 - self.beta1 ** t)) * m
        update /= denominator
        for parameter, view_slice, shape in self._flat_views:
            parameter.data -= update[view_slice].reshape(shape)


class ParameterStack:
    """Models' parameters as the rows of one ``(K, P)`` matrix.

    Row ``r`` holds model ``r``'s parameters, flattened and concatenated in
    ``names`` order; ``grads`` is the matching ``(K, P)`` gradient matrix.
    Each model's ``Parameter.data`` arrays are re-pointed at views of its
    row, so an in-place update of the matrix (:class:`StackedAdam`) reaches
    the model, and every engine reading it, with no copies.

    The stacked trainer (:mod:`repro.core.batched`) packs its fleet this
    way, and views only the live prefix once finished lanes are compacted
    out; the solo :class:`~repro.nn.training_engine.TrainingEngine` packs
    one model at ``K = 1``.
    """

    def __init__(self, names: Sequence[str],
                 parameter_lists: Sequence[Sequence[Parameter]]) -> None:
        reference = parameter_lists[0]
        self.dtype = reference[0].data.dtype
        if any(parameter.data.dtype != self.dtype
               for parameters in parameter_lists for parameter in parameters):
            raise ValueError("stacked parameters must share one dtype")
        self.names = list(names)
        self.shapes = [parameter.data.shape for parameter in reference]
        self.slices = []
        offset = 0
        for parameter in reference:
            self.slices.append(slice(offset, offset + parameter.data.size))
            offset += parameter.data.size
        self.n_params = offset
        rows = len(parameter_lists)
        self.params = np.empty((rows, offset), dtype=self.dtype)
        self.grads = np.empty((rows, offset), dtype=self.dtype)
        for row, parameters in enumerate(parameter_lists):
            self.fill_row(row, parameters)
            self.point_at_row(parameters, row)

    def fill_row(self, row: int, parameters: Sequence[Parameter]) -> None:
        """Copy ``parameters``' current values into ``row``."""
        for view, parameter in zip(self.slices, parameters):
            self.params[row, view] = parameter.data.ravel()

    def point_at_row(self, parameters: Sequence[Parameter], row: int) -> None:
        """Re-point ``parameters``' data at views of ``row``."""
        for view, shape, parameter in zip(self.slices, self.shapes,
                                          parameters):
            parameter.data = self.params[row, view].reshape(shape)

    def views(self, m: int) -> Tuple[dict, dict]:
        """Name → ``(m, *shape)`` parameter and gradient views over the
        first ``m`` rows."""
        stacked = {}
        grad_views = {}
        for name, view, shape in zip(self.names, self.slices, self.shapes):
            stacked[name] = self.params[:m, view].reshape((m,) + shape)
            grad_views[name] = self.grads[:m, view].reshape((m,) + shape)
        return stacked, grad_views


class StackedAdam:
    """Adam over the first ``K`` rows of a stacked parameter matrix.

    The stacked trainer (:mod:`repro.core.batched`) trains ``K`` models
    whose flat parameter vectors are the rows of one matrix, in lockstep:
    every live row trains on every step, so one step count — and one pair
    of bias corrections — serves them all.  A finished lane leaves through
    :meth:`compact_row`, and later steps update the shorter prefix.  The
    solo training engine runs it at ``K = 1``.

    Bit-exactness contract: every row sees the exact scalar arithmetic of
    :meth:`Adam.step` over that model's parameters — the bias corrections
    are computed with Python-float ``**`` and applied as scalars of the
    parameter dtype, matching the implicit scalar cast of :class:`Adam`,
    clipping is per row, and the clip/moment/denominator op sequence is
    identical — so a row's trajectory equals training that model alone
    regardless of which other rows ride along.
    """

    def __init__(self, params: np.ndarray, lr: float,
                 clip_norm: Optional[float] = None,
                 betas: tuple = ADAM_BETAS, eps: float = ADAM_EPS) -> None:
        if params.ndim != 2:
            raise ValueError("StackedAdam expects a (K, P) parameter matrix")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.params = params
        self.lr = lr
        self.clip_norm = clip_norm
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        #: step count of every live row (a Python int: the bias corrections
        #: must come from the same ``float ** int`` the solo optimiser
        #: computes)
        self.t = 0

    def _clip_rows(self, grad: np.ndarray) -> None:
        clip = self.clip_norm
        if clip is None:
            return
        for row in range(grad.shape[0]):
            g = grad[row]
            total = float(np.sqrt(np.dot(g, g)))
            if total > clip:
                g *= clip / (total + ADAM_CLIP_FUZZ)

    def step(self, grads: np.ndarray, active: int) -> None:
        """One Adam update of rows ``0 .. active-1`` from their ``grads``
        rows, in place (the gradient rows end up holding ``g²``)."""
        self.t += 1
        t = self.t
        beta1, beta2 = self.beta1, self.beta2
        scalar = self.params.dtype.type
        grad = grads[:active]
        self._clip_rows(grad)
        m = self.m[:active]
        v = self.v[:active]
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        np.multiply(grad, grad, out=grad)  # grad buffer now holds g²
        v += (1.0 - beta2) * grad
        denominator = np.sqrt(v / scalar(1.0 - beta2 ** t))
        denominator += self.eps
        update = scalar(self.lr / (1.0 - beta1 ** t)) * m
        update /= denominator
        self.params[:active] -= update

    def compact_row(self, row: int, active: int) -> None:
        """Drop ``row`` from the first ``active`` rows' moments, shifting
        the rows above it up one.

        Row-by-row copies (no overlapping slice assignment); the caller
        performs the matching shift on the parameter matrix itself.
        """
        for r in range(row, active - 1):
            self.m[r] = self.m[r + 1]
            self.v[r] = self.v[r + 1]
