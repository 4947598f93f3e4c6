"""Reverse-mode automatic differentiation on top of numpy.

The :class:`Tensor` class wraps a ``numpy.ndarray`` and records the operations
applied to it in a dynamic computation graph.  Calling :meth:`Tensor.backward`
on a scalar result walks the graph in reverse topological order and
accumulates gradients into every tensor that requires them.

Two properties of this engine matter specifically for the CausalFormer
reproduction:

* **Retained intermediate gradients.**  The paper's gradient-modulation step
  (Eq. 19) needs the gradient of the loss with respect to *intermediate*
  tensors — the attention matrix and the causal convolution kernel output —
  not only with respect to leaf parameters.  ``Tensor.retain_grad()`` marks an
  intermediate so its gradient is kept after ``backward``.
* **Broadcast-aware backward.**  All binary operations support numpy
  broadcasting, and their backward passes sum gradients back to the original
  operand shapes, so model code can be written naturally.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]


class _EngineState(threading.local):
    """Thread-local switches: graph recording and the default float dtype.

    Training runs in float32 by default — on a CPU numpy substrate the
    hot-path einsums are roughly twice as fast and half the memory.  Code
    that needs float64 precision (gradcheck, reference comparisons) opts in
    via :func:`set_default_dtype` or the :func:`default_dtype` context
    manager.
    """

    def __init__(self) -> None:
        self.enabled = True
        self.dtype = np.dtype(np.float32)


_engine = _EngineState()


def is_grad_enabled() -> bool:
    """Return ``True`` when operations record the autograd graph."""
    return _engine.enabled


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (inference mode)."""
    previous = _engine.enabled
    _engine.enabled = False
    try:
        yield
    finally:
        _engine.enabled = previous


def get_default_dtype() -> np.dtype:
    """The dtype new tensors are created with (float32 unless overridden)."""
    return _engine.dtype


def set_default_dtype(dtype) -> None:
    """Set the dtype used for all subsequent tensor creation."""
    resolved = np.dtype(dtype)
    if resolved.kind != "f":
        raise ValueError(f"default dtype must be a float dtype, got {resolved}")
    _engine.dtype = resolved


@contextlib.contextmanager
def default_dtype(dtype):
    """Context manager scoping :func:`set_default_dtype` (e.g. for gradcheck)."""
    previous = _engine.dtype
    set_default_dtype(dtype)
    try:
        yield
    finally:
        _engine.dtype = previous


def _as_array(value: ArrayLike, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=dtype or _engine.dtype)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dimensions that were broadcast from size 1.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """An ndarray with a gradient and a backward function.

    Parameters
    ----------
    data:
        Anything ``numpy.asarray`` accepts.
    requires_grad:
        Whether gradients should be accumulated into this tensor.
    """

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_backward",
        "_parents",
        "_retain_grad",
        "_freed",
        "_seq",
        "name",
    )

    #: monotonically increasing creation counter (see _topological_order)
    _seq_counter = itertools.count()

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
    ) -> None:
        self.data: np.ndarray = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad) and is_grad_enabled()
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple[Tensor, ...] = ()
        self._retain_grad: bool = False
        self._freed: bool = False
        self._seq: int = next(Tensor._seq_counter)
        self.name = name

    # ------------------------------------------------------------------ #
    # Basic introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def is_leaf(self) -> bool:
        return self._backward is None

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=8)}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared memory, no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data (and dtype) detached from the graph."""
        return _make_op(self.data, ())

    def clone(self) -> "Tensor":
        """Return a differentiable copy of this tensor."""
        source = self
        out = _make_op(np.array(self.data, copy=True), (self,))
        if out.requires_grad:
            def backward(grad, route):
                route(source, grad)
            out._backward = backward
        return out

    def copy(self) -> "Tensor":
        out = _make_op(self.data.copy(), ())
        out.requires_grad = self.requires_grad and is_grad_enabled()
        return out

    def retain_grad(self) -> "Tensor":
        """Keep the gradient of this (possibly non-leaf) tensor after backward."""
        self._retain_grad = True
        return self

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # Autograd machinery
    # ------------------------------------------------------------------ #
    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        data = self.data
        if getattr(grad, "shape", None) != data.shape or grad.dtype != data.dtype:
            grad = _unbroadcast(np.asarray(grad, dtype=data.dtype), data.shape)
        if self.grad is None:
            # The routed gradient may alias an array shared with other graph
            # nodes (or be a read-only broadcast view), so take ownership.
            self.grad = grad.copy()
        else:
            np.add(self.grad, grad, out=self.grad)

    def backward(self, grad: Optional[ArrayLike] = None,
                 free_graph: bool = True) -> None:
        """Run reverse-mode autodiff from this tensor.

        Parameters
        ----------
        grad:
            Gradient of some scalar objective with respect to this tensor.
            Defaults to ones (valid for scalar outputs; for non-scalar
            outputs an explicit ``grad`` of the same shape must be given).
        free_graph:
            Release every visited node's backward closure and parent links
            once its gradient has been propagated (the default).  This keeps
            per-step peak memory flat across training steps: without it the
            forward activations captured by the closures stay reachable for
            as long as the caller holds the loss tensor.  Pass ``False``
            to keep the graph (e.g. to call ``backward`` again).
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar tensor; "
                    f"got shape {self.data.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(_as_array(grad), dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).copy()

        order = self._topological_order()
        grads: dict[int, np.ndarray] = {id(self): grad}
        owned: set[int] = set()

        for node in order:
            node_grad = grads.pop(id(node), None)
            if node_grad is not None:
                if node.requires_grad and (node.is_leaf or node._retain_grad):
                    node._accumulate(node_grad)
                if node._backward is not None:
                    node._push(node_grad, grads, owned)
            if free_graph:
                if node._backward is not None:
                    node._backward = None
                    node._freed = True
                node._parents = ()

    def _push(self, grad: np.ndarray, grads: dict, owned: set) -> None:
        """Invoke the backward closure, routing parent gradients via ``grads``.

        ``owned`` tracks which accumulator arrays were freshly allocated by
        this traversal: only those are updated in place (a first routed
        gradient may alias an array another node also received, e.g. both
        parents of an addition, so it is never mutated).
        """
        def route(parent: Tensor, g: np.ndarray) -> None:
            if not parent.requires_grad:
                return
            data = parent.data
            if getattr(g, "shape", None) != data.shape or g.dtype != data.dtype:
                g = _unbroadcast(np.asarray(g, dtype=data.dtype), data.shape)
            if parent._backward is None and not parent._parents:
                # Leaf: accumulate immediately (order-independent addition)
                # instead of round-tripping through the traversal dict.
                parent._accumulate(g)
                return
            key = id(parent)
            existing = grads.get(key)
            if existing is None:
                grads[key] = g
            elif key in owned:
                np.add(existing, g, out=existing)
            else:
                grads[key] = existing + g
                owned.add(key)

        self._backward(grad, route)  # type: ignore[misc]

    def _topological_order(self) -> List["Tensor"]:
        """Reverse topological order of the reachable graph (iterative).

        Tensors are created parents-first (ops never mutate the graph), so
        the monotone creation counter ``_seq`` is a valid topological key:
        one flat reachability sweep plus a sort replaces the conventional
        two-phase DFS.
        """
        if self._freed:
            raise RuntimeError(
                "backward through a freed graph: this tensor's backward "
                "closure was already released by a previous backward() call. "
                "Pass free_graph=False to the first backward to keep the "
                "graph alive.")
        visited: set[int] = {id(self)}
        nodes: List[Tensor] = [self]
        stack: List[Tensor] = [self]
        while stack:
            node = stack.pop()
            for parent in node._parents:
                if parent._freed:
                    raise RuntimeError(
                        "backward through a freed graph: a shared subgraph "
                        "was already released by a previous backward() call. "
                        "Pass free_graph=False to the first backward to keep "
                        "the graph alive.")
                key = id(parent)
                if key not in visited:
                    visited.add(key)
                    nodes.append(parent)
                    stack.append(parent)
        nodes.sort(key=_seq_key, reverse=True)
        return nodes

    # ------------------------------------------------------------------ #
    # Arithmetic operators
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        return add(self, other)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return add(other, self)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return sub(self, other)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return sub(other, self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        return mul(self, other)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return mul(other, self)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return div(self, other)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return div(other, self)

    def __neg__(self) -> "Tensor":
        return mul(self, -1.0)

    def __pow__(self, exponent: float) -> "Tensor":
        return power(self, exponent)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return matmul(self, other)

    def __rmatmul__(self, other: ArrayLike) -> "Tensor":
        return matmul(other, self)

    # Comparison operators return plain boolean arrays (no gradient).
    def __gt__(self, other: ArrayLike):
        return self.data > _as_array(other)

    def __ge__(self, other: ArrayLike):
        return self.data >= _as_array(other)

    def __lt__(self, other: ArrayLike):
        return self.data < _as_array(other)

    def __le__(self, other: ArrayLike):
        return self.data <= _as_array(other)

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes if axes else None)

    def squeeze(self, axis: Optional[int] = None) -> "Tensor":
        return squeeze(self, axis)

    def unsqueeze(self, axis: int) -> "Tensor":
        return expand_dims(self, axis)

    def __getitem__(self, index) -> "Tensor":
        return getitem(self, index)

    # ------------------------------------------------------------------ #
    # Reductions and element-wise helpers
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tensor_mean(self, axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tensor_max(self, axis=axis, keepdims=keepdims)

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tensor_max(-self, axis=axis, keepdims=keepdims) * -1.0

    def abs(self) -> "Tensor":
        return tensor_abs(self)

    def exp(self) -> "Tensor":
        return exp(self)

    def log(self) -> "Tensor":
        return log(self)

    def sqrt(self) -> "Tensor":
        return power(self, 0.5)


# ---------------------------------------------------------------------- #
# Operation constructors
# ---------------------------------------------------------------------- #
def _seq_key(node: "Tensor") -> int:
    return node._seq


def _make_op(data: np.ndarray, parents: Sequence[Tensor]) -> Tensor:
    """Build an op-result tensor without the user-facing constructor cast.

    Operation results keep exactly the dtype numpy computed them in; only
    :class:`Tensor` construction from external data applies the engine's
    default dtype.  Bypassing ``__init__`` also skips a redundant
    ``asarray`` per op, which matters at this engine's op granularity.
    """
    requires = is_grad_enabled() and any(p.requires_grad for p in parents)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = requires
    out._backward = None
    out._parents = tuple(parents) if requires else ()
    out._retain_grad = False
    out._freed = False
    out._seq = next(Tensor._seq_counter)
    out.name = None
    return out


def _wrap(value: ArrayLike) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def add(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = _make_op(a.data + b.data, (a, b))
    if out.requires_grad:
        def backward(grad, route):
            route(a, grad)
            route(b, grad)
        out._backward = backward
    return out


def sub(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = _make_op(a.data - b.data, (a, b))
    if out.requires_grad:
        def backward(grad, route):
            route(a, grad)
            route(b, -grad)
        out._backward = backward
    return out


def mul(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = _make_op(a.data * b.data, (a, b))
    if out.requires_grad:
        a_data, b_data = a.data, b.data
        def backward(grad, route):
            route(a, grad * b_data)
            route(b, grad * a_data)
        out._backward = backward
    return out


def div(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = _make_op(a.data / b.data, (a, b))
    if out.requires_grad:
        a_data, b_data = a.data, b.data
        def backward(grad, route):
            route(a, grad / b_data)
            route(b, -grad * a_data / (b_data ** 2))
        out._backward = backward
    return out


def power(a: ArrayLike, exponent: float) -> Tensor:
    a = _wrap(a)
    out = _make_op(a.data ** exponent, (a,))
    if out.requires_grad:
        a_data = a.data
        def backward(grad, route):
            route(a, grad * exponent * (a_data ** (exponent - 1)))
        out._backward = backward
    return out


def matmul(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = _make_op(a.data @ b.data, (a, b))
    if out.requires_grad:
        a_data, b_data = a.data, b.data

        def backward(grad, route):
            if a_data.ndim == 1 and b_data.ndim == 1:
                # inner product
                route(a, grad * b_data)
                route(b, grad * a_data)
                return
            if b_data.ndim == 1:
                route(a, np.expand_dims(grad, -1) * b_data)
                route(b, np.tensordot(grad, a_data, axes=(tuple(range(grad.ndim)), tuple(range(a_data.ndim - 1)))))
                return
            if a_data.ndim == 1:
                route(a, (grad @ np.swapaxes(b_data, -1, -2)))
                route(b, np.outer(a_data, grad) if b_data.ndim == 2 else np.expand_dims(a_data, -1) * np.expand_dims(grad, -2))
                return
            grad_a = grad @ np.swapaxes(b_data, -1, -2)
            grad_b = np.swapaxes(a_data, -1, -2) @ grad
            route(a, _unbroadcast(grad_a, a_data.shape))
            route(b, _unbroadcast(grad_b, b_data.shape))

        out._backward = backward
    return out


def exp(a: ArrayLike) -> Tensor:
    a = _wrap(a)
    out_data = np.exp(a.data)
    out = _make_op(out_data, (a,))
    if out.requires_grad:
        def backward(grad, route):
            route(a, grad * out_data)
        out._backward = backward
    return out


def log(a: ArrayLike) -> Tensor:
    a = _wrap(a)
    out = _make_op(np.log(a.data), (a,))
    if out.requires_grad:
        a_data = a.data
        def backward(grad, route):
            route(a, grad / a_data)
        out._backward = backward
    return out


def tensor_abs(a: ArrayLike) -> Tensor:
    a = _wrap(a)
    out = _make_op(np.abs(a.data), (a,))
    if out.requires_grad:
        sign = np.sign(a.data)
        def backward(grad, route):
            route(a, grad * sign)
        out._backward = backward
    return out


def maximum(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = _make_op(np.maximum(a.data, b.data), (a, b))
    if out.requires_grad:
        mask = (a.data >= b.data).astype(a.data.dtype)
        def backward(grad, route):
            route(a, grad * mask)
            route(b, grad * (1.0 - mask))
        out._backward = backward
    return out


def clip(a: ArrayLike, low: float, high: float) -> Tensor:
    a = _wrap(a)
    out = _make_op(np.clip(a.data, low, high), (a,))
    if out.requires_grad:
        mask = ((a.data >= low) & (a.data <= high)).astype(a.data.dtype)
        def backward(grad, route):
            route(a, grad * mask)
        out._backward = backward
    return out


def tensor_sum(a: ArrayLike, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    out = _make_op(a.data.sum(axis=axis, keepdims=keepdims), (a,))
    if out.requires_grad:
        shape = a.data.shape

        def backward(grad, route):
            g = grad
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(ax % len(shape) for ax in axes)
                for ax in sorted(axes):
                    g = np.expand_dims(g, ax)
            route(a, np.broadcast_to(g, shape))

        out._backward = backward
    return out


def tensor_mean(a: ArrayLike, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    out = _make_op(a.data.mean(axis=axis, keepdims=keepdims), (a,))
    if out.requires_grad:
        shape = a.data.shape
        if axis is None:
            count = a.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = 1
            for ax in axes:
                count *= shape[ax % len(shape)]

        def backward(grad, route):
            g = grad
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(ax % len(shape) for ax in axes)
                for ax in sorted(axes):
                    g = np.expand_dims(g, ax)
            route(a, np.broadcast_to(g, shape) / count)

        out._backward = backward
    return out


def tensor_max(a: ArrayLike, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    out_data = a.data.max(axis=axis, keepdims=keepdims)
    out = _make_op(out_data, (a,))
    if out.requires_grad:
        shape = a.data.shape

        def backward(grad, route):
            g = grad
            expanded = out_data
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(ax % len(shape) for ax in axes)
                for ax in sorted(axes):
                    g = np.expand_dims(g, ax)
                    expanded = np.expand_dims(expanded, ax)
            mask = (a.data == expanded).astype(a.data.dtype)
            # Split the gradient among ties so the total is conserved.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            route(a, np.broadcast_to(g, shape) * mask / np.maximum(counts, 1.0))

        out._backward = backward
    return out


def reshape(a: ArrayLike, shape: Tuple[int, ...]) -> Tensor:
    a = _wrap(a)
    out = _make_op(a.data.reshape(shape), (a,))
    if out.requires_grad:
        original = a.data.shape

        def backward(grad, route):
            route(a, grad.reshape(original))

        out._backward = backward
    return out


def transpose(a: ArrayLike, axes: Optional[Tuple[int, ...]] = None) -> Tensor:
    a = _wrap(a)
    out = _make_op(np.transpose(a.data, axes), (a,))
    if out.requires_grad:
        if axes is None:
            inverse = None
        else:
            inverse = tuple(np.argsort(axes))

        def backward(grad, route):
            route(a, np.transpose(grad, inverse))

        out._backward = backward
    return out


def squeeze(a: ArrayLike, axis: Optional[int] = None) -> Tensor:
    a = _wrap(a)
    out = _make_op(np.squeeze(a.data, axis=axis), (a,))
    if out.requires_grad:
        original = a.data.shape

        def backward(grad, route):
            route(a, grad.reshape(original))

        out._backward = backward
    return out


def expand_dims(a: ArrayLike, axis: int) -> Tensor:
    a = _wrap(a)
    out = _make_op(np.expand_dims(a.data, axis), (a,))
    if out.requires_grad:
        original = a.data.shape

        def backward(grad, route):
            route(a, grad.reshape(original))

        out._backward = backward
    return out


def _is_basic_index(index) -> bool:
    """True for pure slice/int/None/Ellipsis indexing (no repeated elements)."""
    items = index if isinstance(index, tuple) else (index,)
    for item in items:
        if not isinstance(item, (int, np.integer, slice, type(None), type(Ellipsis))):
            return False
    return True


def getitem(a: ArrayLike, index) -> Tensor:
    a = _wrap(a)
    out = _make_op(a.data[index], (a,))
    if out.requires_grad:
        shape = a.data.shape
        dtype = a.data.dtype
        basic = _is_basic_index(index)

        def backward(grad, route):
            full = np.zeros(shape, dtype=dtype)
            if basic:
                # Basic indexing selects distinct elements, so a plain
                # assignment scatters the gradient (np.add.at is ~10× slower).
                full[index] = grad
            else:
                np.add.at(full, index, grad)
            route(a, full)

        out._backward = backward
    return out


def concatenate(tensors: Iterable[ArrayLike], axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    out = _make_op(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors))
    if out.requires_grad:
        sizes = [t.data.shape[axis] for t in tensors]

        def backward(grad, route):
            start = 0
            for t, size in zip(tensors, sizes):
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, start + size)
                route(t, grad[tuple(index)])
                start += size

        out._backward = backward
    return out


def stack(tensors: Iterable[ArrayLike], axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    out = _make_op(np.stack([t.data for t in tensors], axis=axis), tuple(tensors))
    if out.requires_grad:
        def backward(grad, route):
            index = [slice(None)] * grad.ndim
            for position, t in enumerate(tensors):
                index[axis] = position
                route(t, grad[tuple(index)])

        out._backward = backward
    return out


def pad(a: ArrayLike, pad_width, constant_value: float = 0.0) -> Tensor:
    """Constant-pad a tensor (used by the causal convolution left padding)."""
    a = _wrap(a)
    out = _make_op(np.pad(a.data, pad_width, constant_values=constant_value), (a,))
    if out.requires_grad:
        slices = tuple(
            slice(before, before + size)
            for (before, _after), size in zip(pad_width, a.data.shape)
        )

        def backward(grad, route):
            route(a, grad[slices])

        out._backward = backward
    return out


def einsum(subscripts: str, *operands: ArrayLike) -> Tensor:
    """Differentiable einsum for the contraction patterns the model uses.

    The backward pass is implemented generically by swapping the output
    subscript with each operand subscript in turn, which is valid for
    einsum expressions without repeated indices within a single operand.
    """
    tensors = [_wrap(op) for op in operands]
    out_data = np.einsum(subscripts, *[t.data for t in tensors])
    out = _make_op(out_data, tuple(tensors))
    if out.requires_grad:
        if "->" not in subscripts:
            raise ValueError("einsum autograd requires explicit output subscripts ('->')")
        input_spec, output_spec = subscripts.split("->")
        input_specs = input_spec.split(",")

        def backward(grad, route):
            for idx, tensor in enumerate(tensors):
                if not tensor.requires_grad:
                    continue
                other_specs = [s for i, s in enumerate(input_specs) if i != idx]
                other_data = [t.data for i, t in enumerate(tensors) if i != idx]
                target_spec = input_specs[idx]
                # Gradient w.r.t. operand idx: contract grad with the others.
                sub = ",".join([output_spec] + other_specs) + "->" + target_spec
                grad_i = np.einsum(sub, grad, *other_data)
                # Indices summed out inside the forward (present in operand
                # but absent from output and every other operand) need
                # re-broadcasting.
                if grad_i.shape != tensor.data.shape:
                    grad_i = np.broadcast_to(grad_i, tensor.data.shape)
                route(tensor, grad_i)

        out._backward = backward
    return out


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=get_default_dtype()), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=get_default_dtype()), requires_grad=requires_grad)
