"""Point-wise functions, activations and losses used by the models.

Every function here accepts and returns :class:`repro.nn.tensor.Tensor`
objects and is differentiable through the autograd engine.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import tensor as T
from repro.nn.tensor import Tensor


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit ``max(x, 0)``."""
    return T.maximum(x, T.Tensor(np.zeros_like(x.data)))


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight + bias`` as one fused autograd node.

    ``weight`` must be 2-D ``(in, out)``; ``x`` may have any number of
    leading dimensions; ``bias`` broadcasts over them.  Fusing the matmul
    and the bias addition halves the graph nodes per linear layer, and the
    backward pass computes the weight gradient with a single tensordot.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    out_data = x.data @ weight.data
    if bias is not None:
        out_data += bias.data
    parents = (x, weight) if bias is None else (x, weight, bias)
    out = T._make_op(out_data, parents)
    if out.requires_grad:
        x_data, w_data = x.data, weight.data

        def backward(grad, route):
            if x.requires_grad:
                route(x, grad @ w_data.T)
            grad_2d = grad.reshape(-1, grad.shape[-1])
            if weight.requires_grad:
                route(weight, x_data.reshape(-1, x_data.shape[-1]).T @ grad_2d)
            if bias is not None and bias.requires_grad:
                route(bias, grad_2d.sum(axis=0))

        out._backward = backward
    return out


# ---------------------------------------------------------------------- #
# Causal-window primitives (paper Eq. 3)
# ---------------------------------------------------------------------- #
def _causal_window_view(data: np.ndarray, window: int):
    """Left-zero-pad ``data`` and return its causal windows as a strided view.

    Returns ``(padded, view)`` where ``view[..., t, τ] = padded[..., t+1+τ]``
    — the ``window``-slot history whose last element is the observation at
    slot ``t``.  The view shares memory with ``padded``; no ``(…, T, T)``
    copy is ever materialised.
    """
    padded = np.concatenate(
        [np.zeros(data.shape[:-1] + (window,), dtype=data.dtype), data],
        axis=-1)
    view = np.lib.stride_tricks.sliding_window_view(padded, window, axis=-1)
    return padded, view[..., 1:, :]


def sliding_window(x: Tensor, window: int) -> Tensor:
    """Differentiable causal windows: ``out[..., t, τ] = padded[..., t+1+τ]``.

    ``padded`` is ``x`` left-padded with ``window`` zeros along the last
    axis, so ``out[..., t, :]`` is the history visible at slot ``t`` under
    the paper's temporal-priority constraint (Eq. 3).  The forward pass is a
    stride-trick view — replacing the ``T``-iteration slice-and-stack loop
    this engine used previously.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    if window < 1:
        raise ValueError("window must be at least 1")
    padded, view = _causal_window_view(x.data, window)
    out = T._make_op(view, (x,))
    if out.requires_grad:
        padded_shape = padded.shape
        length = view.shape[-2]

        def backward(grad, route):
            # Scatter-add onto the padded axis: grad[..., t, τ] lands on
            # padded[..., t+1+τ].  The window axis is made contiguous first
            # so each of the ``window`` adds streams over contiguous memory.
            by_offset = np.ascontiguousarray(np.swapaxes(grad, -1, -2))
            grad_padded = np.zeros(padded_shape, dtype=x.data.dtype)
            for tau in range(window):
                grad_padded[..., 1 + tau:1 + tau + length] += by_offset[..., tau, :]
            route(x, grad_padded[..., window:])

        out._backward = backward
    return out


def diagonal_right_shift(values: Tensor) -> Tensor:
    """Shift the self-convolution results one slot right (paper Eq. 4).

    ``values`` has shape ``(B, N, N, T)``; the diagonal entries
    ``values[:, i, i, :]`` are shifted right by one slot (slot 0 becomes 0)
    so a series' own current value never leaks into its own prediction.
    Off-diagonal entries pass through unchanged.
    """
    values = values if isinstance(values, Tensor) else Tensor(values)
    n_series = values.shape[1]
    diag = np.arange(n_series)
    out_data = values.data.copy()
    out_data[:, diag, diag, 1:] = values.data[:, diag, diag, :-1]
    out_data[:, diag, diag, 0] = 0.0
    out = T._make_op(out_data, (values,))
    if out.requires_grad:
        def backward(grad, route):
            grad_values = grad.copy()
            grad_values[:, diag, diag, :-1] = grad[:, diag, diag, 1:]
            grad_values[:, diag, diag, -1] = 0.0
            route(values, grad_values)

        out._backward = backward
    return out


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    """Leaky ReLU, the activation the paper's feed-forward layer uses."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    data = x.data
    slope = np.where(data > 0, data.dtype.type(1.0),
                     data.dtype.type(negative_slope))
    out = T._make_op(data * slope, (x,))
    if out.requires_grad:
        def backward(grad, route):
            route(x, grad * slope)

        out._backward = backward
    return out


def sigmoid(x: Tensor) -> Tensor:
    x = x if isinstance(x, Tensor) else Tensor(x)
    out_data = 1.0 / (1.0 + np.exp(-x.data))
    out = T._make_op(out_data, (x,))
    if out.requires_grad:
        def backward(grad, route):
            route(x, grad * out_data * (1.0 - out_data))
        out._backward = backward
    return out


def tanh(x: Tensor) -> Tensor:
    x = x if isinstance(x, Tensor) else Tensor(x)
    out_data = np.tanh(x.data)
    out = T._make_op(out_data, (x,))
    if out.requires_grad:
        def backward(grad, route):
            route(x, grad * (1.0 - out_data ** 2))
        out._backward = backward
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis``."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    out_data = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(out_data, out=out_data)
    out_data /= out_data.sum(axis=axis, keepdims=True)
    out = T._make_op(out_data, (x,))
    if out.requires_grad:
        def backward(grad, route):
            dot = (grad * out_data).sum(axis=axis, keepdims=True)
            route(x, out_data * (grad - dot))
        out._backward = backward
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    return T.log(softmax(x, axis=axis) + 1e-12)


def dropout(x: Tensor, p: float = 0.5, training: bool = True,
            rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout; identity when ``training`` is false or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    if p >= 1.0:
        raise ValueError("dropout probability must be < 1")
    rng = rng or np.random.default_rng()
    mask = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    return x * Tensor(mask)


def mse_loss(prediction: Tensor, target: Tensor, reduction: str = "mean") -> Tensor:
    """Mean squared error between prediction and target.

    The ``mean``/``sum`` reductions are fused into a single autograd node
    (gradient ``±2·diff·(scale)``) — the training loss is evaluated every
    step, so it should not cost three graph nodes and two full-size
    temporaries.
    """
    target = target if isinstance(target, Tensor) else Tensor(target)
    if reduction == "none":
        diff = prediction - target
        return diff * diff
    if reduction not in ("mean", "sum"):
        raise ValueError(f"unknown reduction {reduction!r}")
    diff = prediction.data - target.data
    value = np.dot(diff.ravel(), diff.ravel())
    if reduction == "mean":
        value = value / diff.size
    out = T._make_op(np.asarray(value, dtype=diff.dtype), (prediction, target))
    if out.requires_grad:
        scale = 2.0 / diff.size if reduction == "mean" else 2.0

        def backward(grad, route):
            g = (scale * grad) * diff
            route(prediction, g)
            if target.requires_grad:
                route(target, -g)

        out._backward = backward
    return out


def mae_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    return (prediction - target).abs().mean()


def l1_norm(x: Tensor) -> Tensor:
    """Sum of absolute values — the paper's sparsity penalty (Eq. 9)."""
    return x.abs().sum()


def l2_norm(x: Tensor) -> Tensor:
    """Euclidean norm (square root of the sum of squares)."""
    return ((x * x).sum() + 1e-12) ** 0.5


def group_lasso(weight: Tensor, axis: int = 0) -> Tensor:
    """Group-lasso penalty: sum over groups of the L2 norms along ``axis``.

    Used by the cMLP / cLSTM neural-Granger baselines to push whole input
    groups (one group per candidate cause series) to zero.
    """
    squared = (weight * weight).sum(axis=axis)
    return ((squared + 1e-12) ** 0.5).sum()


def huber_loss(prediction: Tensor, target: Tensor, delta: float = 1.0) -> Tensor:
    """Huber loss, provided for robustness experiments."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    diff = prediction - target
    abs_diff = diff.abs()
    quadratic = 0.5 * diff * diff
    linear = delta * abs_diff - 0.5 * delta * delta
    mask = abs_diff.data <= delta
    return T.where(mask, quadratic, linear).mean()
