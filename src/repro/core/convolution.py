"""Multi-kernel causal convolution (paper Sec. 4.1.2, Eq. 3–4, Fig. 3c).

A learnable kernel ``K ∈ R^{N×N×T}`` convolves, for every (source, target)
series pair, the left-zero-padded history of the source series:

.. math::

    \\hat X^t_{i,j} = K_{i,j} \\cdot [0_{t+1}, …, 0_T, X^1_i, …, X^t_i] / t

so the prediction at slot ``t`` only ever sees observations up to slot ``t``
(temporal priority), and the division by ``t`` rescales for the number of
observed slots.  The self-convolution result is right-shifted by one slot
(Eq. 4) so a series' own current value never leaks into its own prediction,
which is what makes self-causation learnable.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn import tensor as T
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor


class MultiKernelCausalConvolution(Module):
    """Causal convolution with one kernel per (source, target) series pair.

    Parameters
    ----------
    n_series:
        Number of time series ``N``.
    window:
        Window length ``T`` (also the convolution field).
    single_kernel:
        When true, a single kernel is shared by every series pair — the
        "w/o multi conv kernel" ablation of Table 3.
    """

    def __init__(self, n_series: int, window: int, single_kernel: bool = False,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if n_series <= 0 or window <= 1:
            raise ValueError("n_series must be positive and window at least 2")
        self.n_series = n_series
        self.window = window
        self.single_kernel = single_kernel
        rng = rng or init.default_rng()
        kernel_shape = (1, 1, window) if single_kernel else (n_series, n_series, window)
        self.kernel = Parameter(init.he_normal(kernel_shape, rng) / np.sqrt(window),
                                name="causal_conv.kernel")
        # Constant masks used to apply the diagonal right-shift.
        eye = np.eye(n_series, dtype=T.get_default_dtype())
        self.register_buffer("_diag_mask", eye.reshape(n_series, n_series, 1))
        self.register_buffer("_scale",
                             1.0 / np.arange(1, window + 1, dtype=T.get_default_dtype()))
        self._rebuild_constant_cache()

    def _rebuild_constant_cache(self) -> None:
        """Precompute the constant tensors every forward pass needs.

        These never depend on the learnable kernel values, but rebuilding
        them here (also triggered by ``load_state_dict``) keeps their dtype
        in sync with reloaded buffers.
        """
        self._scale_array = np.asarray(self._scale)
        # Constant, grad-free tensors (the 1/t rescale and the single-kernel
        # broadcast helper), so one cached Tensor serves every autograd graph.
        self._scale_tensor = Tensor(self._scale_array)
        self._ones_broadcast = Tensor(
            np.ones((self.n_series, self.n_series, 1), dtype=self._scale_array.dtype))

    def _invalidate_caches(self) -> None:  # hook called by Module.load_state_dict
        self._rebuild_constant_cache()

    def effective_kernel(self) -> Tensor:
        """The kernel broadcast to ``(N, N, T)`` (identity for multi-kernel)."""
        if not self.single_kernel:
            return self.kernel
        return self.kernel * self._ones_broadcast

    def forward(self, x: Tensor) -> Tensor:
        """Convolve a batch of windows (Eq. 3) and self-shift it (Eq. 4).

        Parameters
        ----------
        x:
            Tensor of shape ``(batch, N, T)``.

        Returns
        -------
        Tensor of shape ``(batch, N, N, T)`` where entry ``[b, i, j, t]`` is
        the convolution of source series ``i`` for predicting target series
        ``j`` at slot ``t`` (the paper's ``X̂_{i,j}``).
        """
        return F.diagonal_right_shift(self.convolve(x))

    def convolve(self, x: Tensor) -> Tensor:
        """Eq. 3 alone: the rescaled convolution before the Eq. 4 shift."""
        batch, n_series, window = x.shape
        if n_series != self.n_series or window != self.window:
            raise ValueError(
                f"expected input of shape (*, {self.n_series}, {self.window}); got {x.shape}"
            )
        windows = F.sliding_window(x, window)                        # (B, N, T, T)
        raw = T.einsum("bitk,ijk->bijt", windows, self.effective_kernel())
        return raw * self._scale_tensor

    def convolution_windows(self, x: np.ndarray) -> np.ndarray:
        """Numpy helper exposing ``windows[b, i, t, τ]`` for relevance propagation.

        Returns a read-only strided view: ``windows[b, i, t, τ]`` is the
        left-zero-padded history ``P[b, i, t + 1 + τ]``.
        """
        x = np.asarray(x, dtype=float)
        _padded, view = F._causal_window_view(x, x.shape[-1])
        return view

    def l1_penalty(self) -> Tensor:
        """``‖K‖₁`` — the kernel sparsity term of the loss (Eq. 9)."""
        return self.kernel.abs().sum()
