"""A from-scratch reverse-mode automatic differentiation engine on numpy.

This subpackage is the deep-learning substrate of the CausalFormer
reproduction.  The paper trains and *interprets* a transformer with PyTorch;
PyTorch is not available here, so ``repro.nn`` provides two layers:

* the numpy engines that run CausalFormer in production —
  :mod:`~repro.nn.inference` (validation, prediction, interpretation) and
  :mod:`~repro.nn.training_engine` (fused forward with a hand-derived
  backward), threaded by :mod:`~repro.nn.parallel`;
* the autograd engine below, which trains the neural baselines and runs
  the plain CausalFormer reference forward
  (:meth:`repro.core.transformer.CausalityAwareTransformer.forward`) that
  the tests check the engines against.

The autograd pieces:

* :class:`~repro.nn.tensor.Tensor` — an ndarray wrapper with reverse-mode
  autodiff, broadcasting-aware gradients, and the ability to *retain*
  gradients on intermediate tensors (required by the paper's gradient
  modulation step, which reads gradients of the attention matrix and the
  causal convolution kernel).
* :mod:`~repro.nn.functional` — softmax, leaky ReLU, MSE, L1 penalties and the
  other point-wise functions the model uses.
* :class:`~repro.nn.module.Module` / :class:`~repro.nn.module.Parameter` —
  PyTorch-style containers with ``state_dict`` save/load.
* :mod:`~repro.nn.layers` — ``Linear``, ``Sequential``, ``Dropout``,
  ``LSTMCell``/``LSTM`` (for the cLSTM baseline), 1-D convolutions (for the
  TCDF baseline).
* :mod:`~repro.nn.optim` — ``SGD`` and ``Adam`` with gradient clipping.
* :mod:`~repro.nn.init` — He / Xavier initialisation (the paper uses He
  initialisation).
"""

from repro.nn.tensor import (
    Tensor,
    no_grad,
    is_grad_enabled,
    get_default_dtype,
    set_default_dtype,
    default_dtype,
)
from repro.nn import functional
from repro.nn.module import Module, Parameter, ModuleList
from repro.nn.layers import (
    Linear,
    Sequential,
    Dropout,
    LeakyReLU,
    ReLU,
    Sigmoid,
    Tanh,
    Identity,
    LSTMCell,
    LSTM,
    Conv1d,
)
from repro.nn.optim import Optimizer, SGD, Adam, clip_grad_norm_
from repro.nn import init
from repro.nn.serialization import save_state_dict, load_state_dict

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "get_default_dtype",
    "set_default_dtype",
    "default_dtype",
    "functional",
    "Module",
    "Parameter",
    "ModuleList",
    "Linear",
    "Sequential",
    "Dropout",
    "LeakyReLU",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "Identity",
    "LSTMCell",
    "LSTM",
    "Conv1d",
    "Optimizer",
    "SGD",
    "Adam",
    "clip_grad_norm_",
    "init",
    "save_state_dict",
    "load_state_dict",
]
