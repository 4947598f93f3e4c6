"""Module and Parameter containers, in the style of ``torch.nn``.

A :class:`Module` automatically registers attributes that are
:class:`Parameter` or :class:`Module` instances, supports recursive
parameter iteration, ``state_dict`` export/import, and train/eval modes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.nn.tensor import Tensor


class Parameter(Tensor):
    """A tensor that is a learnable parameter of a module."""

    def __init__(self, data, name: Optional[str] = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for every neural-network component in this project."""

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self.training: bool = True

    # ------------------------------------------------------------------ #
    # Attribute registration
    # ------------------------------------------------------------------ #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-learnable array saved in ``state_dict``."""
        self._buffers[name] = np.asarray(value)
        object.__setattr__(self, name, self._buffers[name])

    # ------------------------------------------------------------------ #
    # Iteration
    # ------------------------------------------------------------------ #
    def parameters(self) -> Iterator[Parameter]:
        """Yield every parameter of this module and its submodules."""
        for _name, parameter in self.named_parameters():
            yield parameter

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, parameter in self._parameters.items():
            yield prefix + name, parameter
        for module_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{module_name}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix.rstrip("."), self
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def children(self) -> Iterator["Module"]:
        yield from self._modules.values()

    # ------------------------------------------------------------------ #
    # Gradient / mode management
    # ------------------------------------------------------------------ #
    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.grad = None

    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def num_parameters(self) -> int:
        """Total number of scalar learnable values."""
        return int(sum(p.data.size for p in self.parameters()))

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def state_dict(self, prefix: str = "") -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = {}
        for name, parameter in self._parameters.items():
            state[prefix + name] = parameter.data.copy()
        for name, buffer in self._buffers.items():
            state[prefix + name] = np.asarray(buffer).copy()
        for module_name, module in self._modules.items():
            state.update(module.state_dict(prefix=f"{prefix}{module_name}."))
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> List[str]:
        """Load parameter values from ``state``; return the missing keys."""
        missing: List[str] = []
        for name, parameter in self.named_parameters():
            if name in state:
                value = np.asarray(state[name])
                if value.shape != parameter.data.shape:
                    raise ValueError(
                        f"shape mismatch for {name}: expected {parameter.data.shape}, got {value.shape}"
                    )
                parameter.data = value.astype(parameter.data.dtype).copy()
            else:
                missing.append(name)
        if strict and missing:
            raise KeyError(f"missing keys in state dict: {missing}")
        # Let modules that precompute constants from their parameters or
        # buffers (e.g. the causal convolution's cached masks) rebuild them.
        for module in self.modules():
            hook = getattr(module, "_invalidate_caches", None)
            if callable(hook):
                hook()
        return missing

    # ------------------------------------------------------------------ #
    # Forward
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        child_lines = [f"  ({name}): {module.__class__.__name__}" for name, module in self._modules.items()]
        body = "\n".join(child_lines)
        if body:
            return f"{self.__class__.__name__}(\n{body}\n)"
        return f"{self.__class__.__name__}()"


class ModuleList(Module):
    """A list of modules that registers its items as submodules."""

    def __init__(self, modules: Optional[List[Module]] = None) -> None:
        super().__init__()
        self._items: List[Module] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        index = len(self._items)
        self._items.append(module)
        self._modules[str(index)] = module
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]
