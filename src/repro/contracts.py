"""Machine-checkable markers for the engine invariants.

The performance story of the fused engines rests on contracts that used to
live only in docstrings: steady-state code must not allocate large
temporaries (it draws from a :class:`~repro.nn.inference.ScratchArena`),
must not silently promote the float32 default path to float64, and must
declare every buffer a ``parallel_for`` body writes.  The markers in this
module make the first of those contracts *visible to static analysis*:
:mod:`repro.analysis` walks the AST and enforces the allocation discipline
inside every function carrying :func:`hot_path`.

The markers are deliberately free at runtime — :func:`hot_path` tags the
function object and returns it unchanged, so decorating a hot function adds
zero per-call overhead.
"""

from __future__ import annotations

__all__ = ["hot_path", "is_hot_path"]

#: Attribute set on functions marked as steady-state hot paths.
HOT_PATH_ATTRIBUTE = "__repro_hot_path__"


def hot_path(function):
    """Mark ``function`` as a steady-state hot path (allocation-free zone).

    A hot-path function runs once per training step / evaluation call in
    the fused engines, or once per step of an integrator such as the
    Lorenz-96 simulator's; every temporary it touches must come from a
    scratch arena or an ``out=`` buffer.  The ``hot-path-alloc`` checker in
    :mod:`repro.analysis` statically flags allocating numpy calls
    (``np.zeros``, ``np.empty``, ``np.concatenate``, ``.copy()``,
    ``.astype(...)`` without ``copy=False``, ...) inside marked functions.

    The decorator only tags the function object — no wrapper, no per-call
    cost::

        @hot_path
        def _forward(self, x, stage):
            ...
    """
    setattr(function, HOT_PATH_ATTRIBUTE, True)
    return function


def is_hot_path(function) -> bool:
    """Whether ``function`` was marked with :func:`hot_path`."""
    return bool(getattr(function, HOT_PATH_ATTRIBUTE, False))
