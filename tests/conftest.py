"""Shared fixtures for the test suite.

The expensive fixtures (trained models) are session-scoped so the many tests
that inspect a trained CausalFormer share one training run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CausalFormer, CausalFormerConfig, CausalityAwareTransformer, fast_preset
from repro.data import fork_dataset, v_structure_dataset
from repro.nn.tensor import Tensor


def numeric_gradient(function, x: np.ndarray, epsilon: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array."""
    gradient = np.zeros_like(x, dtype=float)
    iterator = np.nditer(x, flags=["multi_index"])
    while not iterator.finished:
        index = iterator.multi_index
        original = x[index]
        x[index] = original + epsilon
        plus = function(x)
        x[index] = original - epsilon
        minus = function(x)
        x[index] = original
        gradient[index] = (plus - minus) / (2 * epsilon)
        iterator.iternext()
    return gradient


#: the training-relevant Table 3 ablation grid (the remaining Table 3
#: switches are detector flags and never touch the model's forward), plus
#: the penalty/head axes that change the backward's accumulation structure
ABLATION_GRID = [
    {},
    {"single_kernel": True},
    {"lambda_kernel": 0.0},
    {"lambda_mask": 0.0},
    {"lambda_kernel": 0.0, "lambda_mask": 0.0},
    {"n_heads": 1},
    {"single_kernel": True, "n_heads": 1},
    {"temperature": 2.5},
]

#: engine-vs-reference tolerance, relative to the reference's largest
#: magnitude: the numpy engines and the plain autograd reference compute
#: the same equations in different summation orders
REFERENCE_TOLERANCE = {np.dtype(np.float64): 1e-12, np.dtype(np.float32): 2e-5}


def assert_matches_reference(actual, expected, dtype, scale=None,
                             err_msg: str = "") -> None:
    """Engine output ``actual`` equals the reference ``expected`` to rounding.

    ``scale`` (default: the largest ``|expected|``) sets the absolute
    tolerance; pass a floored scale for arrays whose exact value is zero,
    such as the key-bias gradients (softmax ignores a per-row shift).
    """
    expected = np.asarray(expected, dtype=np.float64)
    tolerance = REFERENCE_TOLERANCE[np.dtype(dtype)]
    if scale is None:
        scale = float(np.abs(expected).max(initial=0.0))
    scale = max(scale, 1e-12)
    np.testing.assert_allclose(np.asarray(actual, dtype=np.float64), expected,
                               rtol=tolerance, atol=tolerance * scale,
                               err_msg=err_msg)


@pytest.fixture(scope="session", autouse=True)
def _float64_reference_engine():
    """Run the legacy suite on the float64 reference path.

    The engine defaults to float32 (the training fast path); these tests
    assert numerics at float64 tolerances (down to 1e-12), so they pin the
    reference dtype.  Float32 behaviour is covered explicitly by
    ``tests/nn/test_dtype.py`` and ``tests/core/test_perf_equivalence.py``.
    """
    from repro.nn.tensor import default_dtype

    with default_dtype(np.float64):
        yield


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_config() -> CausalFormerConfig:
    """A deliberately small configuration used across the core tests."""
    return CausalFormerConfig(
        n_series=3,
        window=8,
        d_model=12,
        d_qk=12,
        d_ffn=12,
        n_heads=2,
        temperature=1.0,
        max_epochs=8,
        window_stride=4,
        batch_size=32,
        seed=0,
    )


@pytest.fixture(scope="session")
def fork_data():
    """A small fork dataset (S0 → S1, S0 → S2 plus self-loops)."""
    return fork_dataset(seed=7, length=300)


@pytest.fixture(scope="session")
def v_structure_data():
    return v_structure_dataset(seed=11, length=300)


@pytest.fixture(scope="session")
def tiny_transformer(tiny_config) -> CausalityAwareTransformer:
    """An untrained transformer with the tiny configuration."""
    return CausalityAwareTransformer(tiny_config)


@pytest.fixture(scope="session")
def trained_causalformer(fork_data) -> CausalFormer:
    """One trained CausalFormer shared by the detector / relevance / discovery tests."""
    model = CausalFormer(fast_preset(max_epochs=15, seed=3))
    model.discover(fork_data)
    return model


@pytest.fixture()
def window_batch(tiny_config, rng) -> np.ndarray:
    """A random batch of windows matching the tiny configuration."""
    return rng.normal(size=(4, tiny_config.n_series, tiny_config.window))


@pytest.fixture()
def tensor_factory(rng):
    """Factory producing random Tensors with gradients enabled."""

    def make(*shape, requires_grad: bool = True) -> Tensor:
        return Tensor(rng.normal(size=shape), requires_grad=requires_grad)

    return make
