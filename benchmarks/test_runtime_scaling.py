"""Runtime micro-benchmarks of the core computational kernels.

These complement the experiment benches: they time the forward pass, one
training step (fused forward + hand-derived backward + Adam), and the full
detector interpretation on a mid-size configuration, so regressions in the
numpy engines show up directly.
Unlike the table/figure benches these use pytest-benchmark's normal
multi-round timing (the payloads are cheap).
"""

import numpy as np
import pytest

from repro.core import (
    CausalFormerConfig,
    CausalityAwareTransformer,
    DecompositionCausalityDetector,
)
from repro.nn.optim import Adam
from repro.nn.training_engine import TrainingEngine


def midsize_config():
    return CausalFormerConfig(n_series=8, window=16, d_model=32, d_qk=32,
                              d_ffn=32, n_heads=4, seed=0)


@pytest.fixture(scope="module")
def midsize_model():
    return CausalityAwareTransformer(midsize_config())


@pytest.fixture(scope="module")
def midsize_batch():
    return np.random.default_rng(0).normal(size=(32, 8, 16))


def test_forward_pass(benchmark, midsize_model, midsize_batch):
    result = benchmark(midsize_model.predict, midsize_batch)
    assert result.shape == midsize_batch.shape


def test_forward_backward_pass(benchmark, midsize_batch):
    # A private model: the training steps move its weights, and the other
    # benches share ``midsize_model``.
    model = CausalityAwareTransformer(midsize_config())
    engine = TrainingEngine(model, Adam(list(model.parameters()), lr=1e-3))
    batch = engine.prepare_windows(midsize_batch)
    loss_value = benchmark(engine.train_step, batch)
    assert np.isfinite(loss_value)


def test_detector_interpretation(benchmark, midsize_model, midsize_batch):
    detector = DecompositionCausalityDetector(midsize_model)

    def interpret():
        graph, scores = detector.detect(midsize_batch[:8])
        return graph

    graph = benchmark.pedantic(interpret, rounds=2, iterations=1, warmup_rounds=0)
    assert graph.n_series == 8
