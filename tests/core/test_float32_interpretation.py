"""A float32 model is interpreted in float32, the dtype it was trained in.

The detector interprets the model it is given, in that model's dtype.  These
tests measure what that costs against a float64 copy of the same weights
(built here with ``load_state_dict``) on the fork, diamond and v-structure
fixtures, under every detector flag set, with one kernel or many:

* the causal graphs are the same;
* scores without relevance (gradient-only and raw-weight) agree to float32
  rounding, within ``ROUNDING_DRIFT`` of the score matrix's maximum;
* scores with relevance, whose propagation divides by stabilised
  activations, agree within ``RELEVANCE_DRIFT`` of the maximum.  The largest
  drift measured on these fixtures is 5.1e-2, on fork with a single kernel
  and no bias; every other case stays below 5e-3.

The causal scores are float64 whatever the model dtype.
"""

import itertools

import numpy as np
import pytest

from repro.core.config import fast_preset
from repro.core.detector import DecompositionCausalityDetector
from repro.core.discovery import CausalFormer
from repro.core.transformer import CausalityAwareTransformer
from repro.data import diamond_dataset, fork_dataset, v_structure_dataset
from repro.nn.tensor import default_dtype

ROUNDING_DRIFT = 1e-5
RELEVANCE_DRIFT = 1e-1

DATASETS = {
    "fork": lambda: fork_dataset(seed=7, length=300),
    "diamond": lambda: diamond_dataset(seed=0, length=300),
    "v_structure": lambda: v_structure_dataset(seed=11, length=300),
}

#: The Table 3 detector ablations and the full detector.
FLAG_SETS = {
    "full": {},
    "w/o interpretation": {"use_interpretation": False},
    "w/o relevance": {"use_relevance": False},
    "w/o gradient": {"use_gradient": False},
    "w/o bias": {"use_bias": False},
}

FITS = list(itertools.product(DATASETS, (False, True)))


@pytest.fixture(scope="module")
def float32_fits():
    """``(dataset, single_kernel)`` → a float32 model and its windows."""
    fits = {}
    with default_dtype(np.float32):
        for name, single_kernel in FITS:
            method = CausalFormer(fast_preset(max_epochs=15, seed=3,
                                              single_kernel=single_kernel))
            method.fit(DATASETS[name]())
            fits[name, single_kernel] = (method.model_,
                                         method.detector_windows())
    return fits


def float64_copy(model):
    with default_dtype(np.float64):
        copy = CausalityAwareTransformer(model.config)
    copy.load_state_dict(model.state_dict())
    return copy


def relative_drift(actual, expected):
    return np.abs(actual - expected).max() / np.abs(expected).max()


@pytest.mark.parametrize("flags", FLAG_SETS.values(), ids=FLAG_SETS.keys())
@pytest.mark.parametrize("name,single_kernel", FITS)
def test_float32_interpretation_tracks_a_float64_copy(float32_fits, name,
                                                      single_kernel, flags):
    model, windows = float32_fits[name, single_kernel]
    copy = float64_copy(model)
    with default_dtype(np.float32):
        detector = DecompositionCausalityDetector(model, **flags)
        assert detector.model is model
        graph, scores = detector.detect(windows)
        reference_graph, reference = \
            DecompositionCausalityDetector(copy, **flags).detect(windows)
    assert sorted(edge.as_tuple() for edge in graph.edges) \
        == sorted(edge.as_tuple() for edge in reference_graph.edges)
    bound = RELEVANCE_DRIFT if flags.get("use_interpretation", True) \
        and flags.get("use_relevance", True) else ROUNDING_DRIFT
    assert relative_drift(scores.attention, reference.attention) <= bound
    assert relative_drift(scores.kernel, reference.kernel) <= bound


@pytest.mark.parametrize("flags", FLAG_SETS.values(), ids=FLAG_SETS.keys())
def test_scores_stay_float64(float32_fits, flags):
    model, windows = float32_fits["fork", False]
    with default_dtype(np.float32):
        scores = DecompositionCausalityDetector(model, **flags) \
            .compute_scores(windows)
    assert scores.attention.dtype == np.float64
    assert scores.kernel.dtype == np.float64
