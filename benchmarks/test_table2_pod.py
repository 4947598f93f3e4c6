"""Benchmark E2 — regenerate Table 2 (precision of delay).

Paper reference values (Table 2, PoD):

=============  =====  =====  ============
dataset        cMLP   TCDF   CausalFormer
=============  =====  =====  ============
diamond        0.82   0.92   0.74
mediator       0.91   0.97   0.63
v_structure    0.91   1.00   0.59
fork           0.76   1.00   0.46
lorenz96       0.45   0.77   0.42
=============  =====  =====  ============

The paper's own finding is that CausalFormer *loses* on delay precision
(cMLP's hierarchical lag penalty and TCDF's dilated kernels localise delays
better, while CausalFormer weighs the whole window uniformly).  The shape we
assert is therefore: the best dedicated-delay baseline is at least as good as
CausalFormer on average.  The CausalFormer column itself is pinned to this
reproduction's own recorded values (``PINNED_CAUSALFORMER_POD``).
"""

import numpy as np
import pytest

from repro.experiments import run_table2

from benchmarks.conftest import save_result

SEEDS = (0, 1)

#: The CausalFormer column (mean precision of delay over ``SEEDS``, fast
#: presets) as commit 56868e0 produced it.  Each dataset must stay within
#: ``PIN_TOLERANCE`` of it, so a change that means to keep results (a
#: refactor, a speed-up) cannot move them unnoticed.
PINNED_CAUSALFORMER_POD = {
    "diamond": 0.5000,
    "mediator": 0.5000,
    "v_structure": 0.5000,
    "fork": 0.8333,
    "lorenz96": 0.2500,
}
PIN_TOLERANCE = 0.05


def test_table2_precision_of_delay(run_once):
    table = run_once(run_table2, seeds=SEEDS, fast=True)
    print("\n" + table.render())
    save_result("table2_pod", table.to_dict())

    rows = table.rows
    assert rows, "Table 2 must contain at least one dataset row"
    for row in rows:
        for column in table.columns:
            values = table.cell(row, column).values
            assert all(0.0 <= v <= 1.0 for v in values)

    # Shape check: averaged over datasets, the best dedicated-delay baseline
    # (cMLP or TCDF) matches or beats CausalFormer, as in the paper.
    def column_mean(column):
        values = [table.mean(row, column) for row in rows
                  if table.cell(row, column).values]
        return float(np.mean(values)) if values else float("nan")

    baseline_best = np.nanmax([column_mean("cmlp"), column_mean("tcdf")])
    causalformer = column_mean("causalformer")
    if np.isfinite(baseline_best) and np.isfinite(causalformer):
        assert baseline_best >= causalformer - 0.1

    assert rows == list(PINNED_CAUSALFORMER_POD)
    for row, pinned in PINNED_CAUSALFORMER_POD.items():
        assert abs(table.mean(row, "causalformer") - pinned) <= PIN_TOLERANCE, \
            (row, table.mean(row, "causalformer"), pinned)
