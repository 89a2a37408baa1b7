"""Ablation — inner CG budget of the local Newton solves (10/20/30 sweep from
the Figure 4 caption, plus 5, just below the library's default local budget
of 6)."""

import numpy as np
from conftest import run_once

from repro.harness.experiments import ablation_cg_budget


def test_ablation_cg_budget(benchmark):
    result = run_once(benchmark, ablation_cg_budget)
    rows = {r["cg_max_iter"]: r for r in result["rows"]}
    print("\n" + result["report"])

    assert set(rows) == {5, 10, 20, 30}
    # More CG iterations cost more modelled time per epoch ...
    assert rows[30]["avg_epoch_time_s"] > rows[5]["avg_epoch_time_s"]
    # ... and do not hurt the final objective.
    assert rows[30]["final_objective"] <= rows[5]["final_objective"] + 0.05
    for row in rows.values():
        assert np.isfinite(row["final_objective"])
