"""The random-cosine 2D presets at 51^2, on record as they run today.

Both randcos presets x seeds 0-7 x both variants: 32 flows from the
uniform density with default settings (max_outer 100, tau = dx) and
each preset's default eps0.  Each run's termination and accepted step
count are asserted exactly, and its final residual, in units of tau, to
a relative RESIDUAL_RTOL.  No seed is dropped: the record holds the runs
that stop at max_outer and the seed-5 harvesting runs whose payoff solve
fails mid-flow, beside those that converge.

The 32 flows take about 20 s, so the module stays out of the default
test collection (its name does not match test_*.py).  Run it with

    PYTHONPATH=src python -m pytest tests/randcos_record.py
"""

from collections import Counter

import numpy as np
import pytest

from mfgflow import PRESETS, FlowConfig, build_model, make_grid, normalize, run_flow
from mfgflow.flow import VARIANTS

GRID = make_grid(2, 50)

# The residuals are kept to 10 significant digits; a change at roundoff
# level in a solver keeps them within this, a different trajectory does not.
RESIDUAL_RTOL = 1e-7

# (preset, seed) -> one (termination, accepted steps, final residual / tau)
# per variant, in the order of VARIANTS (best_response, eikonal)
RECORD = {
    ("linear-randcos2d", 0): (("max_outer", 100, 2.748955152), ("converged", 70, 0.994293232)),
    ("linear-randcos2d", 1): (("converged", 20, 0.8505822567), ("converged", 43, 0.9275232453)),
    ("linear-randcos2d", 2): (("max_outer", 100, 1.901551496), ("max_outer", 100, 2.224020984)),
    ("linear-randcos2d", 3): (("max_outer", 100, 1.405900506), ("max_outer", 100, 2.952949317)),
    ("linear-randcos2d", 4): (("converged", 21, 0.9318436866), ("max_outer", 100, 1.263916392)),
    ("linear-randcos2d", 5): (("converged", 10, 0.9940249678), ("converged", 16, 0.8148796396)),
    ("linear-randcos2d", 6): (("converged", 28, 0.9768198889), ("converged", 75, 0.9989085961)),
    ("linear-randcos2d", 7): (("converged", 21, 0.9981726035), ("max_outer", 100, 1.281885714)),
    ("nonlinear-randcos2d", 0): (("max_outer", 100, 1.398279152), ("max_outer", 100, 1.973441146)),
    ("nonlinear-randcos2d", 1): (("max_outer", 100, 1.162333372), ("max_outer", 100, 2.06543551)),
    ("nonlinear-randcos2d", 2): (("max_outer", 100, 1.891645177), ("max_outer", 100, 1.769359201)),
    ("nonlinear-randcos2d", 3): (("max_outer", 100, 1.22051062), ("max_outer", 100, 1.534799346)),
    ("nonlinear-randcos2d", 4): (("converged", 19, 0.9995988832), ("converged", 41, 0.9778533462)),
    ("nonlinear-randcos2d", 5): (("solver_failed", 5, 7.652489958),
                                 ("solver_failed", 5, 8.074448715)),
    ("nonlinear-randcos2d", 6): (("max_outer", 100, 1.108195018), ("converged", 54, 0.992226276)),
    ("nonlinear-randcos2d", 7): (("converged", 23, 0.9986091927), ("converged", 24, 0.9693574837)),
}

RUNS = [
    (name, seed, variant, outcome)
    for (name, seed), outcomes in RECORD.items()
    for variant, outcome in zip(VARIANTS, outcomes, strict=True)
]


def test_record_covers_every_seed_and_variant():
    assert sorted(RECORD) == [
        (name, seed) for name in ("linear-randcos2d", "nonlinear-randcos2d") for seed in range(8)
    ]
    tally = Counter((name, outcome[0]) for name, _, _, outcome in RUNS)
    assert tally == {
        ("linear-randcos2d", "converged"): 9,
        ("linear-randcos2d", "max_outer"): 7,
        ("nonlinear-randcos2d", "converged"): 5,
        ("nonlinear-randcos2d", "max_outer"): 9,
        ("nonlinear-randcos2d", "solver_failed"): 2,
    }


@pytest.mark.parametrize(
    "name, seed, variant, outcome", RUNS,
    ids=[f"{name}-{seed}-{variant}" for name, seed, variant, _ in RUNS],
)
def test_run_matches_the_record(name, seed, variant, outcome):
    termination, accepted, residual_in_tau = outcome
    preset = PRESETS[name]
    model = build_model(preset, GRID, seed=seed)
    m0 = normalize(np.ones(GRID.shape), GRID)
    result = run_flow(model, m0, FlowConfig(variant=variant, eps0=preset.default_eps0))
    assert (result.termination, result.iterations) == (termination, accepted)
    assert result.final_residual / GRID.spacing == pytest.approx(
        residual_in_tau, rel=RESIDUAL_RTOL
    )
