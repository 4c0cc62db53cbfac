"""The paper's min-max-income characterization, checked against the flows.

For the linear model, an equilibrium minimizes the highest income: it
solves the LP

    min t  subject to  theta <= t,  A theta + m = f,  m >= 0,  int m = 1,

with A = mu (-Lap) + diag(P) and the grid's quadrature for int.  The
LP eliminates theta = A^{-1} (f - m) with a dense inverse, so it is an
independent oracle for small grids: its minimizer must be a Nash
equilibrium, and both converged flows must end near it.  This holds in
2D because mass is measured in the weights in which A is symmetric.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from mfgflow import FlowConfig, make_grid, normalize, run_flow, tv_distance
from mfgflow.elliptic import neumann_laplacian
from mfgflow.flow import nash_gap
from mfgflow.measures import ScalarField
from mfgflow.presets import PRESETS, build_model

# measured TV(flow, LP minimizer): at most 0.078 in 1D, 0.049 / 0.051 in 2D
TV_BOUND = 0.1


def min_max_income(model, grid):
    """The LP minimizer of the highest income: (m, theta) as fields."""
    A = model.mu * neumann_laplacian(grid) + sp.diags(model.coefficient("P", grid).ravel())
    inverse = np.linalg.inv(A.toarray())
    theta_f = inverse @ model.coefficient("f", grid).ravel()
    nodes = grid.num_nodes
    # unknowns (m, t): minimize t subject to theta_f - inverse m <= t
    cost = np.zeros(nodes + 1)
    cost[-1] = 1.0
    result = linprog(
        cost,
        A_ub=np.hstack([-inverse, -np.ones((nodes, 1))]),
        b_ub=-theta_f,
        A_eq=np.append(grid.quad_weights.ravel(), 0.0)[None, :],
        b_eq=[1.0],
        bounds=[(0.0, None)] * nodes + [(None, None)],
        method="highs",
    )
    assert result.status == 0, result.message
    m = result.x[:nodes]
    theta = theta_f - inverse @ m
    return ScalarField(m.reshape(grid.shape), grid), ScalarField(theta.reshape(grid.shape), grid)


@pytest.mark.parametrize("name, dim, n", [
    ("linear-gauss2d", 2, 20),
    ("linear-4x", 1, 100),
    ("linear-sin", 1, 100),
    ("linear-cos", 1, 100),
])
def test_flows_end_at_the_min_max_income(name, dim, n):
    preset = PRESETS[name]
    grid = make_grid(dim, n)
    model = build_model(preset, grid)
    m_lp, theta_lp = min_max_income(model, grid)
    assert nash_gap(theta_lp, m_lp) <= 1e-9
    top = theta_lp.values.max()
    tau = grid.spacing
    m0 = normalize(np.ones(grid.shape), grid)
    for variant in ("best_response", "eikonal"):
        result = run_flow(model, m0, FlowConfig(variant=variant, eps0=preset.default_eps0))
        assert result.converged
        # no density has a lower top income than the LP's, up to its tolerance
        flow_top = result.theta.values.max()
        assert top - 1e-9 * (1.0 + abs(top)) <= flow_top <= top + tau
        assert tv_distance(result.m, m_lp) <= TV_BOUND
