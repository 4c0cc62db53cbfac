import numpy as np
import pytest

from mfgflow import SolverError, flow, integrate


@pytest.fixture
def fail_payoff_solve(monkeypatch):
    """Make the flow module's `call`-th payoff solve raise SolverError."""

    def install(call):
        solve = flow.solve_payoff
        calls = []

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) == call:
                raise SolverError(f"payoff solve {call} failed on purpose")
            return solve(*args, **kwargs)

        monkeypatch.setattr(flow, "solve_payoff", failing)

    return install


@pytest.fixture
def w1_distance():
    """1-Wasserstein distance between two densities on one 1D grid: the
    quadrature of |M1 - M2|, M_i the trapezoidal CDF of m_i."""

    def w1(m1, m2):
        grid = m1.grid
        diff = m1.values - m2.values
        steps = grid.spacing * 0.5 * (diff[:-1] + diff[1:])
        return integrate(np.abs(np.concatenate(([0.0], np.cumsum(steps)))), grid)

    return w1
