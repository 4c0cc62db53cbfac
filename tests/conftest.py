import pytest

from mfgflow import SolverError, flow


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
