import numpy as np
import pytest

from mfgflow import (
    FlowConfig,
    ModelSpec,
    functional_trace,
    make_grid,
    nash_certificate,
    nash_gap,
    normalize,
    refinement_study,
    run_flow,
    solve_linear,
    stress_test,
)
from mfgflow.diagnostics import StudyError, _sample_trajectory


@pytest.fixture(scope="module")
def grid():
    return make_grid(1, 400)


@pytest.fixture(scope="module")
def model(grid):
    return ModelSpec.linear(mu=0.1, P=0.5, f=4.0 * grid.axes[0])


@pytest.fixture(scope="module")
def uniform(grid):
    return normalize(np.ones(grid.shape), grid)


class TestFunctionalTrace:
    def test_best_response_strictly_decreasing(self, grid, model, uniform):
        result = run_flow(model, uniform, FlowConfig())
        t, phi = functional_trace(result, "best_response")
        assert t[0] == 0.0
        assert np.all(np.diff(t) > 0)
        assert all(b < a for a, b in zip(phi, phi[1:]))
        assert phi[-1] <= grid.spacing

    def test_zero_step_run_single_point(self, grid, uniform):
        flat = ModelSpec.linear(mu=0.1, P=0.5, f=2.0)
        result = run_flow(flat, uniform, FlowConfig())
        t, phi = functional_trace(result, "best_response")
        assert len(t) == 1 and len(phi) == 1

    def test_eikonal_trace_reports_sup_theta(self, grid, model, uniform):
        result = run_flow(model, uniform, FlowConfig(variant="eikonal"))
        _, phi = functional_trace(result, "eikonal")
        assert phi[0] == result.records[0].sup_theta
        assert all(b < a for a, b in zip(phi, phi[1:]))

    def test_unknown_variant_rejected(self, grid, model, uniform):
        result = run_flow(model, uniform, FlowConfig())
        with pytest.raises(ValueError):
            functional_trace(result, "other")


class TestRefinementStudy:
    def test_identical_trajectories_have_zero_distance(self, grid):
        densities = [np.ones(grid.shape), 2 * np.ones(grid.shape)]
        for t in (0.0, 0.05, 0.3):
            a = _sample_trajectory(densities, 0.1, t)
            b = _sample_trajectory(densities, 0.1, t)
            assert np.array_equal(a, b)

    def test_piecewise_constant_indexing(self, grid):
        densities = [np.full(grid.shape, k) for k in range(4)]
        assert _sample_trajectory(densities, 0.1, 0.0)[0] == 0
        assert _sample_trajectory(densities, 0.1, 0.1)[0] == 1
        assert _sample_trajectory(densities, 0.1, 0.19)[0] == 1
        assert _sample_trajectory(densities, 0.1, 5.0)[0] == 3

    def test_monotone_trend_linear(self, grid, model, uniform):
        study = refinement_study(model, uniform, eps0=0.1, pairs=3)
        assert len(study.sup_tv) == 3
        assert all(d >= 0 for d in study.sup_tv)
        violations = sum(
            1 for a, b in zip(study.sup_tv, study.sup_tv[1:]) if b > a
        )
        assert violations <= 1
        assert study.epsilons == [0.1, 0.05, 0.025, 0.0125]

    def test_needs_at_least_one_pair(self, grid, model, uniform):
        with pytest.raises(ValueError):
            refinement_study(model, uniform, pairs=0)

    def test_solver_failure_fails_the_study(self, model, uniform, fail_payoff_solve):
        fail_payoff_solve(3)
        with pytest.raises(StudyError, match="level 0 .* solver_failed"):
            refinement_study(model, uniform, eps0=0.1, pairs=1)


class TestStressTest:
    def test_deterministic_and_permutation_invariant(self, grid, model):
        cfg = FlowConfig(max_outer=60)
        rows_a = stress_test(model, grid, cfg, seeds=[3, 1, 5])
        rows_b = stress_test(model, grid, cfg, seeds=[3, 1, 5])
        assert rows_a == rows_b
        rows_c = stress_test(model, grid, cfg, seeds=[5, 3, 1])
        assert sorted(rows_a, key=lambda r: (r.seed, r.variant)) == sorted(
            rows_c, key=lambda r: (r.seed, r.variant)
        )

    def test_all_converge_on_gentle_model(self, grid, model):
        rows = stress_test(model, grid, FlowConfig(), seeds=range(4))
        assert len(rows) == 8
        assert all(r.converged for r in rows)
        assert all(r.final_residual <= grid.spacing for r in rows)


class TestNashCertificate:
    def test_uniform_under_increasing_source(self, grid, model, uniform):
        theta = solve_linear(model, uniform, grid)
        eps_nash, violation = nash_certificate(uniform, theta)
        # full support, so the gap equals the range of theta
        assert eps_nash == pytest.approx(
            theta.values.max() - theta.values.min(), abs=1e-12
        )
        assert violation == 0.0

    def test_converged_run_certificate(self, grid, model, uniform):
        result = run_flow(model, uniform, FlowConfig())
        eps_nash, violation = nash_certificate(result.m, result.theta)
        assert eps_nash <= grid.spacing
        assert violation <= 1e-3

    def test_mass_on_argmax_has_no_violation(self, grid):
        x = grid.axes[0]
        theta_vals = np.minimum(x, 0.7)
        m = normalize((x >= 0.7).astype(float), grid)
        from mfgflow import ScalarField

        eps_nash, violation = nash_certificate(m, ScalarField(theta_vals, grid))
        assert eps_nash == 0.0
        assert violation == 0.0
        assert nash_gap(ScalarField(theta_vals, grid), m) == 0.0
