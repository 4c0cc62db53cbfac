import dataclasses
import math

import numpy as np
import pytest

from mfgflow import (
    PRESETS,
    FlowConfig,
    ModelSpec,
    build_model,
    functional_trace,
    integrate,
    make_grid,
    nash_certificate,
    nash_gap,
    normalize,
    random_density,
    refinement_study,
    run_flow,
    solve_linear,
    stress_test,
)
from mfgflow import diagnostics, elliptic, flow
from mfgflow.diagnostics import StudyError
from mfgflow.flow import VARIANTS


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

    def test_result_without_records_rejected(self, grid, model, uniform):
        result = run_flow(model, uniform, FlowConfig())
        result.records = []
        with pytest.raises(ValueError, match="no records"):
            functional_trace(result, "best_response")

    def test_unknown_variant_rejected(self, grid, model, uniform):
        result = run_flow(model, uniform, FlowConfig())
        with pytest.raises(ValueError):
            functional_trace(result, "other")


def uncapped_study(model, m0, eps0, pairs, variant, max_outer):
    """sup_tv, as refinement_study defines it, of levels that each run
    max_outer fixed steps; with each level's step count."""
    grid = m0.grid
    trajectories = [
        run_flow(model, m0, FlowConfig(variant=variant, max_outer=max_outer,
                                       fixed_eps=eps0 / 2**k, keep_trajectory=True)).densities
        for k in range(pairs + 1)
    ]
    window = min((len(traj) - 1) << (pairs - k) for k, traj in enumerate(trajectories))
    sup_tv = [
        max(integrate(np.abs(coarse[j // 2] - fine[j]), grid)
            for j in range((window >> (pairs - k - 1)) + 1))
        for k, (coarse, fine) in enumerate(zip(trajectories, trajectories[1:]))
    ]
    return sup_tv, [len(traj) - 1 for traj in trajectories]


class TestRefinementStudy:
    @pytest.mark.parametrize("variant", ["best_response", "eikonal"])
    def test_sup_tv_matches_a_fine_time_grid(self, variant):
        # the oracle reads each level's trajectory as a function of
        # transported mass, m^j on [j eps, (j+1) eps), and samples the
        # common window ten times per step of the finest level; on
        # linear-sin the first pair's sup lies at the window's last step
        grid = make_grid(1, 1000)
        model = build_model(PRESETS["linear-sin"], grid)
        m0 = normalize(np.ones(grid.shape), grid)
        pairs, max_outer = 6, 100
        study = refinement_study(model, m0, eps0=0.1, pairs=pairs, variant=variant,
                                 max_outer=max_outer)
        levels = []
        for eps in study.epsilons:
            cfg = FlowConfig(variant=variant, max_outer=max_outer, fixed_eps=eps,
                             keep_trajectory=True)
            levels.append((eps, run_flow(model, m0, cfg).densities))
        horizon = min(eps * (len(traj) - 1) for eps, traj in levels)
        finest = study.epsilons[-1]
        times = np.linspace(0.0, horizon, 10 * round(horizon / finest) + 1)

        def at(eps, traj, t):
            # a sample on a step boundary belongs to the step it starts
            return traj[min(int(t / eps + 1e-9), len(traj) - 1)]

        oracle = [
            max(integrate(np.abs(at(*a, t) - at(*b, t)), grid) for t in times)
            for a, b in zip(levels, levels[1:])
        ]
        assert horizon == pytest.approx(max_outer * finest)
        assert study.sup_tv == oracle

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

    def test_steps_past_two_to_the_1024(self, model, uniform):
        # 2**1030 has no float; the steps are still eps0 / 2^k, subnormal at the end
        study = refinement_study(model, uniform, eps0=0.1, pairs=1030, max_outer=1)
        assert study.epsilons == [0.1 * 2.0**-k for k in range(1031)]
        assert len(study.sup_tv) == 1030 and study.epsilons[-1] > 0.0

    def test_finest_step_below_the_smallest_float_refused(self, model, uniform):
        # 0.1 / 2^1100 rounds to zero, and 2^1100 itself has no float
        with pytest.raises(ValueError, match="eps0 / 2\\^1100 of eps0 = 0.1 is not positive"):
            refinement_study(model, uniform, eps0=0.1, pairs=1100)

    @pytest.mark.parametrize("pairs", [1.5, 2.0, True])
    def test_pairs_that_are_not_an_integer_refused(self, model, uniform, pairs):
        with pytest.raises(ValueError, match="pairs must be an integer"):
            refinement_study(model, uniform, eps0=0.1, pairs=pairs)

    def test_solver_failure_fails_the_study(self, model, uniform, fail_payoff_solve):
        fail_payoff_solve(3)
        with pytest.raises(StudyError, match="level 0 .* solver_failed"):
            refinement_study(model, uniform, eps0=0.1, pairs=1)

    @pytest.mark.parametrize("pairs, max_outer", [(6, 25), (3, 100), (2, 7)])
    def test_each_level_runs_only_the_steps_the_window_reaches(
        self, monkeypatch, model, uniform, pairs, max_outer
    ):
        caps = []

        def counting_run_flow(model, m0, cfg):
            caps.append(cfg.max_outer)
            return run_flow(model, m0, cfg)

        monkeypatch.setattr(diagnostics, "run_flow", counting_run_flow)
        refinement_study(model, uniform, eps0=0.1, pairs=pairs, max_outer=max_outer)
        assert caps == [math.ceil(max_outer / 2 ** (pairs - k)) for k in range(pairs + 1)]

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("name, n, pairs, max_outer, converged", [
        # every level converges early, at 7 / 11 / 20 / 39 steps, so the
        # window comes from converged lengths
        ("linear-4x", 200, 3, 100, True),
        # every level runs all 25 steps
        ("nonlinear-cos", 1000, 6, 25, False),
    ])
    def test_sup_tv_equals_the_uncapped_levels(self, name, n, pairs, max_outer, converged,
                                               variant):
        grid = make_grid(1, n)
        model = build_model(PRESETS[name], grid)
        m0 = normalize(np.ones(grid.shape), grid)
        sup_tv, steps = uncapped_study(model, m0, 0.1, pairs, variant, max_outer)
        assert all(s < max_outer for s in steps) is converged
        study = refinement_study(model, m0, eps0=0.1, pairs=pairs, variant=variant,
                                 max_outer=max_outer)
        assert study.sup_tv == sup_tv

    def test_payoff_failure_past_a_levels_cap_does_not_stop_the_study(
        self, monkeypatch, model, uniform, fail_payoff_solve
    ):
        # with pairs 2 and max_outer 8, level 0 (eps 0.1) runs 2 steps;
        # its 3rd step's payoff solve is the run's 4th
        pairs, max_outer = 2, 8
        sup_tv, _ = uncapped_study(model, uniform, 0.1, pairs, "best_response", max_outer)
        solve = flow.solve_payoff
        fail_payoff_solve(4)
        uncapped = FlowConfig(max_outer=max_outer, fixed_eps=0.1)
        assert run_flow(model, uniform, uncapped).termination == "solver_failed"
        fail_payoff_solve(4)
        failing = flow.solve_payoff

        def level_run_flow(model, m0, cfg):
            # only level 0 solves through the failing payoff
            monkeypatch.setattr(flow, "solve_payoff", failing if cfg.fixed_eps == 0.1 else solve)
            return run_flow(model, m0, cfg)

        monkeypatch.setattr(diagnostics, "run_flow", level_run_flow)
        study = refinement_study(model, uniform, eps0=0.1, pairs=pairs, max_outer=max_outer)
        assert study.sup_tv == sup_tv

    @pytest.mark.parametrize("call, level", [(3, 0), (8, 1)])
    def test_payoff_failure_at_a_levels_last_step_fails_the_study(
        self, model, uniform, fail_payoff_solve, call, level
    ):
        # caps 2 / 4 / 8: level 0 makes solves 1-3, level 1 solves 4-8
        fail_payoff_solve(call)
        with pytest.raises(StudyError, match=f"level {level} .* solver_failed"):
            refinement_study(model, uniform, eps0=0.1, pairs=2, max_outer=8)


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

    def test_payoff_failure_mid_flow_is_the_rows_termination(self, fail_payoff_solve):
        grid = make_grid(1, 200)
        model = build_model(PRESETS["nonlinear-4x"], grid)
        # the third payoff solve is the second trial of the best-response flow
        fail_payoff_solve(3)
        rows = stress_test(model, grid, FlowConfig(), seeds=[0])
        assert [r.termination for r in rows] == ["solver_failed", "converged"]
        assert [r.converged for r in rows] == [False, True]

    def test_all_converge_on_gentle_model(self, grid, model):
        rows = stress_test(model, grid, FlowConfig(), seeds=range(4))
        assert len(rows) == 8
        assert all(r.converged for r in rows)
        assert all(r.final_residual <= grid.spacing for r in rows)


class TestSharedStart:
    """Flows on one model from one start density solve that start once."""

    @pytest.fixture
    def cold_solves(self, monkeypatch):
        """The densities of the harvesting solves that get no warm start."""
        calls = []
        solve = elliptic.solve_nonlinear

        def counting(model, m, theta0=None):
            if theta0 is None:
                calls.append(m)
            return solve(model, m, theta0)

        monkeypatch.setattr(elliptic, "solve_nonlinear", counting)
        return calls

    @staticmethod
    def nonlinear_cos():
        grid = make_grid(1, 1000)
        return grid, build_model(PRESETS["nonlinear-cos"], grid)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_refinement_study_solves_its_start_once(self, cold_solves, variant):
        grid, model = self.nonlinear_cos()
        m0 = normalize(np.ones(grid.shape), grid)
        refinement_study(model, m0, eps0=0.1, pairs=6, variant=variant, max_outer=25)
        assert len(cold_solves) == 1 and cold_solves[0] is m0

    def test_stress_test_solves_each_start_once(self, cold_solves):
        grid, model = self.nonlinear_cos()
        stress_test(model, grid, FlowConfig(max_outer=5), seeds=[0, 1, 2])
        assert [m.values.tobytes() for m in cold_solves] == [
            random_density(seed, grid).values.tobytes() for seed in (0, 1, 2)
        ]

    @staticmethod
    def on_fresh_models(monkeypatch, fresh, results):
        """Run diagnostics' flows on a fresh copy of the model when fresh
        is true, and record their results."""

        def recording(model, m0, cfg):
            result = run_flow(dataclasses.replace(model) if fresh else model, m0, cfg)
            results.append(result)
            return result

        monkeypatch.setattr(diagnostics, "run_flow", recording)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_refinement_levels_match_levels_on_fresh_models(self, monkeypatch, variant):
        grid, model = self.nonlinear_cos()
        m0 = normalize(np.ones(grid.shape), grid)
        studies, runs = [], ([], [])
        for fresh in (False, True):
            self.on_fresh_models(monkeypatch, fresh, runs[fresh])
            studies.append(refinement_study(model, m0, eps0=0.1, pairs=6, variant=variant,
                                            max_outer=25))
        shared, separate = studies
        assert shared.sup_tv == separate.sup_tv
        assert shared.epsilons == separate.epsilons
        assert len(runs[0]) == len(runs[1]) == 7
        for a, b in zip(*runs):
            assert a.records == b.records and a.termination == b.termination
            assert len(a.densities) == len(b.densities)
            assert all(np.array_equal(x, y) for x, y in zip(a.densities, b.densities))
            assert np.array_equal(a.theta.values, b.theta.values)

    def test_stress_rows_match_rows_on_fresh_models(self, monkeypatch):
        grid, model = self.nonlinear_cos()
        cfg = FlowConfig(max_outer=5)
        rows = []
        for fresh in (False, True):
            self.on_fresh_models(monkeypatch, fresh, [])
            rows.append(stress_test(model, grid, cfg, seeds=[0, 1]))
        assert rows[0] == rows[1]


class TestNashCertificate:
    def test_uniform_under_increasing_source(self, grid, model, uniform):
        theta = solve_linear(model, uniform)
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
