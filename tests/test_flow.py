import numpy as np
import pytest

from mfgflow import (
    PRESETS,
    Density,
    FlowConfig,
    ModelSpec,
    RedistributionShortfallError,
    ScalarField,
    SolverError,
    build_model,
    flow_step,
    integrate,
    make_grid,
    nash_gap,
    normalize,
    redistribute,
    run_flow,
    select_farthest,
    select_lowest_income,
    tv_distance,
)


@pytest.fixture(scope="module")
def grid():
    return make_grid(1, 1000)


@pytest.fixture(scope="module")
def uniform(grid):
    return normalize(np.ones(grid.shape), grid)


def field(grid, values):
    return ScalarField(np.asarray(values, dtype=float), grid)


def brute_force_lowest(grid, m_vals, theta_vals, eps):
    """Level-scan oracle: walk candidate levels in income order and pick
    the one whose cumulative mass crosses eps, splitting the crossing
    level proportionally."""
    w = grid.quad_weights
    taken = np.zeros_like(m_vals)
    remaining = eps
    for level in np.unique(theta_vals):
        sel = theta_vals == level
        mass = float((w * m_vals)[sel].sum())
        if mass <= 0.0:
            continue
        if mass < remaining - 1e-14:
            taken[sel] = m_vals[sel]
            remaining -= mass
        else:
            taken[sel] = m_vals[sel] * (remaining / mass)
            remaining = 0.0
            break
    return taken


class TestNashGap:
    def test_constant_payoff(self, grid, uniform):
        assert nash_gap(field(grid, np.full(grid.shape, 3.0)), uniform) == 0.0

    def test_uniform_support_full_range(self, grid, uniform):
        theta = field(grid, grid.axes[0])
        assert nash_gap(theta, uniform) == pytest.approx(1.0, abs=grid.spacing)

    def test_min_over_support_only(self, grid):
        x = grid.axes[0]
        m = normalize((x >= 0.5).astype(float), grid)
        # direct-scan oracle: min of theta over {x >= 0.5} is 0.5
        assert nash_gap(field(grid, x), m) == pytest.approx(0.5, abs=2 * grid.spacing)

    def test_empty_support_raises(self, grid):
        with pytest.raises(ValueError, match="empty support"):
            nash_gap(field(grid, grid.axes[0]), field(grid, np.zeros(grid.shape)))


class TestSelectLowestIncome:
    def test_monotone_income(self, grid, uniform):
        theta = field(grid, grid.axes[0])
        m_minus, m_plus, eta = select_lowest_income(uniform, theta, 0.1)
        m_minus, m_plus = m_minus.values, m_plus.values
        assert eta == pytest.approx(0.1, abs=2 * grid.spacing)
        assert integrate(m_minus, grid) == pytest.approx(0.1, abs=1e-10)
        assert grid.axes[0][m_minus > 0].max() <= 0.1 + 2 * grid.spacing
        assert (m_plus >= 0).all()
        assert np.allclose(m_minus + m_plus, uniform.values)

    def test_constant_income_proportional(self, grid, uniform):
        theta = field(grid, np.full(grid.shape, 2.0))
        m_minus, _, _ = select_lowest_income(uniform, theta, 0.3)
        assert np.allclose(m_minus.values, 0.3 * uniform.values)

    def test_cdf_inverse_oracle(self, grid):
        # density 2x, income x: mass below level eta is eta^2, so the
        # 0.25 quantile sits at eta = 0.5
        m = normalize(4.0 * grid.axes[0], grid)
        theta = field(grid, grid.axes[0])
        m_minus, _, eta = select_lowest_income(m, theta, 0.25)
        assert eta == pytest.approx(0.5, abs=2 * grid.spacing)
        assert integrate(m_minus.values, grid) == pytest.approx(0.25, abs=1e-10)

    def test_rejects_overdraw(self, grid, uniform):
        theta = field(grid, grid.axes[0])
        with pytest.raises(ValueError, match="exceeds available"):
            select_lowest_income(uniform, theta, 1.5)

    def test_whole_mass_allowed(self, grid, uniform):
        theta = field(grid, grid.axes[0])
        # Density accepts a mass within NORMALIZATION_TOL of 1, so the
        # unit slice must also be takeable from a density short of it
        short = Density(uniform.values * (1.0 - 5e-11), grid)
        for m in (uniform, short):
            m_minus, m_plus, _ = select_lowest_income(m, theta, 1.0)
            assert integrate(m_minus.values, grid) == pytest.approx(1.0, abs=1e-10)
            assert np.abs(m_plus.values).max() <= 1e-12

    def test_matches_brute_force_level_scan(self, grid):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            m = normalize(rng.uniform(0.0, 1.0, grid.shape), grid)
            theta = field(grid, rng.normal(size=grid.shape))
            eps = float(rng.uniform(0.01, 0.9))
            m_minus, _, _ = select_lowest_income(m, theta, eps)
            oracle = brute_force_lowest(grid, m.values, theta.values, eps)
            assert np.abs(m_minus.values - oracle).max() <= 1e-10


class TestSelectFarthest:
    def test_monotone_duality_with_income(self, grid, uniform):
        v = field(grid, 1.0 - grid.axes[0])
        theta = field(grid, grid.axes[0])
        far, _, _ = select_farthest(uniform, v, 0.1)
        low, _, _ = select_lowest_income(uniform, theta, 0.1)
        assert np.abs(far.values - low.values).max() <= 1e-12

    def test_zero_distance_everywhere_is_empty(self, grid, uniform):
        v = field(grid, np.zeros(grid.shape))
        with pytest.raises(ValueError, match="already sits on the target set"):
            select_farthest(uniform, v, 0.1)

    def test_two_target_midpoint_band(self, grid, uniform):
        x = grid.axes[0]
        v = field(grid, np.minimum(x, 1.0 - x))
        m_minus, _, _ = select_farthest(uniform, v, 0.1)
        sel = x[m_minus.values > 0]
        assert sel.min() >= 0.45 - 2 * grid.spacing
        assert sel.max() <= 0.55 + 2 * grid.spacing
        assert integrate(m_minus.values, grid) == pytest.approx(0.1, abs=1e-10)

    def test_income_tiebreak_prefers_poorer(self, grid, uniform):
        x = grid.axes[0]
        v = field(grid, np.minimum(x, 1.0 - x))
        theta = field(grid, x)  # left side poorer at equal distance
        m_minus, _, _ = select_farthest(uniform, v, 0.02, income=theta)
        weights_left = m_minus.values[: grid.n // 2 + 1].sum()
        weights_right = m_minus.values[grid.n // 2 + 1 :].sum()
        assert weights_left > weights_right


class TestRedistribute:
    def test_constant_linear_plateau(self, grid):
        model = ModelSpec.linear(mu=0.1, P=0.5, f=2.0)
        theta = field(grid, np.full(grid.shape, 2.0))
        nu, level, theta_bar = redistribute(
            field(grid, np.zeros(grid.shape)), theta, model, 0.25
        )
        assert theta_bar == 2.0
        # height f - P theta_bar = 1 everywhere; one big tie level, so
        # the slice is the proportional film 0.25 * 1
        assert np.allclose(nu.values, 0.25)
        assert integrate(nu.values, grid) == pytest.approx(0.25, abs=1e-10)

    def test_constant_nonlinear_height(self, grid):
        model = ModelSpec.nonlinear(mu=0.1, K=4.0)
        theta = field(grid, np.full(grid.shape, 3.0))
        nu, _, theta_bar = redistribute(field(grid, np.zeros(grid.shape)), theta, model, 0.5)
        assert theta_bar == 3.0
        assert np.allclose(nu.values, 0.5 * (4.0 - 3.0))

    def test_matches_brute_force_level_scan(self, grid):
        from mfgflow import solve_linear

        model = ModelSpec.linear(mu=0.1, P=0.5, f=4.0 * grid.axes[0])
        m0 = normalize(np.ones(grid.shape), grid)
        theta = solve_linear(model, m0)
        m_minus, m_plus, _ = select_lowest_income(m0, theta, 0.1)
        nu, level, theta_bar = redistribute(m_plus, theta, model, 0.1)
        height = np.maximum(4.0 * grid.axes[0] - 0.5 * theta_bar - m_plus.values, 0.0)
        oracle = brute_force_lowest(grid, height, -theta.values, 0.1)
        assert np.abs(nu.values - oracle).max() <= 1e-10
        assert integrate(nu.values, grid) == pytest.approx(0.1, abs=1e-10)

    def test_shortfall_reported(self, grid):
        model = ModelSpec.linear(mu=0.1, P=0.5, f=2.0)
        theta = field(grid, np.full(grid.shape, 2.0))
        # capacity is exactly 1, so 1.5 cannot be absorbed
        with pytest.raises(RedistributionShortfallError):
            redistribute(field(grid, np.zeros(grid.shape)), theta, model, 1.5)


class TestFlowStep:
    def test_fixed_point_returned_unchanged(self, grid, uniform):
        # constant setup: theta = (f - m)/P is flat up to solver roundoff
        model = ModelSpec.linear(mu=0.1, P=0.5, f=2.0)
        m_next, _, gap = flow_step(uniform, model, 0.1)
        assert gap <= 1e-10
        assert m_next is uniform

    def test_tv_step_bounded_by_two_eps(self, grid):
        model = ModelSpec.linear(mu=0.1, P=0.5, f=2.0 + np.sin(np.pi * grid.axes[0]))
        rng = np.random.default_rng(8)
        for _ in range(5):
            m = normalize(rng.uniform(0.2, 1.0, grid.shape), grid)
            eps = float(rng.uniform(0.01, 0.3))
            m_next, _, _ = flow_step(m, model, eps)
            assert tv_distance(m_next, m) <= 2 * eps + 1e-9

    def test_variants_agree_for_increasing_source(self, grid, uniform):
        model = ModelSpec.linear(mu=0.1, P=0.5, f=4.0 * grid.axes[0])
        m_br, _, _ = flow_step(uniform, model, 0.1, variant="best_response")
        m_eik, _, _ = flow_step(uniform, model, 0.1, variant="eikonal")
        assert tv_distance(m_br, m_eik) <= 1e-9

    def test_rejected_move_names_its_reason(self, grid, uniform):
        # the plateau of f = 4x above the uniform density's payoff holds
        # about 0.26 of mass, less than the requested 0.3
        model = ModelSpec.linear(mu=0.1, P=0.5, f=4.0 * grid.axes[0])
        with pytest.raises(RuntimeError, match="rejected: shortfall"):
            flow_step(uniform, model, 0.3)


class TestRunFlow:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            FlowConfig(variant="nope")
        with pytest.raises(ValueError):
            FlowConfig(eps0=0.0)
        with pytest.raises(ValueError):
            FlowConfig(eps0=2.0)
        with pytest.raises(ValueError):
            FlowConfig(tau=-1.0)
        for fixed_eps in (0.0, -1.0, 2.0):
            with pytest.raises(ValueError):
                FlowConfig(fixed_eps=fixed_eps)

    def test_equilibrium_start_takes_no_steps(self, grid, uniform):
        model = ModelSpec.linear(mu=0.1, P=0.5, f=2.0)
        result = run_flow(model, uniform, FlowConfig())
        assert result.converged
        assert result.iterations == 0
        assert result.termination == "converged"

    @pytest.mark.parametrize("variant", ["best_response", "eikonal"])
    def test_linear_4x_converges_in_band(self, grid, uniform, variant):
        model = ModelSpec.linear(mu=0.1, P=0.5, f=4.0 * grid.axes[0])
        result = run_flow(model, uniform, FlowConfig(variant=variant))
        assert result.converged
        assert 5 <= result.iterations <= 50
        assert result.final_residual <= grid.spacing

    def test_invariants_along_run(self, grid, uniform):
        model = ModelSpec.linear(mu=0.1, P=0.5, f=4.0 * grid.axes[0])
        cfg = FlowConfig(keep_trajectory=True)
        result = run_flow(model, uniform, cfg)
        for m_vals in result.densities:
            assert m_vals.min() >= 0.0
            assert integrate(m_vals, grid) == pytest.approx(1.0, abs=1e-9)
        resids = [r.residual for r in result.records]
        assert all(b < a for a, b in zip(resids, resids[1:]))
        for rec, prev, cur in zip(
            result.records[1:], result.densities, result.densities[1:]
        ):
            step = float(np.sum(grid.quad_weights * np.abs(cur - prev)))
            assert step <= 2 * rec.eps + 1e-9
            assert rec.tv_step == pytest.approx(step, abs=1e-12)

    def test_fixed_eps_disables_adaptivity(self, grid, uniform):
        model = ModelSpec.linear(
            mu=0.1, P=0.5, f=15.0 * (np.cos(2 * np.pi * grid.axes[0]) + 1.0)
        )
        result = run_flow(model, uniform, FlowConfig(fixed_eps=1.0, max_outer=30))
        assert not result.converged
        assert result.iterations == 30
        assert all(r.eps == 1.0 for r in result.records[1:])
        resids = [r.residual for r in result.records]
        assert any(b > a for a, b in zip(resids, resids[1:]))

    def test_fixed_unit_step_from_density_short_of_unit_mass(self, grid):
        model = ModelSpec.linear(
            mu=0.1, P=0.5, f=15.0 * (np.cos(2 * np.pi * grid.axes[0]) + 1.0)
        )
        m0 = Density(np.ones(grid.shape) * (1.0 - 5e-11), grid)
        result = run_flow(model, m0, FlowConfig(fixed_eps=1.0, max_outer=5))
        assert result.termination == "max_outer"
        assert result.iterations == 5

    def test_solver_failure_mid_flow_is_reported(self, fail_payoff_solve):
        grid = make_grid(1, 200)
        model = build_model(PRESETS["linear-sin"], grid)
        m0 = normalize(np.ones(grid.shape), grid)
        fail_payoff_solve(4)
        result = run_flow(model, m0, FlowConfig(keep_trajectory=True))
        assert result.termination == "solver_failed"
        assert not result.converged
        assert result.iterations == 2
        assert len(result.densities) == 3
        assert np.array_equal(result.m.values, result.densities[-1])

    def test_initial_solver_failure_raises(self, grid, uniform, fail_payoff_solve):
        model = ModelSpec.linear(mu=0.1, P=0.5, f=4.0 * grid.axes[0])
        fail_payoff_solve(1)
        with pytest.raises(SolverError):
            run_flow(model, uniform, FlowConfig())

    def test_trajectories_of_variants_coincide_for_increasing_source(
        self, grid, uniform
    ):
        model = ModelSpec.linear(mu=0.1, P=0.5, f=4.0 * grid.axes[0])
        runs = {}
        for variant in ("best_response", "eikonal"):
            runs[variant] = run_flow(
                model, uniform, FlowConfig(variant=variant, keep_trajectory=True)
            )
        a, b = runs["best_response"].densities, runs["eikonal"].densities
        for step in range(min(len(a), len(b))):
            d = float(np.sum(grid.quad_weights * np.abs(a[step] - b[step])))
            assert d <= 2 * grid.spacing
