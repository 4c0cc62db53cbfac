import re
from functools import partial

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
    elliptic,
    flow,
    integrate,
    make_grid,
    nash_gap,
    normalize,
    random_density,
    redistribute,
    run_flow,
    select_farthest,
    select_lowest_income,
    solve_eikonal,
    solve_payoff,
    tv_distance,
)
from mfgflow.measures import NORMALIZATION_TOL


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
        far, _, _ = select_farthest(uniform, v, 0.1, income=theta)
        low, _, _ = select_lowest_income(uniform, theta, 0.1)
        assert np.abs(far.values - low.values).max() <= 1e-12

    def test_zero_distance_everywhere_takes_the_poorest(self, grid, uniform):
        # all mass on the target: every distance ties at zero and the
        # income tiebreak takes the best-response slice
        v = field(grid, np.zeros(grid.shape))
        theta = field(grid, grid.axes[0])
        far = select_farthest(uniform, v, 0.1, income=theta)
        low = select_lowest_income(uniform, theta, 0.1)
        assert all(np.array_equal(a.values, b.values) for a, b in zip(far[:2], low[:2]))

    def test_one_ulp_gap_takes_the_poorest_with_a_cut(self):
        # a gap of one ulp puts the whole support on the eikonal target;
        # every distance ties at zero and the income tiebreak takes the
        # best-response slice, all of it from the one poorer node
        grid = make_grid(1, 100)
        theta = np.full(grid.shape, 30.68)
        theta[10] = np.nextafter(30.68, 0.0)
        theta[50:] = 25.68
        theta = field(grid, theta)
        m = np.zeros(grid.shape)
        m[5:15] = 1.0
        m = normalize(m, grid)
        gap = nash_gap(theta, m)
        assert gap == 30.68 - np.nextafter(30.68, 0.0)
        v = flow._distance_field(grid, theta, gap)
        assert not v.values[m.values > 0.0].any()
        model = ModelSpec.linear(mu=0.1, P=0.5, f=4.0 * grid.axes[0])
        selection, _ = flow._cut(m, theta, v, model)
        alone = select_farthest(m, v, 0.01, income=theta)
        far_minus, far_plus, _ = select_farthest(m, v, 0.01, income=theta, cut=selection)
        low_minus, low_plus, _ = select_lowest_income(m, theta, 0.01)
        assert np.flatnonzero(far_minus.values).tolist() == [10]
        assert integrate(far_minus.values, grid) == pytest.approx(0.01, abs=1e-15)
        for minus, plus in ((alone[0], alone[1]), (low_minus, low_plus)):
            assert np.array_equal(far_minus.values, minus.values)
            assert np.array_equal(far_plus.values, plus.values)

    def test_two_target_midpoint_band(self, grid, uniform):
        x = grid.axes[0]
        v = field(grid, np.minimum(x, 1.0 - x))
        m_minus, _, _ = select_farthest(uniform, v, 0.1, income=field(grid, x))
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


@pytest.mark.parametrize("eps", [0.0, -0.1, float("nan")])
def test_moves_of_no_mass_rejected(grid, uniform, eps):
    theta = field(grid, grid.axes[0])
    model = ModelSpec.linear(mu=0.1, P=0.5, f=2.0)
    with pytest.raises(ValueError, match="eps must be positive"):
        select_lowest_income(uniform, theta, eps)
    with pytest.raises(ValueError, match="eps must be positive"):
        select_farthest(uniform, theta, eps, income=theta)
    with pytest.raises(ValueError, match="eps must be positive"):
        redistribute(uniform, theta, model, eps)


def one_move(model, m, eps, variant="best_response"):
    """A single flow move of mass eps: one fixed step of run_flow."""
    cfg = FlowConfig(variant=variant, eps0=eps, fixed_eps=eps, max_outer=1)
    return run_flow(model, m, cfg)


class TestFlowStep:
    def test_fixed_point_returned_unchanged(self, grid, uniform):
        # constant setup: theta = (f - m)/P is flat up to solver roundoff,
        # a gap far below the default tolerance tau = dx
        model = ModelSpec.linear(mu=0.1, P=0.5, f=2.0)
        result = one_move(model, uniform, 0.1)
        assert result.final_residual <= grid.spacing
        assert result.termination == "converged" and result.iterations == 0
        assert np.array_equal(result.m.values, uniform.values)

    def test_tv_step_bounded_by_two_eps(self, grid):
        model = ModelSpec.linear(mu=0.1, P=0.5, f=2.0 + np.sin(np.pi * grid.axes[0]))
        rng = np.random.default_rng(8)
        for _ in range(5):
            m = normalize(rng.uniform(0.2, 1.0, grid.shape), grid)
            eps = float(rng.uniform(0.01, 0.3))
            result = one_move(model, m, eps)
            assert result.iterations == 1
            assert result.records[1].tv_step <= 2 * eps + 1e-9
            assert tv_distance(result.m, m) <= 2 * eps + 1e-9

    def test_variants_agree_for_increasing_source(self, grid, uniform):
        model = ModelSpec.linear(mu=0.1, P=0.5, f=4.0 * grid.axes[0])
        m_br = one_move(model, uniform, 0.1, variant="best_response").m
        m_eik = one_move(model, uniform, 0.1, variant="eikonal").m
        assert tv_distance(m_br, m_eik) == 0.0

    def test_rejected_move_names_its_reason(self, grid, uniform):
        # the plateau of f = 4x above the uniform density's payoff holds
        # about 0.26 of mass, less than the requested 0.3
        model = ModelSpec.linear(mu=0.1, P=0.5, f=4.0 * grid.axes[0])
        result = one_move(model, uniform, 0.3)
        assert result.termination == "shortfall" and result.iterations == 0
        assert not result.converged


def assert_stall(grid, m0, iterations, halvings, residual, best):
    """The eikonal flow on linear-sin from m0 ends eps_exhausted after
    these steps and halvings at this residual; the best-response flow
    from m0 converges in `best` steps."""
    model = build_model(PRESETS["linear-sin"], grid)
    result = run_flow(model, m0, FlowConfig(variant="eikonal"))
    assert result.termination == "eps_exhausted" and not result.converged
    assert result.iterations == iterations
    assert sum(record.halvings for record in result.records) == halvings
    assert result.final_residual == pytest.approx(residual, rel=1e-9)
    best_response = run_flow(model, m0, FlowConfig())
    assert best_response.converged and best_response.iterations == best


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
        for tau in (np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                FlowConfig(tau=tau)
        for fixed_eps in (0.0, -1.0, 2.0):
            with pytest.raises(ValueError):
                FlowConfig(fixed_eps=fixed_eps)
        with pytest.raises(ValueError, match="max_outer must be at least 1"):
            FlowConfig(max_outer=0)
        # a bool is not a step size, a tolerance or a count, and a
        # fractional cap is not truncated
        for name in ("eps0", "fixed_eps", "tau"):
            for flag in (True, np.bool_(True)):
                with pytest.raises(ValueError, match=f"{name} must be a number, not a bool"):
                    FlowConfig(**{name: flag})
        for max_outer in (True, np.bool_(True), 2.5, 3.0):
            with pytest.raises(ValueError, match="max_outer must be an integer"):
                FlowConfig(max_outer=max_outer)
        assert FlowConfig(max_outer=np.int64(3)).max_outer == 3

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

    def test_stalled_eikonal_run_ends_eps_exhausted(self, grid):
        # a random start on linear-sin (a stress-1d row): the eikonal flow
        # stalls at 3.3 tau, where no step down to EPS_MIN lowers the gap
        assert_stall(grid, random_density(9, grid), 29, 409, 3.292989667965651e-3, best=18)

    def test_stalled_eikonal_run_on_a_ten_times_finer_grid(self):
        # linear-sin from the uniform density at n = 10^4 stalls at 23 tau
        grid = make_grid(1, 10_000)
        m0 = normalize(np.ones(grid.shape), grid)
        assert_stall(grid, m0, 51, 581, 2.2834319252582613e-3, best=52)

    @pytest.mark.parametrize(
        "variant, steps, residual",
        [("best_response", 11, 7.652489958260874), ("eikonal", 14, 8.074448715012213)],
    )
    def test_randcos2d_flow_outruns_the_newton_step_cap(
        self, monkeypatch, variant, steps, residual
    ):
        # a known failure, recorded as it is: nonlinear-randcos2d seed 5 at
        # 51^2 ends solver_failed after 5 steps, at `residual` tau, because
        # one payoff solve needs 199 Newton steps; a cap of 400 converges
        grid = make_grid(2, 50)
        preset = PRESETS["nonlinear-randcos2d"]
        m0 = normalize(np.ones(grid.shape), grid)
        config = FlowConfig(variant=variant, eps0=preset.default_eps0)
        result = run_flow(build_model(preset, grid, seed=5), m0, config)
        assert (result.termination, result.iterations) == ("solver_failed", 5)
        assert result.final_residual / grid.spacing == pytest.approx(residual, rel=1e-9)
        options = partial(elliptic.NonlinearSolveOptions, max_iters=400)
        monkeypatch.setattr(elliptic, "NonlinearSolveOptions", options)
        result = run_flow(build_model(preset, grid, seed=5), m0, config)
        assert result.converged and result.iterations == steps

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

    @pytest.mark.parametrize(
        "preset", ["linear-4x", "linear-sin", "linear-cos", "nonlinear-sin"]
    )
    def test_all_mass_on_the_target_runs_the_best_response_flow(
        self, grid, uniform, monkeypatch, preset
    ):
        # with every distance zero, the income tiebreak alone orders the
        # eikonal selection, which is then the best-response one
        model = build_model(PRESETS[preset], grid)
        expected = run_flow(model, uniform, FlowConfig())
        monkeypatch.setattr(
            flow, "_distance_field", lambda grid, theta, resid: field(grid, np.zeros(grid.shape))
        )
        result = run_flow(model, uniform, FlowConfig(variant="eikonal"))
        assert result.converged and result.termination == "converged"
        assert result.records == expected.records
        assert np.array_equal(result.m.values, expected.m.values)

    @pytest.mark.parametrize("variant", ["best_response", "eikonal"])
    @pytest.mark.parametrize("offset", [-5e-11, 5e-11])
    def test_start_off_unit_mass_is_renormalized(self, grid, uniform, variant, offset):
        model = build_model(PRESETS["linear-4x"], grid)
        m0 = Density(np.ones(grid.shape) * (1.0 + offset), grid)
        result = run_flow(model, m0, FlowConfig(variant=variant, keep_trajectory=True))
        for m_vals in result.densities[1:]:
            assert abs(integrate(m_vals, grid) - 1.0) <= 1e-14
        assert result.converged
        assert result.iterations == run_flow(model, uniform, FlowConfig(variant=variant)).iterations

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


def comparison_order(key, descending, tiebreak=None):
    """Stable order of the flat nodes by key, then tiebreak, then node."""
    signed = -key.ravel() if descending else key.ravel()
    if tiebreak is None:
        return np.argsort(signed, kind="stable")
    return np.lexsort((tiebreak.ravel(), signed))


def comparison_slice(mass, key, eps, descending, tiebreak=None):
    """Reference slice that finds the taken nodes and the crossing level
    set by comparing every node with the crossing key (and tiebreak)."""
    key_flat, mass_flat = key.ravel(), mass.ravel()
    order = comparison_order(key, descending, tiebreak)
    cum = np.cumsum(mass_flat[order])
    eps_eff = min(eps, cum[-1])
    idx = min(int(np.searchsorted(cum, eps_eff, side="left")), order.size - 1)
    level = key_flat[order[idx]]
    inside = key > level if descending else key < level
    at_level = key == level
    if tiebreak is not None:
        tb_level = tiebreak.ravel()[order[idx]]
        inside = inside | (at_level & (tiebreak < tb_level))
        at_level = at_level & (tiebreak == tb_level)
    mass_inside = float(mass_flat[inside.ravel()].sum())
    mass_level = float(mass_flat[at_level.ravel()].sum())
    frac = 0.0
    if mass_level > 0.0:
        frac = min(max((eps_eff - mass_inside) / mass_level, 0.0), 1.0)
    weights = inside.astype(float)
    weights[at_level] = frac
    return weights, float(level)


def ends_of_order(mass, key, descending, tiebreak=None):
    """eps values that put the crossing at either end of the order: half
    the mass of the first node that holds any, the whole mass, and the
    whole mass plus the slack a Density's unit mass is allowed.  Also
    returns the mask of the nodes that tie with that first node."""
    order = comparison_order(key, descending, tiebreak)
    cum = np.cumsum(mass.ravel()[order])
    first = order[np.flatnonzero(cum > 0.0)[0]]
    run = key.ravel() == key.ravel()[first]
    if tiebreak is not None:
        run &= tiebreak.ravel() == tiebreak.ravel()[first]
    low = cum[cum > 0.0][0] / 2
    return (low, cum[-1], cum[-1] + NORMALIZATION_TOL), run.reshape(key.shape)


def bits(*values):
    return [np.asarray(getattr(v, "values", v), dtype=float).tobytes() for v in values]


def boundary_case(eikonal):
    """An iterate whose run boundaries fall on eps0 / 2^k exactly.

    On 33 nodes scattered at random, theta = 0..9 marks ten runs that
    hold all of m, and theta = 19..10 ten runs that hold the plateau
    heights.  Node masses are dyadic and the runs hold 2^-9, 2^-9, 2^-8,
    ..., 1/2 of each in ascending (descending) theta, so the cumulative
    sums are exact and eps = 2^-(k+1) ends the run theta = 8 - k of the
    selection and theta = 11 + k of the plateau.  The eikonal distance
    ties the runs in pairs, which the income breaks.
    """
    grid = make_grid(1, 32)
    run_mass = np.array([2.0**-9] + [2.0**-k for k in range(9, 0, -1)])
    nodes = iter(np.random.default_rng(7).permutation(grid.num_nodes))
    theta, mass, height = (np.zeros(grid.shape) for _ in range(3))
    for run, size in enumerate([1] * 4 + [2] * 6 + [2] * 7 + [1] * 3):
        at = [next(nodes) for _ in range(size)]
        share = run_mass[run % 10] / size
        if run < 10:
            theta[at], mass[at] = run, share
        else:
            theta[at], height[at] = 29 - run, share
    w = grid.quad_weights
    m, theta = Density(mass / w, grid), field(grid, theta)
    model = ModelSpec.linear(mu=0.1, P=0.5, f=0.5 * 19 + height / w)
    v = field(grid, np.where(theta.values < 10, 5 - theta.values // 2, 0)) if eikonal else None
    return m, theta, v, model, 0.5


def cut_case(name):
    """(m, theta, v, model, eps0) of one iterate; v is None for best response."""
    if name.startswith("boundary"):
        return boundary_case(name.endswith("eikonal"))
    rng = np.random.default_rng(7)
    if name.startswith("2d"):
        grid = make_grid(2, 20)
        model = build_model(PRESETS["linear-gauss2d"], grid)
    else:
        grid = make_grid(1, 1000)
        model = build_model(PRESETS["linear-sin"], grid)
    m = normalize(rng.uniform(0.2, 1.0, grid.shape), grid)
    theta = solve_payoff(model, m)
    v = None
    if name == "constant-theta":
        model = ModelSpec.linear(mu=0.1, P=0.5, f=3.0)
        theta = field(grid, np.full(grid.shape, 2.0))
    elif name == "plateau-tie":
        # theta = min(x, 0.6) tops out on the 401 nodes x >= 0.6, one run
        # of the redistribution order that holds about 0.08 of capacity
        model = ModelSpec.linear(mu=0.1, P=0.5, f=1.5)
        theta = field(grid, np.minimum(grid.axes[0], 0.6))
    elif name.endswith("eikonal"):
        v = flow._distance_field(grid, theta, nash_gap(theta, m))
    return m, theta, v, model, 0.05 if name == "plateau-tie" else 0.2


def tied_case(name):
    """(m, theta, v, model) whose theta and v take few values, so most
    nodes tie, with +0.0 and -0.0 both among the zeros; or a constant
    theta with the distance to one node; or a theta without ties."""
    dim, n = (1, 300) if name.startswith("1d") else (2, 20)
    grid = make_grid(dim, n)
    rng = np.random.default_rng(dim)
    model = ModelSpec.linear(mu=0.1, P=0.5, f=3.0)
    m = normalize(rng.uniform(0.2, 1.0, grid.shape), grid)
    if name.endswith("constant"):
        target = np.zeros(grid.shape, dtype=bool)
        target.flat[grid.num_nodes // 3] = True
        return m, field(grid, np.full(grid.shape, 2.0)), solve_eikonal(grid, target), model
    v = rng.integers(0, 4, grid.shape) * grid.spacing
    if name.endswith("distinct"):
        return m, field(grid, rng.standard_normal(grid.shape)), field(grid, v), model
    theta = rng.integers(-3, 4, grid.shape) * 0.5
    for values in (theta, v):
        values[(values == 0.0) & (rng.random(grid.shape) < 0.5)] = -0.0
    assert np.signbit(theta[theta == 0.0]).any() and not np.signbit(theta[theta == 0.0]).all()
    return m, field(grid, theta), field(grid, v), model


CUT_CASES = (
    "constant-theta", "1d-eikonal", "plateau-tie", "2d-21x21-best_response",
    "2d-21x21-eikonal", "boundary-best_response", "boundary-eikonal",
)


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except RedistributionShortfallError as exc:
        return type(exc)


class TestCut:
    """The cut an iterate builds once gives every halving trial the same
    bits as the plan-free calls and the comparison-based reference."""

    @pytest.mark.parametrize("name", CUT_CASES)
    def test_cut_matches_plan_free_calls(self, name):
        m, theta, v, model, eps0 = cut_case(name)
        grid = m.grid
        selection, plateau = flow._cut(m, theta, v, model)
        if v is None:
            select, key, descending, tiebreak = select_lowest_income, theta, False, None
            sources = (m, theta)
        else:
            select, key, descending, tiebreak = select_farthest, v, True, theta
            sources = (m, v)
            # the distances carry exact ties, which the income breaks
            pairs = np.stack([v.values.ravel(), theta.values.ravel()])
            assert np.unique(v.values).size < np.unique(pairs, axis=1).shape[1]
        kwargs = {} if tiebreak is None else {"income": tiebreak}
        theta_bar = theta.values.max()
        base = model.coefficient("f", grid) - model.coefficient("P", grid) * theta_bar
        tiebreak_values = None if tiebreak is None else tiebreak.values

        def check_selection(eps):
            plan_free = select(*sources, eps, **kwargs)
            cached = select(*sources, eps, cut=selection, **kwargs)
            weights, eta = comparison_slice(
                grid.quad_weights * m.values, key.values, eps, descending, tiebreak_values
            )
            m_minus = m.values * weights
            assert bits(*cached) == bits(*plan_free) == bits(m_minus, m.values - m_minus, eta)
            return cached

        def check_plateau(m_plus, eps):
            plan_free = outcome(redistribute, m_plus, theta, model, eps)
            cached = outcome(redistribute, m_plus, theta, model, eps, cut=plateau)
            if isinstance(cached, type):  # both report the same shortfall
                assert cached is plan_free is RedistributionShortfallError
                return None
            height = np.maximum(base - m_plus.values, 0.0)
            weights, level = comparison_slice(
                grid.quad_weights * height, theta.values, eps, True
            )
            assert bits(*cached) == bits(*plan_free) == bits(height * weights, level, theta_bar)
            return cached

        for k in range(9):
            eps = eps0 / 2**k
            m_minus, m_plus, eta = check_selection(eps)
            if name.startswith("boundary"):
                # eps ends the run theta = 8 - k: it is the crossing run,
                # taken whole, and eta is its key
                run = theta.values == 8 - k
                assert eta == key.values[run][0]
                assert np.array_equal(m_minus.values, m.values * (theta.values <= 8 - k))

            cached = check_plateau(m_plus, eps)
            if cached is None:
                continue
            height = np.maximum(base - m_plus.values, 0.0)
            if name.startswith("boundary"):
                # eps ends the plateau run theta = 11 + k, which is taken whole
                assert cached[1] == 11 + k
                assert np.array_equal(cached[0].values, height * (theta.values >= 11 + k))
            if name == "plateau-tie":
                # the crossing falls inside the top run of 401 tied
                # nodes, and all of them with room take a share
                assert cached[1] == theta_bar
                top = (theta.values == theta_bar) & (height > 0.0)
                assert np.count_nonzero(top) > 200
                assert np.array_equal(cached[0].values > 0.0, top)
            if name == "constant-theta":
                assert np.count_nonzero(cached[0].values) == grid.num_nodes

        # the crossing at the first node of each order that holds mass,
        # at its last one, and past the whole mass by the allowed slack
        mass = grid.quad_weights * m.values
        (low, whole, over), run = ends_of_order(mass, key.values, descending, tiebreak_values)
        m_minus = check_selection(low)[0].values
        assert np.all(run[m_minus > 0.0])  # only the first run gives
        for eps in (whole, over):
            m_minus = check_selection(eps)[0].values
            assert np.abs(m_minus - m.values).max() <= 1e-9 * m.values.max()

        m_plus = select(*sources, eps0, cut=selection, **kwargs)[1]
        height = np.maximum(base - m_plus.values, 0.0)
        mass = grid.quad_weights * height
        (low, whole, over), run = ends_of_order(mass, theta.values, True)
        nu = check_plateau(m_plus, low)[0].values
        assert np.all(run[nu > 0.0])
        # the shortfall test allows the plateau a relative slack of 1e-12
        for eps in (whole, min(over, whole * (1.0 + 1e-13))):
            nu = check_plateau(m_plus, eps)[0].values
            assert np.abs(nu - height).max() <= 1e-9 * height.max()
        # and no more: past it, the cut and the call alone both report a
        # shortfall, with the plateau more or less than 256 nodes long
        assert check_plateau(m_plus, whole / (1.0 - 2e-12)) is None

    def test_cut_of_another_iterate_rejected(self, grid, uniform):
        model = ModelSpec.linear(mu=0.1, P=0.5, f=4.0 * grid.axes[0])
        theta = solve_payoff(model, uniform)
        selection, plateau = flow._cut(uniform, theta, None, model)
        other = field(grid, theta.values.copy())
        with pytest.raises(ValueError, match="another iterate"):
            select_lowest_income(uniform, other, 0.1, cut=selection)
        with pytest.raises(ValueError, match="another iterate"):
            redistribute(uniform, other, model, 0.1, cut=plateau)
        with pytest.raises(ValueError, match="another iterate"):
            select_farthest(uniform, theta, 0.1, income=theta, cut=selection)

    def test_part_of_the_wrong_kind_rejected(self, grid, uniform):
        # the selections take the cut's selection part, redistribute its
        # plateau part; the other part, or the whole pair, is refused
        model = ModelSpec.linear(mu=0.1, P=0.5, f=4.0 * grid.axes[0])
        theta = solve_payoff(model, uniform)
        cut = selection, plateau = flow._cut(uniform, theta, None, model)
        for wrong in (plateau, cut):
            with pytest.raises(TypeError, match="cut must be a _Selection"):
                select_lowest_income(uniform, theta, 0.1, cut=wrong)
            with pytest.raises(TypeError, match="cut must be a _Selection"):
                select_farthest(uniform, theta, 0.1, income=theta, cut=wrong)
        for wrong in (selection, cut):
            with pytest.raises(TypeError, match="cut must be a _Plateau"):
                redistribute(uniform, theta, model, 0.1, cut=wrong)

    @pytest.mark.parametrize(
        "name", ["1d-ties", "2d-ties", "1d-constant", "2d-constant", "1d-distinct"]
    )
    def test_orders_match_the_reference_sorts(self, name, monkeypatch):
        # both orders come from one ascending sort of theta; the cut and
        # the calls alone must give the nodes, keys and ties of the
        # direct sorts, with -0.0 and 0.0 tied as the comparisons tie them
        m, theta, v, model = tied_case(name)
        income, far = theta.values.ravel(), -v.values.ravel()
        expected = {
            "income": (np.argsort(income, kind="stable"), income, None, False),
            "distance": (np.lexsort((income, far)), far, income, True),
            "plateau": (np.argsort(-income, kind="stable"), -income, None, True),
        }
        built = []

        def recorded(fn):
            def wrapper(*args):
                built.append(fn(*args))
                return built[-1]

            return wrapper

        for helper in ("_selection", "_plateau"):
            monkeypatch.setattr(flow, helper, recorded(getattr(flow, helper)))
        parts = {"income": [], "distance": [], "plateau": []}
        for kind, v_or_none in (("income", None), ("distance", v)):
            selection, plateau = flow._cut(m, theta, v_or_none, model)
            parts[kind].append(selection)
            parts["plateau"].append(plateau)
        select_lowest_income(m, theta, 0.1)
        parts["income"].append(built[-1])
        select_farthest(m, v, 0.1, income=theta)
        parts["distance"].append(built[-1])
        outcome(redistribute, m, theta, model, 0.1)
        parts["plateau"].append(built[-1])
        for kind, (nodes, keys, ties, descending) in expected.items():
            assert len(parts[kind]) == (3 if kind == "plateau" else 2)
            for part in parts[kind]:
                order = part.order
                assert np.array_equal(order.nodes, nodes)
                assert bits(order.keys) == bits(keys[nodes])
                if ties is None:
                    assert order.ties is None
                else:
                    assert bits(order.ties) == bits(ties[nodes])
                assert order.descending is descending

    @pytest.mark.parametrize("variant", ["best_response", "eikonal"])
    def test_one_sort_per_iterate(self, grid, uniform, monkeypatch, variant):
        sorts, calls = [], []

        def recording(fn, log, letter):
            def wrapper(*args, **kwargs):
                try:
                    out = fn(*args, **kwargs)
                except RedistributionShortfallError:
                    log.append(letter.lower())
                    raise
                log.append(letter)
                return out

            return wrapper

        monkeypatch.setattr(flow, "_ascending", recording(flow._ascending, sorts, "O"))
        # the four functions a per-layer trace wraps, called through this
        # module's globals; the other variant's selection must not run
        select = "select_lowest_income" if variant == "best_response" else "select_farthest"
        other = "select_farthest" if variant == "best_response" else "select_lowest_income"
        letters = {select: "S", other: "X", "redistribute": "R", "solve_payoff": "P",
                   "nash_gap": "N"}
        for name, letter in letters.items():
            monkeypatch.setattr(flow, name, recording(getattr(flow, name), calls, letter))
        preset = PRESETS["linear-sin"]
        cfg = FlowConfig(variant=variant, eps0=preset.default_eps0)
        result = run_flow(build_model(preset, grid), uniform, cfg)
        assert result.termination == "converged"
        # one initial solve and gap; then per trial one selection and one
        # redistribution, which succeeds (R) or reports a shortfall (r),
        # and one solve and one gap only after a success with no overlap
        log = "".join(calls)
        assert re.fullmatch(r"PN(S(r|R(PN)?))*", log), log
        trials = log.count("S")
        assert re.search(r"R(?!P)", log)  # some trials were rejected for overlap
        # every accepted step left an iterate that took trials; the final
        # iterate met the tolerance and took none
        iterates = result.iterations
        assert trials > iterates + 10  # halvings happened
        assert len(sorts) == iterates
