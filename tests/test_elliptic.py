import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from mfgflow import (
    FlowConfig,
    ModelSpec,
    NonlinearSolveOptions,
    PRESETS,
    ScalarField,
    SolverError,
    TrivialBranchWarning,
    build_model,
    make_grid,
    integrate,
    normalize,
    pde_residual,
    random_density,
    run_flow,
    solve_linear,
    solve_nonlinear,
    solve_payoff,
    w1_distance_1d,
)
from mfgflow import elliptic
from mfgflow.elliptic import neumann_laplacian


def uniform(grid):
    return normalize(np.ones(grid.shape), grid)


def ones(grid):
    return ScalarField(np.ones(grid.shape), grid)


def loop_stencil_residual(model, m_vals, theta, grid):
    """Independent residual oracle: plain loops, explicit reflection."""
    mu = model.mu
    th = theta.values
    if grid.dim == 1:
        n, dx = grid.n, grid.spacing
        P = np.broadcast_to(np.asarray(model.P, dtype=float), grid.shape)
        f = np.broadcast_to(np.asarray(model.f, dtype=float), grid.shape)
        worst = 0.0
        for i in range(n + 1):
            left = th[i - 1] if i > 0 else th[1]
            right = th[i + 1] if i < n else th[n - 1]
            lap = (left - 2 * th[i] + right) / dx**2
            worst = max(worst, abs(-mu * lap + P[i] * th[i] - (f[i] - m_vals[i])))
        return worst
    n, dx = grid.n, grid.spacing
    P = np.broadcast_to(np.asarray(model.P, dtype=float), grid.shape)
    f = np.broadcast_to(np.asarray(model.f, dtype=float), grid.shape)
    worst = 0.0
    for i in range(n + 1):
        for j in range(n + 1):
            left = th[i - 1, j] if i > 0 else th[1, j]
            right = th[i + 1, j] if i < n else th[n - 1, j]
            down = th[i, j - 1] if j > 0 else th[i, 1]
            up = th[i, j + 1] if j < n else th[i, n - 1]
            lap = (left + right + down + up - 4 * th[i, j]) / dx**2
            worst = max(
                worst,
                abs(-mu * lap + P[i, j] * th[i, j] - (f[i, j] - m_vals[i, j])),
            )
    return worst


class TestModelSpec:
    def test_requires_positive_mu(self):
        with pytest.raises(ValueError):
            ModelSpec.linear(mu=0.0, P=0.5, f=1.0)

    @pytest.mark.parametrize(
        "mu", [np.full(11, 0.1), "0.1", np.array([0.1]), True],
        ids=["array", "string", "one-element-array", "bool"],
    )
    def test_mu_must_be_a_real_number(self, mu):
        with pytest.raises(ValueError, match="mu must be a real number"):
            ModelSpec.linear(mu=mu, P=0.5, f=1.0)

    @pytest.mark.parametrize("mu", [np.float64(0.1), 1], ids=["float64", "int"])
    def test_mu_accepts_numpy_and_integer_scalars(self, mu):
        assert ModelSpec.nonlinear(mu=mu, K=1.0).mu == mu

    def test_rejects_negative_coefficients(self):
        with pytest.raises(ValueError):
            ModelSpec.linear(mu=0.1, P=-0.5, f=1.0)

    def test_rejects_identically_zero(self):
        with pytest.raises(ValueError):
            ModelSpec.linear(mu=0.1, P=0.0, f=1.0)
        with pytest.raises(ValueError):
            ModelSpec.linear(mu=0.1, P=0.5, f=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_coefficients(self, bad):
        field = np.ones(11)
        field[3] = bad
        with pytest.raises(ValueError):
            ModelSpec.linear(mu=bad, P=0.5, f=1.0)
        with pytest.raises(ValueError):
            ModelSpec.linear(mu=0.1, P=field, f=1.0)
        with pytest.raises(ValueError):
            ModelSpec.linear(mu=0.1, P=0.5, f=field)
        with pytest.raises(ValueError):
            ModelSpec.nonlinear(mu=0.1, K=field)

    def test_nonlinear_needs_k(self):
        with pytest.raises(ValueError):
            ModelSpec(kind="nonlinear", mu=0.1)

    @pytest.mark.parametrize(
        "K", [-1.0, 0.0, -np.ones(11), np.linspace(-1.0, 0.0, 11)],
        ids=["-1", "0", "negative-array", "ramp-to-0"],
    )
    def test_rejects_nonpositive_capacity(self, K):
        # theta == 0 is then the only solution
        with pytest.raises(ValueError, match="K must be positive somewhere"):
            ModelSpec.nonlinear(mu=0.1, K=K)

    def test_options_validation(self):
        with pytest.raises(ValueError):
            NonlinearSolveOptions(grad_tol=0.0)
        with pytest.raises(ValueError):
            NonlinearSolveOptions(max_iters=0)
        with pytest.raises(ValueError):
            NonlinearSolveOptions(init_floor=-1.0)


class TestLinearSolve:
    def test_constant_solution(self):
        grid = make_grid(1, 500)
        model = ModelSpec.linear(mu=0.1, P=0.5, f=2.0)
        theta = solve_linear(model, uniform(grid))
        assert np.abs(theta.values - 2.0).max() <= 1e-9

    def test_constant_solution_2d(self):
        grid = make_grid(2, 40)
        model = ModelSpec.linear(mu=0.1, P=0.5, f=2.0)
        theta = solve_linear(model, ones(grid))
        assert np.abs(theta.values - 2.0).max() <= 1e-9

    def test_manufactured_solution_second_order(self):
        # theta = 2 + cos(pi x) solves the PDE with a compatible f that
        # stays nonnegative; error should drop by 4 per refinement
        errors = []
        for n in (100, 200, 400):
            grid = make_grid(1, n)
            x = grid.axes[0]
            f = 3.0 + (1.0 + 0.1 * np.pi**2) * np.cos(np.pi * x)
            model = ModelSpec.linear(mu=0.1, P=1.0, f=f)
            theta = solve_linear(model, uniform(grid))
            errors.append(np.abs(theta.values - (2.0 + np.cos(np.pi * x))).max())
        orders = [np.log2(errors[k] / errors[k + 1]) for k in range(2)]
        assert min(orders) >= 1.9

    def test_manufactured_solution_2d(self):
        errors = []
        for n in (40, 80):
            grid = make_grid(2, n)
            X, Y = grid.coords()
            cc = np.cos(np.pi * X) * np.cos(np.pi * Y)
            f = 3.0 + (1.0 + 0.2 * np.pi**2) * cc
            model = ModelSpec.linear(mu=0.1, P=1.0, f=f)
            theta = solve_linear(model, ones(grid))
            errors.append(np.abs(theta.values - (2.0 + cc)).max())
        assert errors[0] / errors[1] >= 3.0

    def test_increasing_source_maximum_at_right_end(self):
        grid = make_grid(1, 1000)
        model = ModelSpec.linear(mu=0.1, P=0.5, f=4.0 * grid.axes[0])
        theta = solve_linear(model, uniform(grid))
        assert np.argmax(theta.values) == grid.n

    @pytest.mark.parametrize("n", [10_000, 100_000])
    def test_fine_grid_solves(self, n):
        # the residual of a correct solve grows like ||A|| ~ 4 mu / dx^2
        # times roundoff; these grids used to be rejected by a residual
        # test against the right-hand side scale alone
        fine, coarse = make_grid(1, n), make_grid(1, n // 10)
        model = ModelSpec.linear(mu=0.1, P=0.5, f=2.0 + np.cos(np.pi * fine.axes[0]))
        theta = solve_linear(model, uniform(fine)).values
        model_c = ModelSpec.linear(mu=0.1, P=0.5, f=2.0 + np.cos(np.pi * coarse.axes[0]))
        theta_c = solve_linear(model_c, uniform(coarse)).values
        # second-order discretization: the coarse solution agrees on its
        # nodes up to O(dx_coarse^2)
        assert np.abs(theta[::10] - theta_c).max() <= 10 * coarse.spacing**2

    @pytest.mark.parametrize("dim,n", [(1, 1000), (2, 30)], ids=["1d", "2d"])
    def test_corrupted_factorization_raises(self, monkeypatch, dim, n):
        grid = make_grid(dim, n)
        model = ModelSpec.linear(mu=0.1, P=0.5, f=4.0 * grid.coords()[0])
        # factor an operator whose diagonal is off by 1e-6: the solve then
        # misses the right-hand side by about 1e-6 * |theta|, far above
        # the roundoff level of a correct solve
        if dim == 1:  # LAPACK's tridiagonal factorization
            dgttrf = elliptic.dgttrf

            def corrupted_dgttrf(dl, d, du):
                return dgttrf(dl, d + 1e-6, du)

            monkeypatch.setattr(elliptic, "dgttrf", corrupted_dgttrf)
        else:
            def corrupted_splu(A, **options):
                return splu(A + 1e-6 * sp.identity(A.shape[0], format="csc"), **options)

            monkeypatch.setattr(elliptic, "splu", corrupted_splu)
        with pytest.raises(SolverError, match="exceeds tolerance"):
            solve_linear(model, uniform(grid))

    def test_1d_solve_matches_dense_solve(self):
        grid = make_grid(1, 400)
        x = grid.axes[0]
        model = ModelSpec.linear(mu=0.1, P=0.5 + x, f=15.0 * (np.cos(2.0 * np.pi * x) + 1.0))
        m = random_density(3, grid)
        theta = solve_linear(model, m).values
        system = elliptic._operators(model, grid).system
        want = np.linalg.solve(system.toarray(), model.f - m.values)
        assert np.abs(theta - want).max() <= 1e-12 * np.abs(want).max()

    def test_1d_zero_pivot_raises(self, monkeypatch):
        def singular(dl, d, du):
            return dl, d, du, du[:-1], np.arange(1, d.size + 1, dtype=np.int32), 3

        monkeypatch.setattr(elliptic, "dgttrf", singular)
        grid = make_grid(1, 50)
        model = ModelSpec.linear(mu=0.1, P=0.5, f=4.0 * grid.axes[0])
        with pytest.raises(SolverError, match="payoff operator is singular"):
            solve_linear(model, uniform(grid))

    def test_superposition_in_m(self):
        grid = make_grid(1, 300)
        model = ModelSpec.linear(mu=0.1, P=0.5, f=2.0 + grid.axes[0])
        rng = np.random.default_rng(11)
        for alpha in (0.25, 0.5, 0.9):
            m1 = normalize(rng.uniform(0.1, 1.0, grid.shape), grid)
            m2 = normalize(rng.uniform(0.1, 1.0, grid.shape), grid)
            mix = normalize(alpha * m1.values + (1 - alpha) * m2.values, grid)
            t1 = solve_linear(model, m1).values
            t2 = solve_linear(model, m2).values
            tmix = solve_linear(model, mix).values
            assert np.abs(tmix - (alpha * t1 + (1 - alpha) * t2)).max() <= 1e-10


@pytest.fixture(scope="module")
def calibration():
    grid = make_grid(1, 200)
    A = (
        0.1 * neumann_laplacian(grid) + sp.diags(np.full(grid.num_nodes, 0.5))
    ).tocsc()
    lu = splu(A)
    # Green kernel columns: theta response to a unit mass at node j
    G = np.column_stack(
        [lu.solve(np.eye(grid.num_nodes)[:, j]) for j in range(grid.num_nodes)]
    )
    G = G / grid.quad_weights[None, :]
    lip = np.abs(np.diff(G, axis=1)).max() / grid.spacing
    return grid, float(G.max()), float(lip)


class TestLinearBounds:

    def test_lipschitz_in_w1(self, calibration):
        grid, _, lip = calibration
        model = ModelSpec.linear(mu=0.1, P=0.5, f=1.0)
        for seed in range(100):
            m1 = random_density(seed, grid)
            m2 = random_density(seed + 1000, grid)
            gap = np.abs(
                solve_linear(model, m1).values
                - solve_linear(model, m2).values
            ).max()
            assert gap <= 1.1 * lip * w1_distance_1d(m1, m2)

    def test_uniform_bound(self, calibration):
        grid, gmax, _ = calibration
        f = 1.0 + grid.axes[0] ** 2
        model = ModelSpec.linear(mu=0.1, P=0.5, f=f)
        bound = gmax * (integrate(f, grid) + 1.0)
        for seed in range(50):
            m = random_density(seed, grid)
            assert np.abs(solve_linear(model, m).values).max() <= bound

    def test_geodesic_convexity_of_sup_norm(self):
        grid = make_grid(1, 200)
        model = ModelSpec.linear(mu=0.1, P=0.5, f=2.0 + np.sin(np.pi * grid.axes[0]))
        rng = np.random.default_rng(5)
        for _ in range(100):
            m0 = normalize(rng.uniform(0.02, 1.0, grid.shape), grid)
            m1 = normalize(rng.uniform(0.02, 1.0, grid.shape), grid)
            n0 = np.abs(solve_linear(model, m0).values).max()
            n1 = np.abs(solve_linear(model, m1).values).max()
            t = rng.choice([0.25, 0.5, 0.75])
            mix = normalize((1 - t) * m0.values + t * m1.values, grid)
            nm = np.abs(solve_linear(model, mix).values).max()
            assert nm <= (1 - t) * n0 + t * n1 + 1e-12


class TestNonlinearSolve:
    def test_constant_interior_equilibrium(self):
        grid = make_grid(1, 400)
        model = ModelSpec.nonlinear(mu=0.1, K=4.0)
        theta = solve_nonlinear(model, uniform(grid))
        assert np.abs(theta.values - 3.0).max() <= 1e-6

    def test_carrying_capacity_without_players(self):
        grid = make_grid(1, 400)
        model = ModelSpec.nonlinear(mu=0.1, K=4.0)
        zero_players = ScalarField(np.zeros(grid.shape), grid)
        theta = solve_nonlinear(model, zero_players)
        assert np.abs(theta.values - 4.0).max() <= 1e-6

    def test_linear_capacity_nontrivial_branch(self):
        grid = make_grid(1, 1000)
        model = ModelSpec.nonlinear(mu=0.1, K=4.0 * grid.axes[0])
        theta = solve_nonlinear(model, uniform(grid))
        assert integrate(theta.values, grid) > 0.0
        assert theta.values.min() >= 0.0
        assert pde_residual(model, uniform(grid), theta) <= 1e-5

    def test_warm_start_matches_cold(self):
        grid = make_grid(1, 300)
        model = ModelSpec.nonlinear(mu=0.1, K=4.0 * grid.axes[0])
        m = uniform(grid)
        cold = solve_nonlinear(model, m)
        warm = solve_nonlinear(model, m, theta0=cold)
        assert np.abs(cold.values - warm.values).max() <= 1e-5

    def test_descent_failures_raise(self):
        grid = make_grid(1, 100)
        model = ModelSpec.nonlinear(mu=0.1, K=4.0 * grid.axes[0])
        # below roundoff no step decreases the energy any more
        with pytest.raises(SolverError, match="line search stalled") as stall:
            solve_nonlinear(model, uniform(grid), NonlinearSolveOptions(grad_tol=1e-300))
        assert 0.0 < stall.value.residual <= 1e-6
        with pytest.raises(SolverError, match="within max_iters") as capped:
            solve_nonlinear(model, uniform(grid), NonlinearSolveOptions(max_iters=3))
        assert capped.value.last_iterate.grid is grid
        assert capped.value.residual > 1e-8 / grid.spacing

    def test_zero_capacity_gives_trivial_branch(self):
        grid = make_grid(1, 200)
        for K in (1e-7, 5e-9):
            model = ModelSpec.nonlinear(mu=0.1, K=K)
            with pytest.warns(TrivialBranchWarning):
                theta = solve_nonlinear(model, uniform(grid))
            assert np.all(theta.values == 0.0)


class TestResidual:
    def test_constant_cases(self):
        grid = make_grid(1, 300)
        lin = ModelSpec.linear(mu=0.1, P=0.5, f=2.0)
        theta = solve_linear(lin, uniform(grid))
        assert pde_residual(lin, uniform(grid), theta) <= 1e-9
        nl = ModelSpec.nonlinear(mu=0.1, K=4.0)
        theta_nl = solve_nonlinear(nl, uniform(grid))
        assert pde_residual(nl, uniform(grid), theta_nl) <= 1e-5

    def test_shift_detected(self):
        grid = make_grid(1, 300)
        lin = ModelSpec.linear(mu=0.1, P=0.5, f=2.0)
        theta = solve_linear(lin, uniform(grid))
        shifted = ScalarField(theta.values + 1.0, grid)
        assert pde_residual(lin, uniform(grid), shifted) >= 0.5

    def test_matches_loop_oracle_1d(self):
        grid = make_grid(1, 60)
        rng = np.random.default_rng(9)
        model = ModelSpec.linear(
            mu=0.1, P=0.5 + grid.axes[0], f=1.0 + grid.axes[0] ** 2
        )
        m = normalize(rng.uniform(0.1, 1.0, grid.shape), grid)
        theta = ScalarField(rng.normal(size=grid.shape), grid)
        got = pde_residual(model, m, theta)
        want = loop_stencil_residual(model, m.values, theta, grid)
        assert got == pytest.approx(want, rel=1e-12)

    def test_matches_loop_oracle_2d(self):
        grid = make_grid(2, 12)
        rng = np.random.default_rng(10)
        X, Y = grid.coords()
        model = ModelSpec.linear(mu=0.1, P=0.5 + X, f=1.0 + Y)
        m = normalize(rng.uniform(0.1, 1.0, grid.shape), grid)
        theta = ScalarField(rng.normal(size=grid.shape), grid)
        got = pde_residual(model, m, theta)
        want = loop_stencil_residual(model, m.values, theta, grid)
        assert got == pytest.approx(want, rel=1e-12)


class TestOperatorCache:
    def test_laplacian_built_once_per_model_and_grid(self, monkeypatch):
        builds = []

        def counting_laplacian(grid):
            builds.append((grid.dim, grid.n))
            return neumann_laplacian(grid)

        monkeypatch.setattr(elliptic, "neumann_laplacian", counting_laplacian)
        grid = make_grid(1, 200)
        model = ModelSpec.nonlinear(mu=0.1, K=4.0 * grid.axes[0])
        m = uniform(grid)
        theta = solve_nonlinear(model, m)
        for _ in range(3):
            theta = solve_nonlinear(model, m, theta0=theta)
            pde_residual(model, m, theta)
        assert builds == [(1, 200)]

    def test_reused_model_matches_fresh_model(self):
        K = 4.0  # a scalar coefficient lets one model serve every grid
        model = ModelSpec.nonlinear(mu=0.1, K=K)
        grids = [make_grid(1, 100), make_grid(1, 200), make_grid(1, 100), make_grid(2, 20)]
        for grid in grids:
            m = normalize(1.0 + grid.coords()[0], grid)
            reused = solve_nonlinear(model, m).values
            fresh = solve_nonlinear(ModelSpec.nonlinear(mu=0.1, K=K), m).values
            assert np.array_equal(reused, fresh)
            assert pde_residual(model, m, ScalarField(reused, grid)) <= 1e-5
        assert sorted(model._cache) == [(1, 100), (1, 200), (2, 20)]


@pytest.fixture
def factorizations(monkeypatch):
    """Count the calls of elliptic.splu from here on."""
    calls = []

    def counting_splu(A, **options):
        calls.append(options)
        return splu(A, **options)

    monkeypatch.setattr(elliptic, "splu", counting_splu)
    return calls


def strong_tol(grid):
    # pde_residual is mu times the strong-form gradient the solve tests
    return 0.1 * NonlinearSolveOptions().grad_tol / grid.spacing**grid.dim


class TestChordNewton:
    def test_flow_reuses_the_jacobian(self, factorizations, monkeypatch):
        solves = []
        solve = elliptic.solve_nonlinear

        def counting_solve(*args, **kwargs):
            solves.append(None)
            return solve(*args, **kwargs)

        monkeypatch.setattr(elliptic, "solve_nonlinear", counting_solve)
        # chord steps, and so a reused factor, are taken on 2D grids only
        grid = make_grid(2, 20)
        model = ModelSpec.nonlinear(mu=0.1, K=4.0 * grid.coords()[0])
        result = run_flow(model, uniform(grid), FlowConfig(eps0=0.25))
        assert result.converged
        assert 0 < len(factorizations) < len(solves)

    def test_far_warm_start_reaches_tolerance(self):
        self.check_far_warm_start(make_grid(1, 300))

    def test_far_warm_start_reaches_tolerance_2d(self):
        # a Jacobian factor, and with it a mixing history, exists in 2D only
        self.check_far_warm_start(make_grid(2, 20))

    @staticmethod
    def check_far_warm_start(grid):
        x = grid.coords()[0]
        model = ModelSpec.nonlinear(mu=0.1, K=4.0 * x)
        # a warm start from the payoff of a far density, with the
        # Jacobian factor of that density's solve still cached
        far = solve_nonlinear(model, normalize(np.exp(-50.0 * x), grid))
        m = normalize(np.exp(-50.0 * (1.0 - x)), grid)
        theta = solve_nonlinear(model, m, theta0=far)
        cold = solve_nonlinear(ModelSpec.nonlinear(mu=0.1, K=4.0 * x), m)
        assert theta.values.max() > 1.0
        assert np.abs(theta.values - far.values).max() > 1.0
        assert pde_residual(model, m, theta) <= strong_tol(grid)
        assert np.abs(theta.values - cold.values).max() <= 1e-6

    def test_cold_solve_ignores_the_cached_factor(self):
        self.check_cold_solve(make_grid(1, 200))

    def test_cold_solve_ignores_the_cached_factor_2d(self):
        self.check_cold_solve(make_grid(2, 20))

    @staticmethod
    def check_cold_solve(grid):
        x = grid.coords()[0]
        model = ModelSpec.nonlinear(mu=0.1, K=4.0 * x)
        solve_nonlinear(model, normalize(np.exp(-50.0 * x), grid))
        m = uniform(grid)
        fresh = solve_nonlinear(ModelSpec.nonlinear(mu=0.1, K=4.0 * x), m)
        assert np.array_equal(solve_nonlinear(model, m).values, fresh.values)

    @pytest.mark.parametrize(
        "variant, plain_chord_steps",
        # the Armijo steps these runs took with unmixed chord steps; with
        # either kind of step they accept 15 / 14 flow steps
        [("best_response", 204), ("eikonal", 203)],
    )
    def test_mixed_steps_descend_in_fewer_steps(self, monkeypatch, variant,
                                                plain_chord_steps):
        slopes = []
        armijo_step = elliptic._armijo_step

        def recording_step(theta, g, direction, w, *args):
            slopes.append(np.sum(w * g * direction))
            return armijo_step(theta, g, direction, w, *args)

        monkeypatch.setattr(elliptic, "_armijo_step", recording_step)
        grid = make_grid(2, 40)
        preset = PRESETS["nonlinear-gauss2d"]
        config = FlowConfig(variant=variant, eps0=preset.default_eps0)
        assert run_flow(build_model(preset, grid), uniform(grid), config).converged
        assert all(slope > 0.0 for slope in slopes)
        assert 0 < len(slopes) < plain_chord_steps

    @pytest.mark.parametrize(
        "seed, peak",
        enumerate([1.133, 1.607, 1.597, 1.207, 1.474, 5.230, 1.681, 2.524]),
    )
    def test_randcos2d_reaches_the_positive_branch(self, seed, peak):
        # unmixed chord steps fell onto theta == 0 on seeds 0, 1, 3 and 5
        # and exhausted max_iters on the others
        grid = make_grid(2, 50)
        model = build_model(PRESETS["nonlinear-randcos2d"], grid, seed=seed)
        m = uniform(grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error", TrivialBranchWarning)
            theta = solve_payoff(model, m)
        tol = model.mu * NonlinearSolveOptions().grad_tol / grid.spacing**grid.dim
        assert pde_residual(model, m, theta) <= tol
        assert abs(theta.values.max() - peak) <= 1e-2

    def test_residual_of_unsolved_model_does_not_factorize(self, factorizations):
        grid = make_grid(1, 200)
        model = ModelSpec.nonlinear(mu=0.1, K=4.0 * grid.axes[0])
        pde_residual(model, uniform(grid), ones(grid))
        assert factorizations == []

    @pytest.mark.parametrize(
        "planted", [0.0, -1e5], ids=["indefinite", "negative-definite"]
    )
    def test_stale_factor_is_refactored(self, factorizations, planted):
        grid = make_grid(2, 20)  # a factor is cached on 2D grids only
        x = grid.coords()[0]
        K = 4.0 * x
        model = ModelSpec.nonlinear(mu=0.1, K=K)
        m = uniform(grid)
        cold = solve_nonlinear(ModelSpec.nonlinear(mu=0.1, K=K), m)
        # plant the Jacobian at theta == planted: at 0 it is indefinite,
        # at -1e5 negative definite, so its direction is an ascent one
        ops = elliptic._operators(model, grid)
        curvature = (K - 2.0 * planted - m.values) / 0.1
        ops.lu = splu((ops.lap - sp.diags(curvature.ravel())).tocsc())
        factorizations.clear()
        start = ScalarField(cold.values + 0.5 * np.cos(np.pi * x), grid)
        theta = solve_nonlinear(model, m, theta0=start)
        assert len(factorizations) >= 1
        assert pde_residual(model, m, theta) <= strong_tol(grid)
        assert np.abs(theta.values - cold.values).max() <= 1e-6

    def test_solves_without_heap_trim_match(self, monkeypatch):
        # returning free heap pages before a factorization is glibc-only;
        # elsewhere it is skipped, and no solve may depend on it
        grid = make_grid(1, 200)
        K = 4.0 * grid.axes[0]
        m = uniform(grid)

        def solves():
            return [solve_nonlinear(ModelSpec.nonlinear(mu=0.1, K=K), m).values,
                    solve_linear(ModelSpec.linear(mu=0.1, P=0.5, f=1.0), m).values]

        trimmed = solves()
        monkeypatch.setattr(elliptic, "_malloc_trim", None)
        for a, b in zip(trimmed, solves()):
            assert np.array_equal(a, b)


class TestTridiagonalNewton:
    def test_1d_solves_do_not_factorize(self, factorizations):
        # every 1D payoff solve runs on LAPACK's tridiagonal routines
        grid = make_grid(1, 200)
        model = ModelSpec.nonlinear(mu=0.1, K=4.0 * grid.axes[0])
        theta = solve_nonlinear(model, uniform(grid))
        result = run_flow(model, uniform(grid), FlowConfig(eps0=0.25))
        assert result.converged
        assert pde_residual(model, uniform(grid), theta) <= strong_tol(grid)
        linear = ModelSpec.linear(mu=0.1, P=0.5, f=4.0 * grid.axes[0])
        solve_linear(linear, uniform(grid))
        assert run_flow(linear, uniform(grid), FlowConfig()).converged
        assert factorizations == []
        grid = make_grid(2, 20)
        solve_nonlinear(ModelSpec.nonlinear(mu=0.1, K=4.0 * grid.coords()[0]), uniform(grid))
        assert len(factorizations) >= 1
        solve_linear(ModelSpec.linear(mu=0.1, P=1.0, f=1.0), uniform(grid))
        assert all(options == {"permc_spec": "MMD_AT_PLUS_A"} for options in factorizations)

    def test_direction_is_the_exact_newton_direction(self, monkeypatch):
        grid = make_grid(1, 50)
        x = grid.axes[0]
        K, mu = 4.0 * x, 0.1
        m = normalize(np.exp(-10.0 * x), grid)
        model = ModelSpec.nonlinear(mu=mu, K=K)
        directions = []
        solve = elliptic._solve_tridiagonal

        def recording_solve(lower, diag, upper, rhs):
            direction = solve(lower, diag, upper, rhs)
            directions.append((rhs.copy(), direction))
            return direction

        monkeypatch.setattr(elliptic, "_solve_tridiagonal", recording_solve)
        theta = 1.0 + np.sin(3.0 * x)  # far from the solution, J indefinite
        solve_nonlinear(model, m, theta0=ScalarField(theta, grid))
        g, direction = directions[0]
        curvature = (K - 2.0 * theta - m.values) / mu
        jacobian = neumann_laplacian(grid) - sp.diags(curvature)
        assert np.any(curvature > 0.0) and np.abs(g).max() > 1.0
        want = np.linalg.solve(jacobian.toarray(), g)
        assert np.abs(direction - want).max() <= 1e-10 * np.abs(want).max()

    def test_zero_pivot_raises(self, monkeypatch):
        def singular(dl, d, du, b):
            return dl, d, du, b, 3  # LAPACK: U(3,3) is exactly zero

        monkeypatch.setattr(elliptic, "dgtsv", singular)
        grid = make_grid(1, 50)
        model = ModelSpec.nonlinear(mu=0.1, K=4.0 * grid.axes[0])
        with pytest.raises(SolverError, match="payoff operator is singular"):
            solve_nonlinear(model, uniform(grid))


def exact_energy(lap, w, K, m, mu, x):
    """J(x) = 1/2 x.W(-Lap)x - (1/mu) sum w F(x), in rational arithmetic."""
    lap_x = [sum(Fraction(a) * xj for a, xj in zip(row, x)) for row in lap.toarray()]
    quad = sum(wi * xi * li for wi, xi, li in zip(w, x, lap_x)) / 2
    primitive = sum(
        wi * (ki * xi**2 / 2 - xi**3 / 3 - mi * xi**2 / 2)
        for wi, ki, mi, xi in zip(w, K, m, x)
    )
    return quad - primitive / mu


@pytest.mark.parametrize("dim,n", [(1, 10), (2, 5)])
def test_energy_increment_matches_exact_difference(dim, n):
    grid = make_grid(dim, n)
    rng = np.random.default_rng(3)
    lap, w, mu = neumann_laplacian(grid), grid.quad_weights, 0.1
    K = 1.0 + 3.0 * rng.uniform(size=grid.shape)
    m = uniform(grid).values * rng.uniform(0.5, 1.5, grid.shape)
    theta = rng.uniform(0.0, 2.0, grid.shape)
    # a small step that projects about a third of the nodes onto 0, and
    # a large projected step along a random direction
    small = 0.1 * rng.normal(size=grid.shape)
    projected = rng.uniform(size=grid.shape) < 0.3
    small[projected] = -theta[projected]
    large = np.maximum(theta - 50.0 * rng.normal(size=grid.shape), 0.0) - theta
    assert np.all((theta + small)[projected] == 0.0)
    assert np.any(theta + large == 0.0) and np.abs(large).max() > 10.0

    exact = [[Fraction(v) for v in a.ravel()] for a in (w, K, m)]
    th = [Fraction(v) for v in theta.ravel()]
    for delta in (small, large):
        got = elliptic._energy_increment(lap, w, K, m, mu, theta, delta)
        moved = [t + Fraction(d) for t, d in zip(th, delta.ravel())]
        want = (exact_energy(lap, *exact, Fraction(mu), moved)
                - exact_energy(lap, *exact, Fraction(mu), th))
        # every summand of the closed form, in absolute value
        lap_mid = (lap @ (theta + 0.5 * delta).ravel()).reshape(grid.shape)
        terms = (
            np.abs((theta * (K - theta) - m * theta) * delta)
            + np.abs(0.5 * (K - 2.0 * theta - m) * delta**2)
            + np.abs(delta**3 / 3.0)
        )
        scale = np.sum(w * np.abs(delta * lap_mid)) + np.sum(w * terms) / mu
        # a few roundings per summand and a sum over the nodes: the
        # error is at most a small multiple of N u times the scale
        bound = 4 * grid.num_nodes * np.finfo(float).eps * scale
        assert abs(float(Fraction(got) - want)) <= bound
