import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from mfgflow import (
    ModelSpec,
    NonlinearSolveOptions,
    ScalarField,
    SolverError,
    TrivialBranchWarning,
    make_grid,
    integrate,
    normalize,
    pde_residual,
    random_density,
    solve_linear,
    solve_nonlinear,
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

    def test_corrupted_factorization_raises(self, monkeypatch):
        grid = make_grid(1, 1000)
        model = ModelSpec.linear(mu=0.1, P=0.5, f=4.0 * grid.axes[0])
        # factor an operator whose diagonal is off by 1e-6: the solve then
        # misses the right-hand side by about 1e-6 * |theta|, far above
        # the roundoff level of a correct solve
        def corrupted_splu(A):
            return splu(A + 1e-6 * sp.identity(A.shape[0], format="csc"))

        monkeypatch.setattr(elliptic, "splu", corrupted_splu)
        with pytest.raises(SolverError, match="exceeds tolerance"):
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

    def test_zero_capacity_gives_trivial_branch(self):
        grid = make_grid(1, 200)
        model = ModelSpec.nonlinear(mu=0.1, K=1e-7)
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
