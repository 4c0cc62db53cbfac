import dataclasses
import warnings
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu, spsolve

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

    def test_linear_needs_p_and_f(self):
        with pytest.raises(ValueError, match="linear model needs P and f"):
            ModelSpec(kind="linear", mu=0.1, f=1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown model kind 'quadratic'"):
            ModelSpec(kind="quadratic", mu=0.1, K=1.0)

    @pytest.mark.parametrize("name", ["K", "mu", "kind", "g"])
    def test_linear_coefficient_refuses_other_names(self, name):
        model = ModelSpec.linear(mu=0.1, P=0.5, f=1.0)
        with pytest.raises(ValueError, match=f"a linear model has no coefficient '{name}'"):
            model.coefficient(name, make_grid(1, 10))

    @pytest.mark.parametrize("name", ["P", "f", "mu", "kind", "g"])
    def test_harvesting_coefficient_refuses_other_names(self, name):
        model = ModelSpec.nonlinear(mu=0.1, K=4.0)
        with pytest.raises(ValueError, match=f"a nonlinear model has no coefficient '{name}'"):
            model.coefficient(name, make_grid(2, 4))

    def test_coefficient_broadcasts_the_named_field(self):
        grid = make_grid(1, 10)
        linear = ModelSpec.linear(mu=0.1, P=0.5, f=4.0 * grid.axes[0])
        assert np.array_equal(linear.coefficient("P", grid), np.full(grid.shape, 0.5))
        assert np.array_equal(linear.coefficient("f", grid), 4.0 * grid.axes[0])
        harvesting = ModelSpec.nonlinear(mu=0.1, K=4.0)
        assert np.array_equal(harvesting.coefficient("K", grid), np.full(grid.shape, 4.0))

    def test_solvers_refuse_the_other_kind(self):
        grid = make_grid(1, 10)
        m = normalize(np.ones(grid.shape), grid)
        with pytest.raises(ValueError, match="solve_linear needs a linear model"):
            solve_linear(ModelSpec.nonlinear(mu=0.1, K=1.0), m)
        with pytest.raises(ValueError, match="solve_nonlinear needs a nonlinear model"):
            solve_nonlinear(ModelSpec.linear(mu=0.1, P=0.5, f=1.0), m)

    @pytest.mark.parametrize(
        "K", [-1.0, 0.0, -np.ones(11), np.linspace(-1.0, 0.0, 11)],
        ids=["-1", "0", "negative-array", "ramp-to-0"],
    )
    def test_rejects_nonpositive_capacity(self, K):
        # theta == 0 is then the only solution
        with pytest.raises(ValueError, match="K must be positive somewhere"):
            ModelSpec.nonlinear(mu=0.1, K=K)

    @pytest.mark.parametrize("kind, coefficients, name", [
        ("linear", {"P": 0.5, "f": 1.0, "K": 2.0}, "K"),
        ("linear", {"P": 0.5, "f": 1.0, "K": np.ones(11)}, "K"),
        ("nonlinear", {"K": 4.0, "P": 0.5}, "P"),
        ("nonlinear", {"K": 4.0, "f": 1.0}, "f"),
        ("nonlinear", {"K": 4.0, "P": -1.0}, "P"),
        ("nonlinear", {"K": 4.0, "P": -1.0, "f": 2.0}, "P"),
    ], ids=["linear-K", "linear-K-array", "harvesting-P", "harvesting-f",
            "harvesting-negative-P", "harvesting-P-and-f"])
    def test_coefficient_the_kind_does_not_read_refused(self, kind, coefficients, name):
        with pytest.raises(ValueError, match=f"a {kind} model has no coefficient '{name}'"):
            ModelSpec(kind=kind, mu=0.1, **coefficients)

    @pytest.mark.parametrize("kind, coefficients, name", [
        ("linear", {"P": True, "f": 1.0}, "P"),
        ("linear", {"P": 0.5, "f": True}, "f"),
        ("linear", {"P": np.True_, "f": 1.0}, "P"),
        ("nonlinear", {"K": True}, "K"),
    ], ids=["P", "f", "numpy-bool-P", "K"])
    def test_bool_scalar_coefficient_refused(self, kind, coefficients, name):
        with pytest.raises(ValueError, match=f"{name} must be a real number, got bool"):
            ModelSpec(kind=kind, mu=0.1, **coefficients)

    def test_options_validation(self):
        with pytest.raises(ValueError):
            NonlinearSolveOptions(grad_tol=0.0)
        with pytest.raises(ValueError):
            NonlinearSolveOptions(max_iters=0)


def linear_4x(grid, mu=0.1):
    return ModelSpec.linear(mu=mu, P=0.5, f=4.0 * grid.axes[0])


class TestImmutableInputs:
    @pytest.mark.parametrize("value, name", [
        (ModelSpec.linear(mu=0.1, P=0.5, f=1.0), "mu"),
        (ModelSpec.linear(mu=0.1, P=0.5, f=np.ones(11)), "P"),
        (FlowConfig(), "eps0"),
        (NonlinearSolveOptions(), "grad_tol"),
    ], ids=["ModelSpec.mu", "ModelSpec.P", "FlowConfig", "NonlinearSolveOptions"])
    def test_assigning_a_field_raises(self, value, name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, 1.0)

    def test_replaced_model_solves_with_its_own_values(self):
        grid = make_grid(1, 200)
        m = uniform(grid)
        model = linear_4x(grid)
        before = solve_linear(model, m).values
        replaced = dataclasses.replace(model, mu=1.0)
        assert replaced._cache == {} and model._cache
        fresh = solve_linear(linear_4x(grid, mu=1.0), m).values
        assert np.array_equal(solve_linear(replaced, m).values, fresh)
        assert np.abs(fresh - before).max() > 0.5
        assert np.array_equal(solve_linear(model, m).values, before)
        with pytest.raises(ValueError, match="mu must be positive"):
            dataclasses.replace(model, mu=-3.0)

    def test_coefficient_arrays_are_read_only_copies(self):
        grid = make_grid(1, 200)
        m = uniform(grid)
        P = 0.5 + grid.axes[0]
        model = ModelSpec.linear(mu=0.1, P=P, f=4.0 * grid.axes[0])
        theta = solve_linear(model, m)
        with pytest.raises(ValueError, match="read-only"):
            model.P[:] = -1.0
        P[:] = -1.0  # the caller's array stays writable and apart
        assert model.P.dtype == np.float64
        assert np.array_equal(model.P, 0.5 + grid.axes[0])
        assert np.array_equal(solve_linear(model, m).values, theta.values)
        assert pde_residual(model, m, theta) <= 1e-10

    def test_scalar_coefficients_stay_numbers(self):
        model = ModelSpec.linear(mu=0.1, P=0.5, f=2)
        assert (model.P, model.f) == (0.5, 2) and type(model.f) is int


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

    @pytest.mark.parametrize(
        "dim,n,varying_P", [(1, 1000, False), (2, 30, False), (2, 30, True)],
        ids=["1d", "2d", "2d-varying-P"],
    )
    def test_corrupted_factorization_raises(self, monkeypatch, dim, n, varying_P):
        grid = make_grid(dim, n)
        X = grid.coords()[0]
        P = 0.5 + X + grid.coords()[-1] if varying_P else 0.5
        model = ModelSpec.linear(mu=0.1, P=P, f=4.0 * X)
        # solve with an operator whose diagonal is off by 1e-6: the solve
        # then misses the right-hand side by about 1e-6 * |theta|, far
        # above the roundoff level of a correct solve
        if dim == 1:  # LAPACK's tridiagonal factorization
            dgttrf = elliptic.dgttrf

            def corrupted_dgttrf(dl, d, du):
                return dgttrf(dl, d + 1e-6, du)

            monkeypatch.setattr(elliptic, "dgttrf", corrupted_dgttrf)
        elif varying_P:  # SuperLU
            def corrupted_splu(A, **options):
                return splu(A + 1e-6 * sp.identity(A.shape[0], format="csc"), **options)

            monkeypatch.setattr(elliptic, "splu", corrupted_splu)
        else:  # the cached cosine-transform eigenvalues
            ops = elliptic._operators(model, grid)
            monkeypatch.setattr(ops, "eig", ops.eig + 1e-6)
        with pytest.raises(SolverError, match="exceeds tolerance"):
            solve_linear(model, uniform(grid))

    @pytest.mark.parametrize("scale, accepted", [(1.5, True), (3.0, False)])
    def test_residual_between_the_two_bounds_accepted(self, monkeypatch, scale, accepted):
        # with mu tiny, ||A|| ~ P and theta ~ b / P, so ||b|| nearly
        # doubles the bound: a residual of 1.5 u ||A|| ||theta|| lies past
        # the test without ||b|| and within the full one, 3 past both
        grid = make_grid(1, 10)
        model = ModelSpec.linear(mu=1e-6, P=1.0, f=2.0 + grid.axes[0])
        m = uniform(grid)
        exact = solve_linear(model, m).values
        ops = elliptic._operators(model, grid)
        unit = elliptic._BACKWARD_ERROR_UNIT
        dgttrs = elliptic.dgttrs

        def perturbed_dgttrs(*args):
            theta, info = dgttrs(*args)
            theta[4] += scale * unit * ops.norm * np.abs(exact).max()
            return theta, info

        monkeypatch.setattr(elliptic, "dgttrs", perturbed_dgttrs)
        rhs = model.f - m.values
        theta, _ = perturbed_dgttrs(*ops.lu, rhs)
        resid = np.abs(elliptic._product(ops.op, theta) - rhs).max()
        scaled = ops.norm * np.abs(theta).max()
        assert unit * scaled < resid
        assert bool(resid <= unit * (scaled + np.abs(rhs).max())) is accepted
        if accepted:
            assert np.array_equal(solve_linear(model, m).values, theta)
        else:
            with pytest.raises(SolverError, match="exceeds tolerance"):
                solve_linear(model, m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "dim,n,varying_P", [(1, 200, False), (2, 20, False), (2, 20, True)],
        ids=["1d", "2d", "2d-varying-P"],
    )
    def test_non_finite_solve_raises(self, monkeypatch, dim, n, varying_P, bad):
        # one non-finite node of the solution fails the solve as not
        # finite, rather than as a residual over a non-finite tolerance
        grid = make_grid(dim, n)
        X = grid.coords()[0]
        P = 0.5 + X + grid.coords()[-1] if varying_P else 0.5
        model = ModelSpec.linear(mu=0.1, P=P, f=4.0 * X)
        m = uniform(grid)
        solve_linear(model, m)  # builds and caches the operator

        def spoiled(theta):
            theta = theta.copy()
            theta.flat[theta.size // 2] = bad
            return theta

        if dim == 1:  # LAPACK's tridiagonal solve
            dgttrs = elliptic.dgttrs

            def spoiled_dgttrs(*args):
                theta, info = dgttrs(*args)
                return spoiled(theta), info

            monkeypatch.setattr(elliptic, "dgttrs", spoiled_dgttrs)
        elif varying_P:  # the cached SuperLU factor's solve
            ops = elliptic._operators(model, grid)

            class SpoiledFactor:
                def solve(self, rhs, lu=ops.lu):
                    return spoiled(lu.solve(rhs))

            monkeypatch.setattr(ops, "lu", SpoiledFactor())
        else:  # the cosine-transform solve
            dct_solve = elliptic._dct_solve
            monkeypatch.setattr(
                elliptic, "_dct_solve", lambda eig, rhs: spoiled(dct_solve(eig, rhs))
            )
        with pytest.raises(SolverError, match="linear solve is not finite") as failed:
            solve_linear(model, m)
        assert not np.isfinite(failed.value.residual)

    @pytest.mark.parametrize("varying_P", [False, True], ids=["constant-P", "varying-P"])
    def test_2d_solve_matches_sparse_solve(self, varying_P):
        # constant P takes the cosine transform, P = 0.5 + x + y SuperLU
        grid = make_grid(2, 40)
        X, Y = grid.coords()
        P = 0.5 + X + Y if varying_P else 1.0
        f = 15.0 * (np.cos(np.pi * X) * np.cos(np.pi * Y) + 1.0)
        model = ModelSpec.linear(mu=0.1, P=P, f=f)
        m = normalize(np.random.default_rng(3).uniform(0.1, 1.0, grid.shape), grid)
        theta = solve_linear(model, m).values
        diag = sp.diags(np.broadcast_to(P, grid.shape).ravel())
        system = (0.1 * neumann_laplacian(grid) + diag).tocsc()
        want = spsolve(system, (model.f - m.values).ravel()).reshape(grid.shape)
        assert np.abs(theta - want).max() <= 1e-12 * np.abs(want).max()
        assert (elliptic._operators(model, grid).lu is None) is not varying_P

    def test_singular_factorization_raises(self):
        with pytest.raises(SolverError, match="payoff operator is singular"):
            elliptic._factorize(sp.csc_matrix(np.ones((2, 2))))

    def test_1d_solve_matches_dense_solve(self):
        grid = make_grid(1, 400)
        x = grid.axes[0]
        model = ModelSpec.linear(mu=0.1, P=0.5 + x, f=15.0 * (np.cos(2.0 * np.pi * x) + 1.0))
        m = random_density(3, grid)
        theta = solve_linear(model, m).values
        system = 0.1 * neumann_laplacian(grid) + sp.diags(model.P)
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

    def test_lipschitz_in_w1(self, calibration, w1_distance):
        grid, _, lip = calibration
        model = ModelSpec.linear(mu=0.1, P=0.5, f=1.0)
        for seed in range(100):
            m1 = random_density(seed, grid)
            m2 = random_density(seed + 1000, grid)
            gap = np.abs(
                solve_linear(model, m1).values
                - solve_linear(model, m2).values
            ).max()
            assert gap <= 1.1 * lip * w1_distance(m1, m2)

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

    def test_collapsed_warm_start_is_retried_cold(self, monkeypatch):
        grid = make_grid(1, 200)
        x = grid.axes[0]
        model = ModelSpec.nonlinear(mu=0.1, K=4.0 * x)
        m = uniform(grid)
        # just above the floor that makes a start warm, on x < 0.1 only:
        # the warm descent falls onto theta == 0
        theta0 = ScalarField(np.where(x < 0.1, 2e-3, 0.0), grid)
        cold = solve_nonlinear(ModelSpec.nonlinear(mu=0.1, K=4.0 * x), m)
        iterates = []
        armijo_step = elliptic._armijo_step

        def recording_step(theta, *args):
            iterates.append(theta.copy())
            return armijo_step(theta, *args)

        monkeypatch.setattr(elliptic, "_armijo_step", recording_step)
        with warnings.catch_warnings():
            warnings.simplefilter("error", TrivialBranchWarning)
            theta = solve_nonlinear(model, m, theta0=theta0)
        cold_start = np.maximum(model.K - m.values, elliptic.INIT_FLOOR)
        restart = next(i for i, it in enumerate(iterates) if np.array_equal(it, cold_start))
        assert restart > 0 and np.array_equal(iterates[0], theta0.values)
        assert max(it.max() for it in iterates[1:restart]) <= 10.0 * elliptic.INIT_FLOOR
        assert np.array_equal(theta.values, cold.values)
        assert theta.values.max() == pytest.approx(2.18492, abs=1e-5)

    def test_descent_failures_raise(self, monkeypatch):
        grid = make_grid(1, 100)
        model = ModelSpec.nonlinear(mu=0.1, K=4.0 * grid.axes[0])
        # below roundoff no step decreases the energy any more
        options = partial(NonlinearSolveOptions, grad_tol=1e-300)
        monkeypatch.setattr(elliptic, "NonlinearSolveOptions", options)
        with pytest.raises(SolverError, match="line search stalled") as stall:
            solve_nonlinear(model, uniform(grid))
        assert 0.0 < stall.value.residual <= 1e-6
        options = partial(NonlinearSolveOptions, max_iters=3)
        monkeypatch.setattr(elliptic, "NonlinearSolveOptions", options)
        with pytest.raises(SolverError, match="within max_iters") as capped:
            solve_nonlinear(model, uniform(grid))
        assert capped.value.last_iterate.grid is grid
        assert capped.value.residual > 1e-8 / grid.spacing

    def test_zero_capacity_gives_trivial_branch(self):
        grid = make_grid(1, 200)
        for K in (1e-7, 5e-9):
            model = ModelSpec.nonlinear(mu=0.1, K=K)
            with pytest.warns(TrivialBranchWarning):
                theta = solve_nonlinear(model, uniform(grid))
            assert np.all(theta.values == 0.0)


class TestPlateauDensity:
    @pytest.mark.parametrize("model, dim, theta_bar, tol", [
        (ModelSpec.linear(mu=0.1, P=0.5, f=2.0), 1, 1.0, 1e-9),
        (ModelSpec.linear(mu=0.1, P=0.5, f=2.0), 2, 1.0, 1e-9),
        (ModelSpec.nonlinear(mu=0.1, K=4.0), 1, 3.0, 1e-6),
    ])
    def test_payoff_of_the_plateau_density_is_flat(self, model, dim, theta_bar, tol):
        # the rule the flow's redistribution rests on, apart from the flow:
        # the plateau density at theta_bar has the payoff theta_bar
        grid = make_grid(dim, 400 if dim == 1 else 40)
        m = elliptic.plateau_density(model, grid, theta_bar)
        assert isinstance(m, ScalarField) and m.grid is grid
        theta = solve_payoff(model, m)
        assert np.abs(theta.values - theta_bar).max() <= tol


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
        # a 1D grid keeps -Lap as bands and builds no sparse matrix; a
        # 2D grid builds the sparse -Lap once per model
        builds = []

        def counting_laplacian(grid):
            builds.append((grid.dim, grid.n))
            return neumann_laplacian(grid)

        monkeypatch.setattr(elliptic, "neumann_laplacian", counting_laplacian)
        for grid in (make_grid(1, 200), make_grid(2, 20)):
            x = grid.coords()[0]
            m = uniform(grid)
            models = (ModelSpec.nonlinear(mu=0.1, K=4.0 * x),
                      ModelSpec.linear(mu=0.1, P=0.5, f=4.0 * x))
            for model in models:
                theta = solve_payoff(model, m)
                for _ in range(3):
                    theta = solve_payoff(model, m, theta0=theta)
                    pde_residual(model, m, theta)
        assert builds == [(2, 20), (2, 20)]

    @pytest.mark.parametrize("n", [2, 3, 1000])
    def test_band_product_matches_the_sparse_product(self, n):
        grid = make_grid(1, n)
        rng = np.random.default_rng(n)
        x = rng.normal(size=grid.shape)
        x[rng.uniform(size=grid.shape) < 0.3] = 0.0
        x[0] = 0.0
        bands = elliptic._laplacian_bands(grid)
        assert np.array_equal(elliptic._product(bands, x), neumann_laplacian(grid) @ x)

    @pytest.mark.parametrize("n", [2, 3, 1000, 100000])
    @pytest.mark.parametrize("varying_P", [False, True], ids=["constant-P", "varying-P"])
    def test_1d_system_bands_match_the_sparse_system(self, n, varying_P):
        # the bands built from -Lap's bands are those the assembled
        # sparse system gives, and the norm is the closed form
        grid = make_grid(1, n)
        x = grid.axes[0]
        P = 0.5 + x * x if varying_P else 0.5
        model = ModelSpec.linear(mu=0.1, P=P, f=1.0)
        ops = elliptic._operators(model, grid)
        system = (
            0.1 * neumann_laplacian(grid) + sp.diags(model.coefficient("P", grid))
        ).tocsc()
        want = (system.diagonal(-1), system.diagonal(), system.diagonal(1))
        assert all(np.array_equal(a, b) for a, b in zip(ops.op, want, strict=True))
        assert ops.norm == closed_form_norm(model, grid)

    @pytest.mark.parametrize("mu", [0.03, 0.1, 1.0])
    @pytest.mark.parametrize("P", ["constant", "varying", "partly-zero"])
    @pytest.mark.parametrize("dim, n", [
        (1, 2), (1, 3), (1, 10), (1, 1001), (1, 100000), (2, 2), (2, 3), (2, 17), (2, 200),
    ])
    def test_norm_is_the_closed_form(self, dim, n, P, mu):
        grid = make_grid(dim, n)
        X = grid.coords()[0]
        P = {
            "constant": np.full(grid.shape, 0.5),
            "varying": 0.5 + X + grid.coords()[-1],
            "partly-zero": np.maximum(np.sin(7.0 * X), 0.0),
        }[P]
        model = ModelSpec.linear(mu=mu, P=P, f=1.0)
        system = (mu * neumann_laplacian(grid) + sp.diags(P.ravel())).tocsc()
        summed = float(abs(system).sum(axis=1).max())
        norm = elliptic._operators(model, grid).norm
        assert norm == closed_form_norm(model, grid)
        assert abs(norm - summed) <= np.spacing(summed)

    @pytest.mark.parametrize("varying_P", [False, True], ids=["constant-P", "varying-P"])
    @pytest.mark.parametrize(
        "dim, n", [(1, 1000), (1, 10000), (1, 100000), (2, 40), (2, 100), (2, 200)]
    )
    def test_accepted_solves_meet_the_backward_error_bound(self, dim, n, varying_P):
        # pde_residual of a linear model is the residual the solve's
        # backward-error test bounds; the bound from public quantities
        grid = make_grid(dim, n)
        X = grid.coords()[0]
        P = 0.5 + X + grid.coords()[-1] if varying_P else 0.5
        model = ModelSpec.linear(mu=0.1, P=P, f=15.0 * (np.cos(2.0 * np.pi * X) + 1.0))
        m = normalize(np.random.default_rng(n).uniform(0.1, 1.0, grid.shape), grid)
        theta = solve_linear(model, m)
        rhs = model.coefficient("f", grid) - m.values
        unit = elliptic.BACKWARD_ERROR_FACTOR * np.finfo(float).eps / 2.0
        bound = unit * (
            closed_form_norm(model, grid) * np.abs(theta.values).max() + np.abs(rhs).max()
        )
        assert 0.0 < pde_residual(model, m, theta) <= bound

    def test_op_is_the_system_or_minus_laplacian(self):
        # op is mu (-Lap) + diag(P) for a linear model, -Lap for a harvesting one
        for grid in (make_grid(1, 50), make_grid(2, 10)):
            model = linear_4x(grid)
            lap = neumann_laplacian(grid)
            system = (model.mu * lap + sp.diags(model.coefficient("P", grid).ravel())).tocsc()
            x = np.random.default_rng(grid.dim).uniform(size=grid.shape)
            for ops, want in (
                (elliptic._operators(model, grid), system),
                (elliptic._operators(ModelSpec.nonlinear(mu=0.1, K=4.0), grid), lap),
            ):
                assert np.array_equal(elliptic._product(ops.op, x),
                                      (want @ x.ravel()).reshape(grid.shape))

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
def solver_calls(monkeypatch):
    """Count the calls of elliptic.solve_linear and elliptic.solve_nonlinear."""
    calls = []
    for name in ("solve_linear", "solve_nonlinear"):
        def counting(*args, solve=getattr(elliptic, name), **kwargs):
            calls.append(name)
            return solve(*args, **kwargs)

        monkeypatch.setattr(elliptic, name, counting)
    return calls


def kind_model(kind, grid):
    x = grid.coords()[0]
    if kind == "linear":
        return ModelSpec.linear(mu=0.1, P=0.5, f=4.0 * x)
    return ModelSpec.nonlinear(mu=0.1, K=4.0 * x)


@pytest.mark.parametrize("kind", ["linear", "nonlinear"])
@pytest.mark.parametrize("dim,n", [(1, 200), (2, 20)], ids=["1d", "2d"])
class TestStartMemo:
    """solve_payoff answers a cold call on its model's last cold density."""

    def test_equal_density_is_solved_once(self, solver_calls, kind, dim, n):
        grid = make_grid(dim, n)
        model = kind_model(kind, grid)
        first = solve_payoff(model, uniform(grid))
        # an equal density in a new array
        again = solve_payoff(model, uniform(grid))
        assert len(solver_calls) == 1
        assert again.values is not first.values and again.grid is grid
        assert np.array_equal(again.values, first.values)
        fresh = solve_payoff(kind_model(kind, grid), uniform(grid))
        assert np.array_equal(again.values, fresh.values)

    def test_changed_density_misses(self, solver_calls, kind, dim, n):
        grid = make_grid(dim, n)
        model = kind_model(kind, grid)
        x = grid.coords()[0]
        m = normalize(1.0 + x, grid)
        solve_payoff(model, m)
        other = solve_payoff(model, uniform(grid))
        assert len(solver_calls) == 2
        fresh = solve_payoff(kind_model(kind, grid), uniform(grid))
        assert np.array_equal(other.values, fresh.values)
        # m is the last cold density again; an in-place edit of its values misses
        solve_payoff(model, m)
        m.values[...] = normalize(2.0 - x, grid).values
        edited = solve_payoff(model, m)
        assert len(solver_calls) == 5
        fresh = solve_payoff(kind_model(kind, grid), normalize(2.0 - x, grid))
        assert np.array_equal(edited.values, fresh.values)

    def test_mutating_a_returned_theta_leaves_later_hits(self, solver_calls, kind, dim, n):
        grid = make_grid(dim, n)
        model = kind_model(kind, grid)
        solved = solve_payoff(model, uniform(grid))
        expected = solved.values.copy()
        solved.values[...] = -1.0
        hit = solve_payoff(model, uniform(grid))
        assert np.array_equal(hit.values, expected)
        hit.values[...] = -2.0
        assert np.array_equal(solve_payoff(model, uniform(grid)).values, expected)
        assert len(solver_calls) == 1

    def test_warm_call_neither_reads_nor_writes(self, solver_calls, kind, dim, n):
        grid = make_grid(dim, n)
        model = kind_model(kind, grid)
        m = uniform(grid)
        theta = solve_payoff(model, m)
        solve_payoff(model, m, theta0=theta)
        assert len(solver_calls) == 2
        # a warm solve of another density is no cold start of it
        other = normalize(1.0 + grid.coords()[0], grid)
        solve_payoff(model, other, theta0=theta)
        solve_payoff(model, other)
        assert len(solver_calls) == 4

    def test_solver_error_is_raised_every_time(self, monkeypatch, kind, dim, n):
        grid = make_grid(dim, n)
        model = kind_model(kind, grid)
        calls = []

        def failing(model, m, **kwargs):
            calls.append(None)
            raise SolverError("payoff solve failed on purpose")

        monkeypatch.setattr(elliptic, f"solve_{kind}", failing)
        for _ in range(2):
            with pytest.raises(SolverError, match="on purpose"):
                solve_payoff(model, uniform(grid))
        assert len(calls) == 2


@pytest.mark.parametrize("dim,n", [(1, 200), (2, 20)], ids=["1d", "2d"])
def test_trivial_branch_warns_every_time(solver_calls, dim, n):
    # a trivial branch is never kept, so its warning repeats
    grid = make_grid(dim, n)
    model = ModelSpec.nonlinear(mu=0.1, K=1e-7)
    for _ in range(2):
        with pytest.warns(TrivialBranchWarning):
            theta = solve_payoff(model, uniform(grid))
        assert not theta.values.any()
    assert solver_calls == ["solve_nonlinear"] * 2


def closed_form_norm(model, grid):
    """||mu (-Lap) + diag(P)||_inf: the rows of |-Lap| sum to 4 dim / dx^2."""
    P = model.coefficient("P", grid)
    return model.mu * (4.0 * grid.dim / grid.spacing**2) + float(P.max())


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


class TestNewtonDescent:
    def test_far_warm_start_reaches_tolerance(self):
        self.check_far_warm_start(make_grid(1, 300))

    def test_far_warm_start_reaches_tolerance_2d(self):
        # the 2D directions come from conjugate gradients, not dgtsv
        self.check_far_warm_start(make_grid(2, 20))

    @staticmethod
    def check_far_warm_start(grid):
        x = grid.coords()[0]
        model = ModelSpec.nonlinear(mu=0.1, K=4.0 * x)
        # a warm start from the payoff of a far density, solved on the
        # same model
        far = solve_nonlinear(model, normalize(np.exp(-50.0 * x), grid))
        m = normalize(np.exp(-50.0 * (1.0 - x)), grid)
        theta = solve_nonlinear(model, m, theta0=far)
        cold = solve_nonlinear(ModelSpec.nonlinear(mu=0.1, K=4.0 * x), m)
        assert theta.values.max() > 1.0
        assert np.abs(theta.values - far.values).max() > 1.0
        assert pde_residual(model, m, theta) <= strong_tol(grid)
        assert np.abs(theta.values - cold.values).max() <= 1e-6

    def test_cold_solve_ignores_earlier_solves(self):
        self.check_cold_solve(make_grid(1, 200))

    def test_cold_solve_ignores_earlier_solves_2d(self):
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
        "variant, chord_steps",
        # the Armijo steps these runs took with Anderson-mixed chord steps
        # (204 / 203 with unmixed ones); all three accept 15 / 14 flow steps
        [("best_response", 149), ("eikonal", 117)],
    )
    def test_cg_steps_descend_in_fewer_steps(self, monkeypatch, variant, chord_steps):
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
        assert 0 < len(slopes) < chord_steps

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

    def test_only_a_varying_p_2d_solve_factorizes(self, factorizations):
        # 2D harvesting and constant-P linear solves run on the cosine
        # transform; a P that varies over the grid is factorized once
        grid = make_grid(2, 20)
        X, Y = grid.coords()
        solve_nonlinear(ModelSpec.nonlinear(mu=0.1, K=4.0 * X), uniform(grid))
        solve_linear(ModelSpec.linear(mu=0.1, P=1.0, f=1.0), uniform(grid))
        assert factorizations == []
        varying = ModelSpec.linear(mu=0.1, P=0.5 + X + Y, f=1.0)
        for _ in range(2):
            solve_linear(varying, uniform(grid))
        assert factorizations == [{"permc_spec": "MMD_AT_PLUS_A"}]


def cg_problem(c):
    """-Lap, its cosine eigenvalues and the weights on a 20^2 grid, a
    smooth right-hand side g, and the product with J = -Lap - diag(c)."""
    grid = make_grid(2, 20)
    X, Y = grid.coords()
    lap, w = neumann_laplacian(grid), grid.quad_weights
    c = np.broadcast_to(c(X), grid.shape)
    g = 1.0 + np.cos(np.pi * X) * np.cos(2.0 * np.pi * Y)

    def jacobian(v):
        return (lap @ v.ravel()).reshape(v.shape) - c * v

    return lap, elliptic._laplacian_eigenvalues(grid), w, c, g, jacobian


class TestNewtonCG:
    def test_positive_jacobian_meets_the_tolerance(self):
        # c < 0 everywhere: J is positive definite
        lap, eig, w, c, g, jacobian = cg_problem(lambda X: -5.0 - 10.0 * X)
        d = elliptic._newton_cg(lap, eig, w, c, g)
        r = g - jacobian(d)
        assert np.sum(w * g * d) > 0.0
        assert np.sum(w * r * r) <= elliptic.NEWTON_CG_RTOL**2 * np.sum(w * g * g)
        exact = spsolve((lap - sp.diags(c.ravel())).tocsc(), g.ravel()).reshape(g.shape)
        assert np.abs(d - exact).max() <= 0.1 * np.abs(exact).max()

    def test_negative_curvature_at_once_returns_g(self):
        # J negative definite: the first direction has negative curvature
        lap, eig, w, c, g, _ = cg_problem(lambda X: np.full(X.shape, 1e5))
        assert elliptic._newton_cg(lap, eig, w, c, g) is g

    def test_gradient_direction_is_searched_once(self, monkeypatch):
        # when the direction is g itself, a stalled line search tries it
        # once: 60 halvings, not the same 60 twice
        increments = []

        def failing_increment(*args):
            increments.append(args)
            return np.inf

        monkeypatch.setattr(elliptic, "_newton_cg", lambda lap, eig, w, c, g: g)
        monkeypatch.setattr(elliptic, "_energy_increment", failing_increment)
        grid = make_grid(2, 20)
        model = ModelSpec.nonlinear(mu=0.1, K=4.0 * grid.coords()[0])
        with pytest.raises(SolverError, match="line search stalled"):
            solve_nonlinear(model, uniform(grid))
        assert len(increments) == 60

    def test_negative_curvature_later_returns_the_last_iterate(self, monkeypatch):
        # J indefinite: one step has positive curvature, the second not
        lap, eig, w, c, g, jacobian = cg_problem(lambda X: 40.0 * np.cos(np.pi * X))
        preconditioned = []
        dct_solve = elliptic._dct_solve

        def counting_solve(eig, rhs):
            preconditioned.append(rhs)
            return dct_solve(eig, rhs)

        monkeypatch.setattr(elliptic, "_dct_solve", counting_solve)
        d = elliptic._newton_cg(lap, eig, w, c, g)
        assert len(preconditioned) == 2 and d is not g
        assert np.sum(w * g * d) > 0.0
        # the first step alone: d = alpha M^-1 g with alpha > 0
        z = dct_solve(eig + max(np.mean(-c), 1.0), g)
        alpha = np.sum(w * d * z) / np.sum(w * z * z)
        assert alpha > 0.0 and np.abs(d - alpha * z).max() <= 1e-12 * np.abs(d).max()
        r = g - jacobian(d)
        assert np.sum(w * r * r) > elliptic.NEWTON_CG_RTOL**2 * np.sum(w * g * g)

    def test_indefinite_start_reaches_the_cold_solution(self, monkeypatch):
        # a warm start far below the solution, where J is indefinite, so
        # that conjugate gradients meet non-positive curvature
        grid = make_grid(2, 20)
        x = grid.coords()[0]
        K = 4.0 * x
        m = uniform(grid)
        cold = solve_nonlinear(ModelSpec.nonlinear(mu=0.1, K=K), m)
        fallbacks = []
        newton_cg = elliptic._newton_cg

        def recording_cg(lap, eig, w, c, g):
            d = newton_cg(lap, eig, w, c, g)
            fallbacks.append(d is g)
            return d

        monkeypatch.setattr(elliptic, "_newton_cg", recording_cg)
        start = ScalarField(0.1 * cold.values, grid)
        model = ModelSpec.nonlinear(mu=0.1, K=K)
        theta = solve_nonlinear(model, m, theta0=start)
        assert any(fallbacks)
        assert pde_residual(model, m, theta) <= strong_tol(grid)
        assert np.abs(theta.values - cold.values).max() <= 1e-6


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
    # the operator the solve uses: -Lap's bands in 1D, sparse in 2D
    ops_lap = elliptic._operators(ModelSpec.nonlinear(mu=mu, K=K), grid).op
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
    # F'(theta) and F''(theta), as the Newton step shares them
    fprime = theta * (K - theta) - m * theta
    fsecond = K - 2.0 * theta - m
    for delta in (small, large):
        got = elliptic._energy_increment(ops_lap, w, mu, fprime, fsecond, theta, delta)
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
