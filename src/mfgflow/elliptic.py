"""Payoff solvers: the elliptic PDE mapping a player density m to theta[m].

Two payoff models are supported on [0,1]^d with homogeneous Neumann
boundary conditions (second-order ghost-node reflection):

* linear:    -mu Lap(theta) + P(x) theta = f(x) - m
* nonlinear: -mu Lap(theta) = theta (K(x) - theta) - m theta

The linear problem is a direct sparse solve.  The nonlinear problem is
solved by minimizing the energy

    J(theta) = 1/2 int |grad theta|^2 - (1/mu) int F(theta),

with F the primitive (fixed by F(0)=0) of the right-hand side, under the
constraint theta >= 0.  The nonlinear equation always admits the trivial
branch theta == 0; Newton-type iterations can land on it unpredictably,
which is why descent on J from a positive initialization is used
instead.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .grid import Grid
from .measures import ScalarField, grid_of


class SolverError(RuntimeError):
    """Linear system breakdown or nonlinear descent failure."""

    def __init__(self, message, last_iterate=None, residual=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


class TrivialBranchWarning(UserWarning):
    """Nonlinear solve fell back to the identically-zero solution."""


@dataclass
class NonlinearSolveOptions:
    """Tolerances for the nonlinear energy minimization.

    grad_tol is interpreted against the energy gradient scaled by the
    per-node grid weight, i.e. the solve stops once the strong-form
    stationarity residual max |Lap(theta) + F'(theta)/mu| drops below
    grad_tol / spacing^dim.
    """

    grad_tol: float = 1e-8
    max_iters: int = 100_000
    init_floor: float = 1e-3

    def __post_init__(self):
        if self.grad_tol <= 0.0:
            raise ValueError("grad_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.init_floor <= 0.0:
            raise ValueError("init_floor must be positive")


@dataclass
class ModelSpec:
    """Descriptor of the payoff PDE.

    kind is "linear" (fields mu, P, f) or "nonlinear" (fields mu, K).
    Coefficients are scalars or arrays matching the solve grid (a model
    has no grid of its own); they are broadcast at solve time.  Instances
    cache the factorized linear operator per grid and must not be mutated
    after first use.
    """

    kind: str
    mu: float
    P: np.ndarray | float | None = None
    f: np.ndarray | float | None = None
    K: np.ndarray | float | None = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("linear", "nonlinear"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if not np.isfinite(self.mu) or self.mu <= 0.0:
            raise ValueError("viscosity mu must be positive and finite")
        for name in ("P", "f", "K"):
            coef = getattr(self, name)
            if coef is not None and not np.isfinite(coef).all():
                raise ValueError(f"{name} must be finite everywhere")
        if self.kind == "linear":
            if self.P is None or self.f is None:
                raise ValueError("linear model needs P and f")
            for name, coef in (("P", self.P), ("f", self.f)):
                if np.min(coef) < 0.0:
                    raise ValueError(f"{name} must be nonnegative")
                if np.max(coef) <= 0.0:
                    raise ValueError(f"{name} must not be identically zero")
        else:
            if self.K is None:
                raise ValueError("nonlinear model needs K")

    @classmethod
    def linear(cls, mu, P, f) -> "ModelSpec":
        return cls(kind="linear", mu=mu, P=P, f=f)

    @classmethod
    def nonlinear(cls, mu, K) -> "ModelSpec":
        return cls(kind="nonlinear", mu=mu, K=K)

    def coefficient(self, name: str, grid: Grid) -> np.ndarray:
        return np.broadcast_to(np.asarray(getattr(self, name), dtype=float), grid.shape)


def neumann_laplacian(grid: Grid) -> sp.csr_matrix:
    """Matrix of -Lap with ghost-node reflected Neumann rows.

    Acts on flattened node values; interior rows are the central
    second-difference stencil, boundary rows use theta[-1] = theta[1].
    """
    n, dx = grid.n, grid.spacing
    lower = np.full(n, -1.0)
    upper = np.full(n, -1.0)
    lower[-1] = upper[0] = -2.0  # reflected ghost nodes of rows n and 0
    lap1 = sp.diags([lower, np.full(n + 1, 2.0), upper], [-1, 0, 1], format="csr")
    lap1 = lap1 / dx**2
    if grid.dim == 1:
        return lap1
    eye = sp.identity(n + 1, format="csr")
    return (sp.kron(lap1, eye) + sp.kron(eye, lap1)).tocsr()


# Accepted normwise backward error of a linear solve, in units of the
# unit roundoff.  Correct solves of every preset measure at most 5.7
# (at most 1.8 in 1D, up to n = 1e6).
BACKWARD_ERROR_FACTOR = 64.0


def _linear_operator(model: ModelSpec, grid: Grid):
    """(A, factorization of A, max-norm of A), cached per grid."""
    key = ("linear", grid.dim, grid.n)
    op = model._cache.get(key)
    if op is None:
        P = model.coefficient("P", grid).ravel()
        A = (model.mu * neumann_laplacian(grid) + sp.diags(P)).tocsc()
        try:
            lu = splu(A)
        except RuntimeError as exc:  # singular factorization
            raise SolverError(f"linear payoff operator is singular: {exc}") from exc
        op = (A, lu, float(abs(A).sum(axis=1).max()))
        model._cache[key] = op
    return op


def solve_linear(model: ModelSpec, m: ScalarField) -> ScalarField:
    """Solve -mu Lap(theta) + P theta = f - m by direct factorization.

    The factorized operator is cached on the model (it depends only on
    the grid, mu and P).  The solve is accepted when its normwise
    backward error is a small multiple of the unit roundoff:
    ||A theta - b|| <= BACKWARD_ERROR_FACTOR * u * (||A|| ||theta|| + ||b||)
    in the max norm.  ||A|| grows like 4 mu / dx^2, so a test against
    ||b|| alone would reject correct solves on fine grids.
    """
    if model.kind != "linear":
        raise ValueError("solve_linear needs a linear model")
    grid = grid_of(m)
    A, lu, a_norm = _linear_operator(model, grid)
    rhs = (model.coefficient("f", grid) - m.values).ravel()
    theta = lu.solve(rhs)
    resid = np.abs(A @ theta - rhs).max()
    scale = a_norm * np.abs(theta).max() + np.abs(rhs).max()
    bound = BACKWARD_ERROR_FACTOR * np.finfo(float).eps / 2.0 * scale
    if not np.isfinite(theta).all() or not resid <= bound:
        raise SolverError(
            f"linear solve residual {resid:.3e} exceeds tolerance {bound:.3e}",
            residual=resid,
        )
    return ScalarField(theta.reshape(grid.shape), grid)


def _nonlinear_terms(model: ModelSpec, m_vals: np.ndarray, grid: Grid):
    K = model.coefficient("K", grid)

    def fprime(theta):
        # right-hand side theta(K - theta) - m theta; its primitive
        # (fixed by F(0) = 0) is K theta^2/2 - theta^3/3 - m theta^2/2
        return theta * (K - theta) - m_vals * theta

    return K, fprime


def _energy_weights(grid: Grid) -> np.ndarray:
    """Node weights making the reflected stencil the exact gradient of
    the edge-difference energy (trapezoidal in every dimension)."""
    n, dx = grid.n, grid.spacing
    w1 = np.full(n + 1, dx)
    w1[0] = w1[-1] = dx / 2.0
    if grid.dim == 1:
        return w1
    return np.outer(w1, w1)


def _preconditioner(model: ModelSpec, grid: Grid):
    key = ("precond", grid.dim, grid.n)
    lu = model._cache.get(key)
    if lu is None:
        c = 1.0 + max(float(np.max(model.coefficient("K", grid))), 0.0) / model.mu
        H = (neumann_laplacian(grid) + c * sp.identity(grid.num_nodes)).tocsc()
        lu = splu(H)
        model._cache[key] = lu
    return lu


def solve_nonlinear(
    model: ModelSpec,
    m: ScalarField,
    opts: NonlinearSolveOptions | None = None,
    theta0: ScalarField | None = None,
) -> ScalarField:
    """Minimize the payoff energy under theta >= 0.

    Projected descent with Armijo backtracking; the descent direction is
    the energy gradient preconditioned by the factorized shifted
    Laplacian (-Lap + c I), which removes the grid-scale stiffness of
    plain gradient steps.  Initialization is max(K - m, init_floor)
    unless theta0 (a warm start) is supplied; the positive start steers
    the descent away from the trivial critical point theta == 0.

    Returns the zero field (with a TrivialBranchWarning) when descent
    collapses onto the trivial branch, i.e. when no positive solution is
    found.  Raises SolverError if max_iters is exhausted.
    """
    if model.kind != "nonlinear":
        raise ValueError("solve_nonlinear needs a nonlinear model")
    if opts is None:
        opts = NonlinearSolveOptions()
    grid = grid_of(m) if theta0 is None else grid_of(m, theta0)
    m_vals = m.values
    K, fprime = _nonlinear_terms(model, m_vals, grid)
    lap = neumann_laplacian(grid)
    wE = _energy_weights(grid)
    lu = _preconditioner(model, grid)
    mu = model.mu
    strong_tol = opts.grad_tol / grid.spacing**grid.dim

    def strong_grad(theta):
        # residual of -Lap(theta) - F'(theta)/mu, nodewise
        return (lap @ theta.ravel()).reshape(grid.shape) - fprime(theta) / mu

    def energy_increment(theta, delta):
        # exact J(theta+delta) - J(theta): the objective is cubic in
        # theta, so the difference has a closed form free of the
        # large-magnitude cancellation of evaluating J twice
        quad = delta.ravel() @ (
            wE.ravel() * (lap @ (theta + 0.5 * delta).ravel())
        )
        d_primitive = (
            fprime(theta) * delta
            + 0.5 * (K - 2.0 * theta - m_vals) * delta**2
            - delta**3 / 3.0
        )
        return quad - np.sum(wE * d_primitive) / mu

    def default_init():
        return np.maximum(K - m_vals, opts.init_floor)

    if theta0 is not None:
        theta = np.maximum(theta0.values, 0.0)
        if theta.max() <= opts.init_floor:
            theta = default_init()
    else:
        theta = default_init()

    for start in range(2):
        converged = False
        grad_norm = np.inf
        for _ in range(opts.max_iters):
            g = strong_grad(theta)
            grad_norm = float(np.abs(g).max())
            if grad_norm <= strong_tol:
                converged = True
                break
            direction = lu.solve(g.ravel()).reshape(grid.shape)
            theta = _armijo_step(theta, g, direction, wE, energy_increment)
            if theta is None:
                break
        if theta is None:
            raise SolverError("nonlinear line search stalled", residual=grad_norm)
        if not converged:
            raise SolverError(
                "nonlinear solve did not converge within max_iters",
                last_iterate=ScalarField(theta, grid),
                residual=float(np.abs(strong_grad(theta)).max()),
            )
        if theta.max() > 10.0 * opts.init_floor or float(np.max(K)) <= 0.0:
            break
        if start == 0 and theta0 is not None:
            theta = default_init()  # warm start collapsed; retry cold
            continue
        break

    if theta.max() <= 10.0 * opts.init_floor and float(np.max(K)) > 1e-8:
        warnings.warn(
            "nonlinear payoff solve returned the trivial zero branch",
            TrivialBranchWarning,
            stacklevel=2,
        )
        theta = np.zeros(grid.shape)
    return ScalarField(theta, grid)


def _armijo_step(theta, g, direction, wE, energy_increment, sigma=1e-4):
    """One projected backtracking step along the preconditioned
    direction, falling back to the raw gradient.  Sufficient decrease is
    tested on the exact energy increment.  None when no step passes.
    """
    for d in (direction, g):
        alpha = 1.0
        for _ in range(60):
            cand = np.maximum(theta - alpha * d, 0.0)
            delta = cand - theta
            decrease = np.sum(wE * g * delta)
            if decrease < 0.0 and energy_increment(theta, delta) <= sigma * decrease:
                return cand
            alpha /= 2.0
    return None


def pde_residual(model: ModelSpec, m: ScalarField, theta: ScalarField) -> float:
    """Max norm of the discrete PDE residual of theta for the model."""
    grid = grid_of(m, theta)
    m_vals, th = m.values, theta.values
    lap_theta = (neumann_laplacian(grid) @ th.ravel()).reshape(grid.shape)
    if model.kind == "linear":
        res = (
            model.mu * lap_theta
            + model.coefficient("P", grid) * th
            - (model.coefficient("f", grid) - m_vals)
        )
    else:
        K = model.coefficient("K", grid)
        res = model.mu * lap_theta - th * (K - th) + m_vals * th
    return float(np.abs(res).max())


def solve_payoff(
    model: ModelSpec, m: ScalarField, theta0: ScalarField | None = None
) -> ScalarField:
    """Dispatch to the solver matching the model kind.

    theta0 warm-starts the nonlinear solve; the linear solve is direct
    and ignores it.
    """
    if model.kind == "linear":
        return solve_linear(model, m)
    return solve_nonlinear(model, m, theta0=theta0)
