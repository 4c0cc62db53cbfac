"""Payoff solvers: the elliptic PDE mapping a player density m to theta[m].

Two payoff models are supported on [0,1]^d with homogeneous Neumann
boundary conditions (second-order ghost-node reflection):

* linear:    -mu Lap(theta) + P(x) theta = f(x) - m
* nonlinear: -mu Lap(theta) = theta (K(x) - theta) - m theta

The linear problem is a direct solve on a factorization cached per model
and grid: LAPACK's tridiagonal LU (dgttrf/dgttrs) in 1D, SuperLU with
MMD ordering in 2D.  The nonlinear problem is solved by minimizing the
energy

    J(theta) = 1/2 int |grad theta|^2 - (1/mu) int F(theta),

with F the primitive (fixed by F(0)=0) of the right-hand side, under the
constraint theta >= 0.  The nonlinear equation always admits the trivial
branch theta == 0.  The minimization takes Newton directions: on 1D
grids the exact one, from the tridiagonal Jacobian solved by LAPACK at
every step, and on 2D grids chord ones (a factorized Jacobian reused
while it keeps contracting the residual), each mixed with the
previous chord step by depth-one Anderson acceleration.  It accepts a
step only when a projected Armijo test on the exact energy increment
passes, and starts from a positive initialization; a pure Newton
iteration on the equation would treat theta == 0 as just another root.
K must be positive somewhere; otherwise theta == 0 is the only solution
and the model is rejected.

The operators a model needs on one grid (-Lap; in 1D, the three bands
of the linear system or of -Lap; the factorized linear system and its
source f; or the latest factorized 2D Jacobian) are built once per
model and grid and cached on the model.
"""

from __future__ import annotations

import ctypes
import numbers
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs
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
    grad_tol / spacing^dim.  max_iters caps the Newton steps of one
    descent.  Converging solves take at most 6 (exact steps, 1D) and 14
    (mixed chord steps, 2D) in the tests, the benchmark and the
    nonlinear-randcos2d payoffs of seeds 0-7 at 21^2 to 101^2 nodes;
    the default leaves more than three times that.
    """

    grad_tol: float = 1e-8
    max_iters: int = 50
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
    mu is a real number (not a bool or an array).  The coefficients P,
    f and K are scalars or arrays matching the solve grid (a model has
    no grid of its own); they are broadcast at solve time.  Instances
    cache their operators per grid, one entry per (dim, n), and must not
    be mutated after first use.
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
        for name in ("mu", "P", "f", "K"):
            if isinstance(getattr(self, name), ScalarField):
                raise ValueError(f"{name} is a ScalarField; pass its .values")
        if not isinstance(self.mu, numbers.Real) or isinstance(self.mu, bool):
            raise ValueError(f"mu must be a real number, got {type(self.mu).__name__}")
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
            if np.max(self.K) <= 0.0:
                raise ValueError("K must be positive somewhere")

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


# A chord-Newton step that cuts max |g| by less than this factor
# triggers a refactorization of the Jacobian at the next iterate.
CHORD_CONTRACTION = 2.0

# Accepted normwise backward error of a linear solve, in units of the
# unit roundoff.  Correct solves of every preset measure at most 5.7 in
# 2D; the 1D dgttrs solves measure at most 1.23 / 1.42 / 1.27 / 1.76 at
# n = 1e3 / 1e4 / 1e5 / 1e6 (three linear presets, uniform and two
# random densities).
BACKWARD_ERROR_FACTOR = 64.0


@dataclass
class _Operators:
    """What a model needs on one grid, built once and cached on the model."""

    lap: sp.csr_matrix  # -Lap with reflected Neumann rows
    # on a 1D grid, sub-, main and superdiagonal of system (linear
    # model) or of lap (harvesting model); None in 2D
    bands: tuple[np.ndarray, np.ndarray, np.ndarray] | None
    system: sp.csc_matrix | None  # mu (-Lap) + diag(P); None for the harvesting model
    f: np.ndarray | None  # the linear model's source on the grid
    # factorization of system (dgttrf's outputs in 1D, SuperLU in 2D),
    # or the harvesting model's latest 2D chord Jacobian (None until
    # its first solve)
    lu: object
    norm: float | None  # max row sum of system


# SuperLU reserves a factor's storage at a fill estimate and touches
# only part of it.  glibc keeps freed heap pages resident, so a factor
# that lands elsewhere in the pages earlier factors touched grows the
# resident set with every refactorization.  Returning the free pages to
# the system before each factorization keeps the peak at live memory.
try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):  # not glibc
    _malloc_trim = None


def _factorize(matrix: sp.csc_matrix):
    """SuperLU factor of a 2D operator, in the MMD ordering of A^T + A."""
    if _malloc_trim is not None:
        _malloc_trim(0)
    try:
        return splu(matrix, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:  # singular factorization
        raise SolverError(f"payoff operator is singular: {exc}") from exc


def _check_pivots(info):
    """Raise SolverError on an exactly zero LAPACK pivot, as a singular splu does."""
    if info > 0:
        raise SolverError(f"payoff operator is singular: zero pivot in row {info}")


def _bands(matrix):
    return matrix.diagonal(-1), matrix.diagonal(), matrix.diagonal(1)


def _operators(model: ModelSpec, grid: Grid) -> _Operators:
    key = (grid.dim, grid.n)
    ops = model._cache.get(key)
    if ops is None:
        lap = neumann_laplacian(grid)
        if model.kind == "linear":
            system = model.mu * lap + sp.diags(model.coefficient("P", grid).ravel())
            system = system.tocsc()
            if grid.dim == 1:
                bands = _bands(system)
                *lu, info = dgttrf(*bands)
                _check_pivots(info)
            else:
                bands, lu = None, _factorize(system)
            ops = _Operators(
                lap, bands, system, model.coefficient("f", grid), lu,
                float(abs(system).sum(axis=1).max()),
            )
        else:
            bands = _bands(lap) if grid.dim == 1 else None
            ops = _Operators(lap, bands, None, None, None, None)
        model._cache[key] = ops
    return ops


def solve_linear(model: ModelSpec, m: ScalarField) -> ScalarField:
    """Solve -mu Lap(theta) + P theta = f - m by direct factorization.

    The factorized operator and f on the grid are cached on the model
    (they depend only on the grid, mu, P and f).  In 1D the operator is
    tridiagonal: it is factorized by LAPACK's dgttrf and solved by
    dgttrs, and its product with theta is taken on its three bands.  In
    2D it is factorized by SuperLU in the MMD ordering of A^T + A, the
    ordering of the harvesting model's Jacobian.  The solve is accepted
    when its normwise backward error is a small multiple of the unit
    roundoff:
    ||A theta - b|| <= BACKWARD_ERROR_FACTOR * u * (||A|| ||theta|| + ||b||)
    in the max norm.  ||A|| grows like 4 mu / dx^2, so a test against
    ||b|| alone would reject correct solves on fine grids.
    """
    if model.kind != "linear":
        raise ValueError("solve_linear needs a linear model")
    grid = grid_of(m)
    ops = _operators(model, grid)
    rhs = (ops.f - m.values).ravel()
    if ops.bands is None:
        theta = ops.lu.solve(rhs)
        product = ops.system @ theta
    else:
        theta, _ = dgttrs(*ops.lu, rhs)
        lower, diag, upper = ops.bands
        product = diag * theta
        product[1:] += lower * theta[:-1]
        product[:-1] += upper * theta[1:]
    resid = np.abs(product - rhs).max()
    scale = ops.norm * np.abs(theta).max() + np.abs(rhs).max()
    bound = BACKWARD_ERROR_FACTOR * np.finfo(float).eps / 2.0 * scale
    if not np.isfinite(theta).all() or not resid <= bound:
        raise SolverError(
            f"linear solve residual {resid:.3e} exceeds tolerance {bound:.3e}",
            residual=resid,
        )
    return ScalarField(theta.reshape(grid.shape), grid)


def solve_nonlinear(
    model: ModelSpec,
    m: ScalarField,
    opts: NonlinearSolveOptions | None = None,
    theta0: ScalarField | None = None,
) -> ScalarField:
    """Minimize the payoff energy under theta >= 0.

    Projected Newton descent with Armijo backtracking.  The direction
    solves J d = g, where g is the strong-form energy gradient
    -Lap(theta) - F'(theta)/mu and J = -Lap - diag((K - 2 theta - m)/mu)
    its Jacobian.  On a 1D grid J is tridiagonal, so solving it costs
    about as much as one factor solve: every step takes the exact
    Newton direction from LAPACK's dgtsv, and no factor is kept.  On a
    2D grid the steps are chord-Newton: J is factorized at some earlier
    iterate, cached with the model's operators and reused across solves;
    it is rebuilt at the current iterate when the last step cut max |g|
    by less than CHORD_CONTRACTION, or when the cached factor gives no
    descent direction.  The chord iteration is a fixed-point map, and
    each chord step d after the first since a factorization is replaced
    by its Anderson(1) mixing with the previous iterate and chord step
    (see _mixed_step), unless the mixed step is not finite or gives no
    descent direction.  That history is cleared at every factorization
    and at the start of every descent.  A cold solve (no theta0, or the
    cold retry) factorizes at its first step, so its result depends on
    its inputs alone.  A step is accepted only when the exact energy
    increment passes the Armijo test; the raw gradient is tried when the
    Newton direction fails it.

    Initialization is max(K - m, init_floor) unless theta0 (a warm
    start) is supplied; the positive start and the energy test steer
    the iteration away from the trivial critical point theta == 0.  A
    warm start that collapses onto it is retried from the cold start.

    Returns the zero field (with a TrivialBranchWarning) when the solve
    collapses onto the trivial branch, i.e. when no positive solution is
    found.  Raises SolverError if max_iters is exhausted, the line search
    stalls or a Jacobian is singular.
    """
    if model.kind != "nonlinear":
        raise ValueError("solve_nonlinear needs a nonlinear model")
    if opts is None:
        opts = NonlinearSolveOptions()
    grid = grid_of(m) if theta0 is None else grid_of(m, theta0)
    ops = _operators(model, grid)
    lap, w = ops.lap, grid.quad_weights
    K = model.coefficient("K", grid)
    m_vals = m.values
    mu = model.mu
    strong_tol = opts.grad_tol / grid.spacing**grid.dim

    def fprime(theta):
        # right-hand side theta(K - theta) - m theta; its primitive
        # (fixed by F(0) = 0) is K theta^2/2 - theta^3/3 - m theta^2/2
        return theta * (K - theta) - m_vals * theta

    def strong_grad(theta):
        # residual of -Lap(theta) - F'(theta)/mu, nodewise
        return (lap @ theta.ravel()).reshape(grid.shape) - fprime(theta) / mu

    energy_increment = partial(_energy_increment, lap, w, K, m_vals, mu)

    def curvature(theta):
        return ((K - 2.0 * theta - m_vals) / mu).ravel()

    def exact_direction(theta, g, size, last):
        lower, diag, upper = ops.bands
        return _solve_tridiagonal(lower, diag - curvature(theta), upper, g)

    # the previous iterate of this descent and its chord step, both
    # since the last factorization; None when there is no such iterate
    previous = None

    def refactor(theta):
        nonlocal previous
        previous = None
        ops.lu = None  # release the old factor before building the new one
        jacobian = (lap - sp.diags(curvature(theta))).tocsc()
        ops.lu = _factorize(jacobian)

    def chord_solve(g):
        return ops.lu.solve(g.ravel()).reshape(grid.shape)

    def chord_direction(theta, g, size, last):
        nonlocal previous
        fresh = ops.lu is None or size * CHORD_CONTRACTION > last
        if fresh:
            refactor(theta)
        step = chord_solve(g)
        if not fresh and np.sum(w * g * step) <= 0.0:
            refactor(theta)  # the stale factor gives no descent direction
            step = chord_solve(g)
        direction = step
        if previous is not None:
            mixed = _mixed_step(theta, step, *previous)
            if np.sum(w * g * mixed) > 0.0:  # else not a descent direction
                direction = mixed
        previous = theta, step
        return direction

    newton_direction = exact_direction if grid.dim == 1 else chord_direction

    def descend(theta, cold):
        nonlocal previous
        previous = None  # the mixing history never crosses descents
        if cold:
            ops.lu = None  # a cold solve depends on its inputs alone
        last = np.inf
        for _ in range(opts.max_iters):
            g = strong_grad(theta)
            size = np.abs(g).max()
            if size <= strong_tol:
                return theta
            direction = newton_direction(theta, g, size, last)
            theta = _armijo_step(theta, g, direction, w, energy_increment)
            last = size
        raise SolverError(
            "nonlinear solve did not converge within max_iters",
            last_iterate=ScalarField(theta, grid),
            residual=float(np.abs(strong_grad(theta)).max()),
        )

    collapsed = 10.0 * opts.init_floor
    cold = np.maximum(K - m_vals, opts.init_floor)
    warm = theta0 is not None and theta0.values.max() > opts.init_floor
    theta = descend(np.maximum(theta0.values, 0.0) if warm else cold, cold=not warm)
    if theta.max() <= collapsed and warm:
        theta = descend(cold, cold=True)  # the warm start collapsed; retry cold
    if theta.max() <= collapsed:
        warnings.warn(
            "nonlinear payoff solve returned the trivial zero branch",
            TrivialBranchWarning,
            stacklevel=2,
        )
        theta = np.zeros(grid.shape)
    return ScalarField(theta, grid)


def _solve_tridiagonal(lower, diag, upper, rhs):
    """Solve the tridiagonal system with LAPACK's dgtsv (partial pivoting).

    Raises SolverError on an exactly zero pivot, as a singular splu does.
    """
    *_, x, info = dgtsv(lower, diag, upper, rhs.reshape(-1, 1))
    _check_pivots(info)
    return x.reshape(rhs.shape)


def _mixed_step(theta, step, theta_prev, step_prev):
    """Anderson(1) (secant) mixing of a chord step with the previous one.

    The chord iteration is the fixed-point map theta -> theta - step;
    depth-one Anderson mixing (Walker & Ni 2011) replaces its step by
    step - gamma (dstep - dtheta), where dstep and dtheta are the changes
    since the previous iterate and gamma = <dstep, step> / <dstep, dstep>
    minimizes the norm of step - gamma dstep.  Returns step itself when
    the mixed step is not finite.
    """
    d_step = step - step_prev
    denom = float(np.vdot(d_step, d_step))
    if not denom > 0.0:
        return step
    gamma = float(np.vdot(d_step, step)) / denom
    mixed = step - gamma * (d_step - (theta - theta_prev))
    return mixed if np.isfinite(mixed).all() else step


def _energy_increment(lap, w, K, m, mu, theta, delta):
    """Exact J(theta+delta) - J(theta) of the harvesting energy.

    The objective is cubic in theta, so the difference has a closed form
    free of the large-magnitude cancellation of evaluating J twice.
    """
    quad = delta.ravel() @ (w.ravel() * (lap @ (theta + 0.5 * delta).ravel()))
    # numpy sends an array **3 to libm pow per element, about 50x slower
    # than multiplying; delta**2 is np.square, bit-equal to delta * delta
    d2 = delta * delta
    d_primitive = (
        (theta * (K - theta) - m * theta) * delta
        + 0.5 * (K - 2.0 * theta - m) * d2
        - d2 * delta / 3.0
    )
    return quad - np.sum(w * d_primitive) / mu


def _armijo_step(theta, g, direction, w, energy_increment, sigma=1e-4):
    """One projected backtracking step along the Newton direction,
    falling back to the raw gradient.  Sufficient decrease is tested on
    the exact energy increment.  Raises SolverError when no step passes.
    """
    for d in (direction, g):
        alpha = 1.0
        for _ in range(60):
            cand = np.maximum(theta - alpha * d, 0.0)
            delta = cand - theta
            decrease = np.sum(w * g * delta)
            if decrease < 0.0 and energy_increment(theta, delta) <= sigma * decrease:
                return cand
            alpha /= 2.0
    raise SolverError("nonlinear line search stalled", residual=float(np.abs(g).max()))


def pde_residual(model: ModelSpec, m: ScalarField, theta: ScalarField) -> float:
    """Max norm of the discrete PDE residual of theta for the model."""
    grid = grid_of(m, theta)
    m_vals, th = m.values, theta.values
    lap_theta = (_operators(model, grid).lap @ th.ravel()).reshape(grid.shape)
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
