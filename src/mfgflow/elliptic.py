"""Payoff solvers: the elliptic PDE mapping a player density m to theta[m].

Two payoff models are supported on [0,1]^d with homogeneous Neumann
boundary conditions (second-order ghost-node reflection):

* linear:    -mu Lap(theta) + P(x) theta = f(x) - m
* nonlinear: -mu Lap(theta) = theta (K(x) - theta) - m theta

The linear problem is a direct solve.  In 1D it runs on LAPACK's
tridiagonal LU (dgttrf/dgttrs), factorized once per model and grid.  In
2D the node-centred -Lap with reflected Neumann rows is diagonalized by
the two-dimensional type-1 discrete cosine transform (G. Strang, "The
Discrete Cosine Transform", SIAM Review 41(1), 1999), so with P
constant on the grid one transform pair solves the system exactly; a P
that varies over the grid keeps a SuperLU factor per model and grid.
The nonlinear problem is solved by minimizing the energy

    J(theta) = 1/2 int |grad theta|^2 - (1/mu) int F(theta),

with F the primitive (fixed by F(0)=0) of the right-hand side, under the
constraint theta >= 0.  The nonlinear equation always admits the trivial
branch theta == 0.  The minimization takes Newton directions: on 1D
grids the exact one, from the tridiagonal Jacobian solved by LAPACK at
every step, and on 2D grids an inexact one, from conjugate gradients
preconditioned by the shifted -Lap through the cosine transform.  It
accepts a step only when a projected Armijo test on the exact energy
increment passes, and starts from a positive initialization; a pure Newton
iteration on the equation would treat theta == 0 as just another root.
K must be positive somewhere; otherwise theta == 0 is the only solution
and the model is rejected.

What a model needs on one grid (one operator: the linear system, or
-Lap for the harvesting model, as three bands on a 1D grid, where no
sparse matrix is built; in 2D, its cosine-transform eigenvalues; the
factorized linear system; the coefficients on the grid) is built once
per model and grid and cached on the model.  So is the payoff of the
last density solve_payoff solved cold (no theta0), keyed on the bytes
of its node values: a flow starts with such a solve, and the levels of
a refinement study, or the two variants of a stress test seed, start
from one density on one model, which is then solved once.  scipy.fft is
imported on the first 2D solve, so that 1D runs never load it.
"""

from __future__ import annotations

import math
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


@dataclass(frozen=True)
class NonlinearSolveOptions:
    """Tolerances for the nonlinear energy minimization, read by every solve_nonlinear.

    grad_tol is interpreted against the energy gradient scaled by the
    per-node grid weight, i.e. the solve stops once the strong-form
    stationarity residual max |Lap(theta) + F'(theta)/mu| drops below
    grad_tol / spacing^dim.  max_iters caps the Newton steps of one
    descent.  The benchmark's flows take at most 6 (exact steps, 1D) and
    5 (inexact CG steps, 2D), but a flow can need far more: on
    nonlinear-randcos2d seed 5 at 51^2 one solve takes 199, so with the
    default 50 both variants end solver_failed after 5 steps (at 7.65
    and 8.07 tau); a cap of 400 converges in 11 and 14 steps.
    """

    grad_tol: float = 1e-8
    max_iters: int = 50

    def __post_init__(self):
        if self.grad_tol <= 0.0:
            raise ValueError("grad_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


# The payoff-model kinds and the coefficients each reads and requires.
COEFFICIENTS = {"linear": ("P", "f"), "nonlinear": ("K",)}


@dataclass(frozen=True)
class ModelSpec:
    """Descriptor of the payoff PDE, an immutable value.

    kind is a key of COEFFICIENTS, and the model takes exactly the
    coefficients listed there: a missing one, or one its kind does not
    read, is refused by name.  mu is a real number; each coefficient a
    real number or an array matching the solve grid (a model has no
    grid of its own), broadcast at solve time.  Neither may be a bool.
    An array is kept as a read-only float64 copy, apart from the
    caller's.  Instances cache their operators per grid, one entry per
    (dim, n); dataclasses.replace builds a model with an empty cache.
    """

    kind: str
    mu: float
    P: np.ndarray | float | None = None
    f: np.ndarray | float | None = None
    K: np.ndarray | float | None = None
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in COEFFICIENTS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        needed = COEFFICIENTS[self.kind]
        for name in ("mu", "P", "f", "K"):
            value = getattr(self, name)
            if name not in ("mu", *needed) and value is not None:
                raise ValueError(f"a {self.kind} model has no coefficient {name!r}")
            if isinstance(value, ScalarField):
                raise ValueError(f"{name} is a ScalarField; pass its .values")
            if isinstance(value, (bool, np.bool_)):
                raise ValueError(f"{name} must be a real number, got {type(value).__name__}")
        if not isinstance(self.mu, numbers.Real):
            raise ValueError(f"mu must be a real number, got {type(self.mu).__name__}")
        if not np.isfinite(self.mu) or self.mu <= 0.0:
            raise ValueError("viscosity mu must be positive and finite")
        if any(getattr(self, name) is None for name in needed):
            raise ValueError(f"{self.kind} model needs {' and '.join(needed)}")
        for name in needed:
            coef = getattr(self, name)
            if not isinstance(coef, numbers.Real):
                coef = np.array(coef, dtype=float)
                coef.flags.writeable = False
                object.__setattr__(self, name, coef)
            if not np.isfinite(coef).all():
                raise ValueError(f"{name} must be finite everywhere")
            if self.kind == "linear" and np.min(coef) < 0.0:
                raise ValueError(f"{name} must be nonnegative")
            if np.max(coef) <= 0.0:
                raise ValueError(f"{name} must be positive somewhere")

    @classmethod
    def linear(cls, mu, P, f) -> "ModelSpec":
        return cls(kind="linear", mu=mu, P=P, f=f)

    @classmethod
    def nonlinear(cls, mu, K) -> "ModelSpec":
        return cls(kind="nonlinear", mu=mu, K=K)

    def coefficient(self, name: str, grid: Grid) -> np.ndarray:
        """One of the coefficients COEFFICIENTS lists for the model's kind, on the grid."""
        if name not in COEFFICIENTS[self.kind]:
            raise ValueError(f"a {self.kind} model has no coefficient {name!r}")
        return np.broadcast_to(np.asarray(getattr(self, name), dtype=float), grid.shape)


def _laplacian_bands(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sub-, main and superdiagonal of the 1D -Lap: the central stencil,
    with theta[-1] = theta[1] in the boundary rows.  The 1 / dx^2 is
    multiplied in, as scipy.sparse divides a matrix by a scalar.
    """
    n, scale = grid.n, 1 / grid.spacing**2
    lower = np.full(n, -1.0)
    upper = np.full(n, -1.0)
    lower[-1] = upper[0] = -2.0  # reflected ghost nodes of rows n and 0
    return lower * scale, np.full(n + 1, 2.0) * scale, upper * scale


def neumann_laplacian(grid: Grid) -> sp.csr_matrix:
    """Matrix of -Lap with ghost-node reflected Neumann rows.

    Acts on flattened node values; the solvers build it in 2D only.
    """
    lap1 = sp.diags(_laplacian_bands(grid), [-1, 0, 1], format="csr")
    if grid.dim == 1:
        return lap1
    eye = sp.identity(grid.n + 1, format="csr")
    return (sp.kron(lap1, eye) + sp.kron(eye, lap1)).tocsr()


def _product(op, x: np.ndarray) -> np.ndarray:
    """Product of a sparse matrix, or of its three bands on a 1D grid,
    with node values x.  The bands add a CSR row's terms in its order.
    """
    if type(op) is not tuple:
        return (op @ x.ravel()).reshape(x.shape)
    lower, diag, upper = op
    out = diag * x
    out[1:] += lower * x[:-1]
    out[:-1] += upper * x[1:]
    return out


# The 2D Newton direction's conjugate gradients stop once the residual
# of J d = g falls below this fraction of g, in the weighted norm, or
# after NEWTON_CG_MAX_ITERS steps.
NEWTON_CG_RTOL = 1e-2
NEWTON_CG_MAX_ITERS = 100

# Positive floor of a nonlinear solve's cold start (see solve_nonlinear).
INIT_FLOOR = 1e-3

# Accepted normwise backward error of a linear solve, in units of the
# unit roundoff.  Correct 2D solves measure at most 4.8 on the cosine
# transform (both linear 2D presets, flows at 101^2 and single solves
# at 201^2 and 401^2) and 4.4 on SuperLU (P = 0.5 + x + y, flows at
# 41^2 and 101^2); the 1D dgttrs solves measure at most 1.23 / 1.42 / 1.27 / 1.76 at
# n = 1e3 / 1e4 / 1e5 / 1e6 (three linear presets, uniform and two
# random densities).
BACKWARD_ERROR_FACTOR = 64.0
_BACKWARD_ERROR_UNIT = BACKWARD_ERROR_FACTOR * np.finfo(float).eps / 2.0


@dataclass
class _Operators:
    """What a model needs on one grid, built once and cached on the model."""

    # the model's operator, as (sub, main, super) bands in 1D and sparse
    # in 2D: mu (-Lap) + diag(P) for the linear model, and -Lap with
    # reflected Neumann rows for the harvesting model
    op: tuple | sp.csr_matrix | sp.csc_matrix
    # the model's coefficients on the grid, by name as COEFFICIENTS lists them
    coefs: dict[str, np.ndarray]
    # factorization of op (linear model): dgttrf's outputs in 1D, SuperLU
    # in 2D when P varies over the grid; None otherwise
    lu: object
    norm: float | None  # max row sum of |op| (linear model); None otherwise
    # on a 2D grid, the eigenvalues of op in the cosine basis, unless P
    # varies over the grid; None otherwise
    eig: np.ndarray | None
    # the last cold solve_payoff: the bytes of its density's node values
    # and a private copy of its theta; None before the first
    start: tuple[bytes, np.ndarray] | None = None


def _factorize(matrix: sp.csc_matrix):
    """SuperLU factor of a 2D operator, in the MMD ordering of A^T + A."""
    try:
        return splu(matrix, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:  # singular factorization
        raise SolverError(f"payoff operator is singular: {exc}") from exc


def _check_pivots(info):
    """Raise SolverError on an exactly zero LAPACK pivot, as a singular splu does."""
    if info > 0:
        raise SolverError(f"payoff operator is singular: zero pivot in row {info}")


def _laplacian_eigenvalues(grid: Grid) -> np.ndarray:
    """Eigenvalues of the 2D -Lap in the type-1 cosine basis, one per node.

    cos(pi j i / n) over the nodes i = 0..n is an eigenvector of the 1D
    -Lap with reflected Neumann rows, with eigenvalue
    (2 - 2 cos(pi j / n)) / dx^2; the 2D operator is the Kronecker sum.
    """
    lam = (2.0 - 2.0 * np.cos(np.pi * np.arange(grid.n + 1) / grid.n)) / grid.spacing**2
    return lam[:, None] + lam[None, :]


def _dct_solve(eig: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the 2D system whose cosine-basis eigenvalues are eig.

    dctn and idctn of type 1 are an exact inverse pair; scipy.fft is
    imported here, on the first 2D solve, since it costs about 70 ms.
    """
    from scipy.fft import dctn, idctn

    return idctn(dctn(rhs, type=1) / eig, type=1, overwrite_x=True)


def _operators(model: ModelSpec, grid: Grid) -> _Operators:
    key = (grid.dim, grid.n)
    ops = model._cache.get(key)
    if ops is None:
        coefs = {name: model.coefficient(name, grid) for name in COEFFICIENTS[model.kind]}
        op = _laplacian_bands(grid) if grid.dim == 1 else neumann_laplacian(grid)
        lu = norm = eig = None
        if model.kind == "linear":
            P = coefs["P"]
            if grid.dim == 1:
                # to the bit the bands of the assembled (mu lap + diag(P)).tocsc()
                lower, diag, upper = (model.mu * band for band in op)
                op = (lower, diag + P, upper)
                *lu, info = dgttrf(*op)
                _check_pivots(info)
            else:
                op = (model.mu * op + sp.diags(P.ravel())).tocsc()
                if P.min() == P.max():
                    eig = model.mu * _laplacian_eigenvalues(grid) + P.flat[0]
                else:
                    lu = _factorize(op)
            # every row of |-Lap| sums to 4 dim / dx^2, reflected rows too,
            # and P >= 0: within one ulp of the summed max row of |op|
            norm = model.mu * (4.0 * grid.dim / grid.spacing**2) + float(P.max())
        elif grid.dim == 2:
            eig = _laplacian_eigenvalues(grid)
        ops = model._cache[key] = _Operators(op, coefs, lu, norm, eig)
    return ops


def solve_linear(model: ModelSpec, m: ScalarField) -> ScalarField:
    """Solve -mu Lap(theta) + P theta = f - m by a direct method.

    The operator, in the form its solve needs, and f on the grid are
    cached on the model (they depend only on the grid, mu, P and f).  In
    1D the operator is tridiagonal: it is factorized by LAPACK's dgttrf
    and solved by dgttrs, and its product with theta is taken on its
    three bands.  In 2D with P constant on the grid the operator is
    diagonal in the type-1 cosine basis, with eigenvalues
    mu (lambda_j + lambda_k) + P, and one transform pair solves it; a P
    that varies over the grid is factorized by SuperLU in the MMD
    ordering of A^T + A.  The solve is accepted
    when its normwise backward error is a small multiple of the unit
    roundoff:
    ||A theta - b|| <= BACKWARD_ERROR_FACTOR * u * (||A|| ||theta|| + ||b||)
    in the max norm, ||A|| = 4 dim mu / dx^2 + max P in closed form; a
    test against ||b|| alone would reject correct solves on fine grids.
    A theta that is not finite is rejected before the test.
    """
    if model.kind != "linear":
        raise ValueError("solve_linear needs a linear model")
    grid = grid_of(m)
    ops = _operators(model, grid)
    rhs = (ops.coefs["f"] - m.values).ravel()
    if grid.dim == 1:
        theta, _ = dgttrs(*ops.lu, rhs)
    elif ops.eig is None:
        theta = ops.lu.solve(rhs)
    else:
        theta = _dct_solve(ops.eig, rhs.reshape(grid.shape)).ravel()
    # |A theta - b| in the product's own storage; ufunc reductions
    # straight, without the ndarray.max wrapper
    product = _product(ops.op, theta)
    resid = np.maximum.reduce(np.abs(np.subtract(product, rhs, out=product), out=product))
    theta_norm = np.maximum.reduce(np.abs(theta))
    if not math.isfinite(theta_norm):
        raise SolverError(
            f"linear solve is not finite (max |theta| {theta_norm})", residual=resid
        )
    # adding ||b|| >= 0 can only raise the bound, and rounding is
    # monotone, so a residual within the bound without it passes the
    # full test too; ||b|| is read only for a residual that does not
    scaled = ops.norm * theta_norm
    if not resid <= _BACKWARD_ERROR_UNIT * scaled:
        bound = _BACKWARD_ERROR_UNIT * (scaled + np.maximum.reduce(np.abs(rhs)))
        if not resid <= bound:
            raise SolverError(
                f"linear solve residual {resid:.3e} exceeds tolerance {bound:.3e}",
                residual=resid,
            )
    return ScalarField(theta.reshape(grid.shape), grid)


def solve_nonlinear(
    model: ModelSpec,
    m: ScalarField,
    theta0: ScalarField | None = None,
) -> ScalarField:
    """Minimize the payoff energy under theta >= 0.

    Projected Newton descent with Armijo backtracking.  The direction
    solves J d = g, where g is the strong-form energy gradient
    -Lap(theta) - F'(theta)/mu and J = -Lap - diag(F''(theta)/mu) its
    Jacobian; each step evaluates F'(theta) and F''(theta) once, and g,
    J and its energy increments share them.  On a 1D grid J is
    tridiagonal: every step takes the exact Newton direction from
    LAPACK's dgtsv on the bands of -Lap, and no factor is kept.  On a
    2D grid the direction is an inexact Newton one from conjugate
    gradients (see _newton_cg), which keep no state between steps or
    solves.  A step is accepted only when the exact energy increment
    passes the Armijo test; the raw gradient is tried when the Newton
    direction fails it.

    Initialization is max(K - m, INIT_FLOOR) unless theta0 (a warm
    start) is supplied; the positive start and the energy test steer
    the iteration away from the trivial critical point theta == 0.  A
    warm start that collapses onto it is retried from the cold start.

    Returns the zero field (with a TrivialBranchWarning) when the solve
    collapses onto the trivial branch, i.e. when no positive solution is
    found.  Raises SolverError if NonlinearSolveOptions().max_iters is
    exhausted, the line search stalls or a 1D Jacobian is singular.
    """
    if model.kind != "nonlinear":
        raise ValueError("solve_nonlinear needs a nonlinear model")
    opts = NonlinearSolveOptions()
    grid = grid_of(m) if theta0 is None else grid_of(m, theta0)
    ops = _operators(model, grid)
    lap, w = ops.op, grid.quad_weights
    K = ops.coefs["K"]
    m_vals = m.values
    mu = model.mu
    strong_tol = opts.grad_tol / grid.spacing**grid.dim

    def strong_grad(theta):
        # F'(theta), the right-hand side, whose primitive (fixed by
        # F(0) = 0) is K theta^2/2 - theta^3/3 - m theta^2/2, and the
        # residual of -Lap(theta) - F'(theta)/mu, nodewise
        fprime = theta * (K - theta) - m_vals * theta
        return fprime, _product(lap, theta) - fprime / mu

    def descend(theta):
        for _ in range(opts.max_iters):
            fprime, g = strong_grad(theta)
            # ufunc reductions straight, without the ndarray.max wrapper
            if np.maximum.reduce(np.abs(g), axis=None) <= strong_tol:
                return theta
            fsecond = K - 2.0 * theta - m_vals
            if grid.dim == 1:
                lower, diag, upper = lap
                direction = _solve_tridiagonal(lower, diag - fsecond / mu, upper, g)
            else:
                direction = _newton_cg(lap, ops.eig, w, fsecond / mu, g)
            increment = partial(_energy_increment, lap, w, mu, fprime, fsecond)
            theta = _armijo_step(theta, g, direction, w, increment)
        raise SolverError(
            "nonlinear solve did not converge within max_iters",
            last_iterate=ScalarField(theta, grid),
            residual=float(np.abs(strong_grad(theta)[1]).max()),
        )

    collapsed = 10.0 * INIT_FLOOR
    cold = np.maximum(K - m_vals, INIT_FLOOR)
    warm = theta0 is not None and theta0.values.max() > INIT_FLOOR
    theta = descend(np.maximum(theta0.values, 0.0) if warm else cold)
    if theta.max() <= collapsed and warm:
        theta = descend(cold)  # the warm start collapsed; retry cold
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


def _newton_cg(lap, eig, w, c, g):
    """Approximate solution d of (-Lap - diag(c)) d = g on a 2D grid.

    Conjugate gradients in the inner product <u, v> = sum(w u v) of the
    quadrature weights w, in which -Lap, and so the Jacobian, is
    self-adjoint.  The preconditioner is (-Lap + sigma)^-1, applied
    through the cosine transform (eig holds the eigenvalues of -Lap),
    with sigma = max(mean(-c), 1).  The iteration stops once the
    residual's weighted norm is at most NEWTON_CG_RTOL times that of g,
    or after NEWTON_CG_MAX_ITERS steps.  On non-positive curvature it
    stops too and returns the last iterate, or g when there is none.  Every iterate d has
    <g, d> > 0, so it is a descent direction of the energy.
    """
    precond = eig + max(float(np.mean(-c)), 1.0)
    stop = NEWTON_CG_RTOL**2 * np.sum(w * g * g)
    d = None
    r = g
    z = _dct_solve(precond, r)
    p = z
    rz = np.sum(w * r * z)
    for _ in range(NEWTON_CG_MAX_ITERS):
        q = _product(lap, p) - c * p
        curvature = np.sum(w * p * q)
        if not curvature > 0.0:
            break
        alpha = rz / curvature
        d = alpha * p if d is None else d + alpha * p
        r = r - alpha * q
        if np.sum(w * r * r) <= stop:
            break
        z = _dct_solve(precond, r)
        rz, rz_prev = np.sum(w * r * z), rz
        p = z + (rz / rz_prev) * p
    return g if d is None else d


def _energy_increment(lap, w, mu, fprime, fsecond, theta, delta):
    """Exact J(theta+delta) - J(theta) of the harvesting energy.

    The objective is cubic in theta, so the difference has a closed form
    in F'(theta) and F''(theta), free of the cancellation of taking J twice.
    """
    # np.add.reduce: np.sum without its wrapper, and no BLAS dot, which OpenBLAS may thread
    quad = np.add.reduce(delta * (w * _product(lap, theta + 0.5 * delta)), axis=None)
    # numpy sends an array **3 to libm pow per element, about 50x slower
    # than multiplying; delta**2 is np.square, bit-equal to delta * delta
    d2 = delta * delta
    d_primitive = fprime * delta + 0.5 * fsecond * d2 - d2 * delta / 3.0
    return quad - np.add.reduce(w * d_primitive, axis=None) / mu


def _armijo_step(theta, g, direction, w, energy_increment, sigma=1e-4):
    """One projected backtracking step along the Newton direction,
    falling back to the raw gradient (unless that is the direction).
    Sufficient decrease is tested on the exact energy increment.  Raises
    SolverError when no step passes.
    """
    wg = w * g
    for d in (direction,) if direction is g else (direction, g):
        alpha = 1.0
        for _ in range(60):
            cand = np.maximum(theta - alpha * d, 0.0)
            delta = cand - theta
            decrease = np.add.reduce(wg * delta, axis=None)
            if decrease < 0.0 and energy_increment(theta, delta) <= sigma * decrease:
                return cand
            alpha /= 2.0
    raise SolverError("nonlinear line search stalled", residual=float(np.abs(g).max()))


def pde_residual(model: ModelSpec, m: ScalarField, theta: ScalarField) -> float:
    """Max norm of the discrete PDE residual of theta for the model; for
    the linear model, the residual solve_linear's backward-error test
    bounds, on the cached system."""
    grid = grid_of(m, theta)
    m_vals, th = m.values, theta.values
    ops = _operators(model, grid)
    if model.kind == "linear":
        res = _product(ops.op, th) - (ops.coefs["f"] - m_vals)
    else:
        res = model.mu * _product(ops.op, th) - th * (ops.coefs["K"] - th) + m_vals * th
    return float(np.abs(res).max())


def plateau_density(model: ModelSpec, grid: Grid, theta_bar: float) -> ScalarField:
    """The node values m for which theta == theta_bar solves the payoff PDE.

    The Laplacian of a constant vanishes, which leaves m = f - P theta_bar
    (linear) or m = K - theta_bar (harvesting).  The flow rebuilds mass
    on the payoff plateau up to this height.
    """
    c = _operators(model, grid).coefs
    values = c["f"] - c["P"] * theta_bar if model.kind == "linear" else c["K"] - theta_bar
    return ScalarField(values, grid)


def solve_payoff(
    model: ModelSpec, m: ScalarField, theta0: ScalarField | None = None
) -> ScalarField:
    """Dispatch to the solver matching the model kind.

    theta0 warm-starts the nonlinear solve; the linear solve is direct
    and ignores it.  A cold call (theta0 None) on the node values of the
    model's last cold call on the grid, equal to the bit, returns a copy
    of that call's theta without solving again, so flows that share a
    start density solve it once.  A zero theta, such as the trivial
    branch whose TrivialBranchWarning must repeat, is not kept, and a
    SolverError leaves nothing to keep.
    """
    cold = theta0 is None
    if cold:
        grid = grid_of(m)
        ops = _operators(model, grid)
        key = m.values.tobytes()
        if ops.start is not None and ops.start[0] == key:
            return ScalarField(ops.start[1].copy(), grid)
    if model.kind == "linear":
        theta = solve_linear(model, m)
    else:
        theta = solve_nonlinear(model, m, theta0=theta0)
    if cold and theta.values.any():
        ops.start = (key, theta.values.copy())
    return theta
