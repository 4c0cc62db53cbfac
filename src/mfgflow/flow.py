"""The two total-variation minimizing-movement flows.

Each outer iteration removes a slice of mass epsilon from the current
density (the lowest-income players, or the players farthest from the
top-income region in the eikonal variant) and rebuilds it on the
payoff plateau {theta >= C} at the height that makes theta flat there,
so that the step approximates one implicit move of the corresponding
TV proximal scheme.  The step size epsilon is halved until the Nash-gap
residual strictly decreases; epsilon resets to eps0 after every
accepted step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .eikonal import extract_target, solve_eikonal
from .elliptic import ModelSpec, SolverError, solve_payoff
from .grid import integrate
from .measures import (
    NORMALIZATION_TOL, Density, ScalarField, grid_of, support, tv_distance
)

# The eikonal variant's target holds every node whose income lies within
# this fraction of the current residual of the maximum: regions whose
# income trails the maximum by less than the unresolved gap count as part
# of the target instead of being dismantled by the distance selection.  A
# roundoff-level tolerance measurably stalls on payoffs with several
# separated maxima.
TARGET_GAP_FRACTION = 0.7


class RedistributionShortfallError(RuntimeError):
    """The plateau cannot absorb eps; the step size must shrink."""


@dataclass
class FlowConfig:
    """Outer-loop parameters.

    tau = None binds the residual tolerance to the grid spacing at run
    time.  fixed_eps disables the adaptive halving entirely: every step
    uses that value and is accepted regardless of the residual.  The
    eikonal variant measures distance to every node whose income lies
    within TARGET_GAP_FRACTION times the current residual of the maximum.
    """

    variant: str = "best_response"
    eps0: float = 0.1
    eps_min: float = 1e-15
    max_outer: int = 100
    tau: float | None = None
    fixed_eps: float | None = None
    keep_trajectory: bool = False

    def __post_init__(self):
        if self.variant not in ("best_response", "eikonal"):
            raise ValueError(f"unknown flow variant {self.variant!r}")
        if not 0.0 < self.eps_min <= self.eps0 <= 1.0:
            raise ValueError("need 0 < eps_min <= eps0 <= 1")
        if self.tau is not None and self.tau <= 0.0:
            raise ValueError("tau must be positive")
        if self.max_outer < 1:
            raise ValueError("max_outer must be at least 1")
        if self.fixed_eps is not None and not 0.0 < self.fixed_eps <= 1.0:
            raise ValueError("need 0 < fixed_eps <= 1")


@dataclass(frozen=True)
class IterationRecord:
    j: int
    eps: float
    residual: float
    sup_theta: float
    min_theta_supp: float
    tv_step: float
    mass_cum: float
    halvings: int


@dataclass
class FlowResult:
    m: Density
    theta: ScalarField
    converged: bool
    records: list[IterationRecord]
    termination: str
    densities: list[np.ndarray] | None = field(default=None, repr=False)

    @property
    def iterations(self) -> int:
        """Number of accepted outer iterations."""
        return len(self.records) - 1

    @property
    def final_residual(self) -> float:
        return self.records[-1].residual


def nash_gap(theta: ScalarField, m: ScalarField, rel_threshold: float = 1e-9) -> float:
    """max theta minus the minimum of theta over the support of m.

    Zero exactly when every player already earns the top income; the
    flow stops once this residual falls below tau.
    """
    grid_of(theta, m)
    mask = support(m, rel_threshold)
    if not mask.any():
        raise ValueError("m has empty support")
    th = theta.values
    return float(th.max() - th[mask].min())


def _ordered_slice(
    mass: np.ndarray,
    key: np.ndarray,
    eps: float,
    descending: bool,
    tiebreak: np.ndarray | None = None,
):
    """Take eps of `mass` in the order of `key`, fractionally at the
    crossing level so the slice integrates to eps exactly.

    Nodes sharing the crossing key value are scaled by one common
    factor; an optional tiebreak field orders equal-key nodes ascending
    before the fractional split.  Returns (per-node weights in [0,1],
    crossing level).  The slice may exceed the available mass by
    NORMALIZATION_TOL, the slack a Density's unit mass is allowed.
    """
    key_flat = key.ravel()
    mass_flat = mass.ravel()
    signed = -key_flat if descending else key_flat
    if tiebreak is None:
        order = np.argsort(signed, kind="stable")
    else:
        order = np.lexsort((tiebreak.ravel(), signed))
    cum = np.cumsum(mass_flat[order])
    total = cum[-1]
    if eps > total + NORMALIZATION_TOL:
        raise ValueError(f"requested mass {eps!r} exceeds available {total!r}")
    eps_eff = min(eps, total)
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


def select_lowest_income(m: ScalarField, theta: ScalarField, eps: float):
    """Split m into the eps lowest-income slice and the remainder.

    Returns (m_minus, m_plus, eta): m_minus = m on {theta < eta} plus a
    fractional share of the eta level set, with integral exactly eps;
    m_plus = m - m_minus; both are fields on m's grid.  Ties at the
    crossing level are removed proportionally, so a constant theta
    yields m_minus = eps * m.
    """
    grid = grid_of(m, theta)
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    m_vals, th = m.values, theta.values
    weights, eta = _ordered_slice(grid.quad_weights * m_vals, th, eps, descending=False)
    m_minus = m_vals * weights
    return ScalarField(m_minus, grid), ScalarField(m_vals - m_minus, grid), eta


def select_farthest(m: ScalarField, v: ScalarField, eps: float, income=None):
    """Split m into the eps slice farthest from the target and the rest.

    Selection runs on descending distance v.  Distances on a grid carry
    many exact ties (in 1D they are multiples of dx); when the income
    field is supplied, equally far nodes are taken poorest-first, which
    is the tiebreak the flow uses.  Returns (m_minus, m_plus, eta) as
    select_lowest_income does.  Raises ValueError when no mass sits at
    positive distance (the density already lives on the target).
    """
    grid = grid_of(m, v) if income is None else grid_of(m, v, income)
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    m_vals, v_vals = m.values, v.values
    if float(v_vals[m_vals > 0.0].max(initial=0.0)) <= 0.0:
        raise ValueError("all mass already sits on the target set")
    tiebreak = None if income is None else income.values
    weights, eta = _ordered_slice(
        grid.quad_weights * m_vals, v_vals, eps, descending=True, tiebreak=tiebreak
    )
    m_minus = m_vals * weights
    return ScalarField(m_minus, grid), ScalarField(m_vals - m_minus, grid), eta


def redistribute(m_plus: ScalarField, theta: ScalarField, model: ModelSpec, eps: float):
    """Rebuild mass eps on the payoff plateau {theta >= C}.

    The added density has the height that flattens theta there: for the
    linear model (f - P theta_bar - m_plus)+, for the harvesting model
    (K - theta_bar - m_plus)+, with theta_bar the top payoff value.
    Negative pointwise heights are clamped to zero and the level C is
    lowered (with fractional weighting of the crossing level) until the
    added mass reaches eps exactly.

    Returns (nu, C, theta_bar), nu a field on theta's grid.  Raises
    RedistributionShortfallError when the plateau heights over the whole
    domain cannot absorb eps.
    """
    grid = grid_of(m_plus, theta)
    th, mp = theta.values, m_plus.values
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    theta_bar = float(th.max())
    if model.kind == "linear":
        height = (
            model.coefficient("f", grid)
            - model.coefficient("P", grid) * theta_bar
            - mp
        )
    else:
        height = model.coefficient("K", grid) - theta_bar - mp
    height = np.maximum(height, 0.0)
    capacity = float(np.sum(grid.quad_weights * height))
    if capacity < eps * (1.0 - 1e-12):
        raise RedistributionShortfallError(
            f"plateau capacity {capacity!r} below requested mass {eps!r}"
        )
    weights, level = _ordered_slice(grid.quad_weights * height, th, eps, descending=True)
    return ScalarField(height * weights, grid), level, theta_bar


def _distance_field(grid, theta, resid):
    """Distance to the nodes within TARGET_GAP_FRACTION * resid of max theta."""
    return solve_eikonal(grid, extract_target(theta, zeta=TARGET_GAP_FRACTION * resid))


def _trial(m, theta, v, model, eps, variant, allow_overlap):
    """One trial move of mass eps from the current iterate.

    Returns (m_new, theta_new, residual), or the reason the move was
    rejected: "shortfall" (the plateau cannot absorb eps), "overlap"
    (removal and redistribution regions overlap while allow_overlap is
    off) or "solver_failed" (the payoff solve of the moved density
    failed).  m_new is a ScalarField, a density up to roundoff.
    """
    if variant == "best_response":
        m_minus, m_plus, _ = select_lowest_income(m, theta, eps)
    else:
        m_minus, m_plus, _ = select_farthest(m, v, eps, income=theta)
    try:
        nu, _, _ = redistribute(m_plus, theta, model, eps)
    except RedistributionShortfallError:
        return "shortfall"
    if not allow_overlap and bool(np.any((m_minus.values > 0.0) & (nu.values > 0.0))):
        return "overlap"
    m_new = m_plus.values + nu.values
    total = integrate(m_new, m.grid)
    if abs(total - 1.0) > 1e-12:
        m_new = m_new / total
    m_new = ScalarField(m_new, m.grid)
    try:
        theta_new = solve_payoff(model, m_new, theta0=theta)
    except SolverError:
        return "solver_failed"
    return m_new, theta_new, nash_gap(theta_new, m_new)


def flow_step(m: Density, model: ModelSpec, eps: float, variant: str = "best_response"):
    """A single move from m with step mass eps.

    Solves for theta, selects by income or distance, redistributes onto
    the plateau and re-solves.  A density whose support already lies on
    the argmax of its payoff (zero gap) is returned unchanged.
    Returns (m_next, theta_next, residual); raises RuntimeError naming
    the reason when the move is rejected.
    """
    grid = grid_of(m)
    theta = solve_payoff(model, m)
    gap = nash_gap(theta, m)
    # roundoff-floor recognizer: a flat payoff over the support means
    # the density is already a discrete fixed point
    if gap <= 1e-11 * (1.0 + abs(theta.values.max())):
        return m, theta, gap
    v = _distance_field(grid, theta, gap) if variant == "eikonal" else None
    trial = _trial(m, theta, v, model, eps, variant, allow_overlap=True)
    if isinstance(trial, str):
        raise RuntimeError(f"step of mass {eps!r} rejected: {trial}")
    m_new, theta_new, r_new = trial
    return Density(np.maximum(m_new.values, 0.0), grid), theta_new, r_new


def run_flow(model: ModelSpec, m0: Density, cfg: FlowConfig) -> FlowResult:
    """Iterate the flow until the Nash gap falls below tau.

    Adaptive mode (fixed_eps unset) accepts a step only when the
    residual strictly decreases, halving eps otherwise; eps restarts at
    eps0 after each acceptance.  The run stops when the tolerance is
    met, the outer cap is hit, eps is exhausted, the selection comes up
    empty (everything already on the target), or a payoff solve fails
    after the first.  With fixed_eps every computable step is taken
    as-is, which reproduces the oscillatory non-convergent regime of
    large fixed steps.

    Non-convergence is a reported outcome (converged=False plus a
    termination reason), not an exception; only a failure of the
    initial payoff solve raises SolverError.
    """
    grid = grid_of(m0)
    tau = cfg.tau if cfg.tau is not None else grid.spacing
    adaptive = cfg.fixed_eps is None
    eps_start = cfg.eps0 if adaptive else cfg.fixed_eps
    m = m0
    theta = solve_payoff(model, m0)
    resid = nash_gap(theta, m)
    records = []
    densities = [] if cfg.keep_trajectory else None
    mass_cum = 0.0

    def record(eps, tv_step, halvings):
        # snapshot of the current (m, theta, resid, mass_cum)
        records.append(
            IterationRecord(
                j=len(records),
                eps=eps,
                residual=resid,
                sup_theta=float(theta.values.max()),
                min_theta_supp=float(theta.values.max()) - resid,
                tv_step=tv_step,
                mass_cum=mass_cum,
                halvings=halvings,
            )
        )
        if densities is not None:
            densities.append(m.values.copy())

    record(0.0, 0.0, 0)
    eps, halvings = eps_start, 0
    v = None
    termination = None
    # one pass per trial; the distance field depends only on the
    # iterate, so it is rebuilt when a new iterate takes its first trial
    while termination is None and resid > tau and len(records) <= cfg.max_outer:
        if cfg.variant == "eikonal" and halvings == 0:
            v = _distance_field(grid, theta, resid)
            if v.values[m.values > 0.0].max() <= 0.0:
                termination = "empty_selection"
                break
        trial = _trial(m, theta, v, model, eps, cfg.variant, allow_overlap=not adaptive)
        if trial == "solver_failed":
            termination = trial
        elif not isinstance(trial, str) and (not adaptive or trial[2] < resid):
            m_prev = m
            m, theta, resid = trial
            mass_cum += eps
            record(eps, tv_distance(m, m_prev), halvings)
            eps, halvings = eps_start, 0
        elif not adaptive:
            termination = "step_failed"
        else:
            eps /= 2.0
            halvings += 1
            if eps < cfg.eps_min:
                termination = "eps_exhausted"

    converged = resid <= tau
    if termination is None:
        termination = "converged" if converged else "max_outer"
    return FlowResult(
        m=Density(np.maximum(m.values, 0.0), grid),
        theta=theta,
        converged=converged,
        records=records,
        termination=termination,
        densities=densities,
    )
