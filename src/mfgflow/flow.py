"""The two total-variation minimizing-movement flows.

Each outer iteration removes a slice of mass epsilon from the current
density (the lowest-income players, or the players farthest from the
top-income region in the eikonal variant) and rebuilds it on the
payoff plateau {theta >= C} at the height that makes theta flat there,
so that the step approximates one implicit move of the corresponding
TV proximal scheme.  The step size epsilon is halved until the Nash-gap
residual strictly decreases; epsilon resets to eps0 after every
accepted step.

The eikonal target level lies TARGET_GAP_FRACTION of the Nash gap below
the top income, above the poorest supported node, so the distance
selection finds mass off the target.  Only a gap of a few ulp lets the
target swallow the support; every supported distance then ties at zero
and the income tiebreak takes the best-response slice.

Within one outer iteration theta, the distance field and the model stay
fixed across every halving, so the iterate's first trial builds a cut
that every later trial reuses: the stable selection order (ascending
theta, or descending distance with income as tiebreak) with its masses
and their cumulative sums, and the descending-theta order of the plateau
with theta_bar and the heights before m_plus, both from one stable sort
of theta and each with its keys in that order.  A trial sorts nothing: a
search of the cumulative masses finds the crossing position, a search of
the ordered keys (and tiebreaks) bounds its run, and the nodes before
the run lead the order.  The plateau's cumulative heights, summed per
trial, both decide a shortfall and place the crossing.  The sums add the
same nodes in node order as without the cut, so the results are the same
to the bit.  The cut is a pair (selection, plateau): the selections take
its selection part and redistribute its plateau part, and called without
one each builds its part on the spot.  All three refuse an eps that is
not positive, NaN included.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .eikonal import extract_target, solve_eikonal
from .elliptic import ModelSpec, SolverError, plateau_density, solve_payoff
from .grid import integrate, require_int
from .measures import (
    NORMALIZATION_TOL, Density, ScalarField, density_grid, grid_of, support, tv_distance,
)

# The eikonal variant's target holds every node whose income lies within
# this fraction of the current residual of the maximum: regions whose
# income trails the maximum by less than the unresolved gap count as part
# of the target instead of being dismantled by the distance selection.  A
# roundoff-level tolerance measurably stalls on payoffs with several
# separated maxima.
TARGET_GAP_FRACTION = 0.7

# The flow variants: a step moves the lowest-income mass, or the farthest from the target.
VARIANTS = ("best_response", "eikonal")

# The floor of the adaptive step mass, below which a run ends "eps_exhausted":
# 1e-15 is about five ulp of the unit total mass, where a move drowns in rounding.
EPS_MIN = 1e-15


class RedistributionShortfallError(RuntimeError):
    """The plateau cannot absorb eps; the step size must shrink."""


@dataclass(frozen=True)
class FlowConfig:
    """Outer-loop parameters, an immutable value.

    tau = None binds the residual tolerance to the grid spacing at run
    time.  fixed_eps disables the adaptive halving entirely: every step
    uses that value and is accepted regardless of the residual.  The
    eikonal variant measures distance to every node whose income lies
    within TARGET_GAP_FRACTION times the current residual of the maximum.
    """

    variant: str = "best_response"
    eps0: float = 0.1
    max_outer: int = 100
    tau: float | None = None
    fixed_eps: float | None = None
    keep_trajectory: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown flow variant {self.variant!r}")
        for name in ("eps0", "tau", "fixed_eps"):
            if isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be a number, not a bool")
        if require_int(self.max_outer, "max_outer") < 1:
            raise ValueError("max_outer must be at least 1")
        if not EPS_MIN <= self.eps0 <= 1.0:
            raise ValueError(f"need {EPS_MIN} <= eps0 <= 1")
        if self.tau is not None and not 0.0 < self.tau < np.inf:
            raise ValueError("tau must be positive and finite")
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
    records: list[IterationRecord]
    termination: str
    densities: list[np.ndarray] | None = field(default=None, repr=False)

    @property
    def converged(self) -> bool:
        """Whether the residual met tau."""
        return self.termination == "converged"

    @property
    def iterations(self) -> int:
        """Number of accepted outer iterations."""
        return len(self.records) - 1

    @property
    def final_residual(self) -> float:
        return self.records[-1].residual


def nash_gap(theta: ScalarField, m: ScalarField) -> float:
    """max theta minus the minimum of theta over the support of m.

    Zero exactly when every player already earns the top income; the
    flow stops once this residual falls below tau.
    """
    grid_of(theta, m)
    supported = theta.values[support(m)]
    if not supported.size:
        raise ValueError("m has empty support")
    return float(np.maximum.reduce(theta.values, axis=None) - np.minimum.reduce(supported))


@dataclass(slots=True)
class _Order:
    """A stable order of the flat nodes, with their keys in that order."""

    nodes: np.ndarray
    keys: np.ndarray  # ascending: the key, negated when the order descends
    ties: np.ndarray | None  # the ascending tiebreak within equal keys
    descending: bool


def _ascending(theta) -> np.ndarray:
    """The flat nodes in stable ascending order of theta: an iterate's one sort."""
    return np.argsort(theta.values.ravel(), kind="stable")


def _slice(mass, order, eps, cum):
    """Take eps of the flat `mass` in `order`, fractionally on the
    crossing run so the slice integrates to eps exactly.

    cum holds the cumulative masses in that order, or a prefix of them
    that reaches eps.  A search of cum finds the crossing position
    and a search of the ordered keys (and tiebreaks) bounds its run; the
    nodes before it are taken whole and its nodes scaled by one factor,
    both sums adding in node order.  Returns (flat weights in [0,1],
    crossing level).  eps must be positive (NaN is not); it may exceed
    the mass by NORMALIZATION_TOL, the slack of a Density's unit mass.
    """
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    total = cum[-1]
    if eps > total + NORMALIZATION_TOL:
        raise ValueError(f"requested mass {eps!r} exceeds available {total!r}")
    eps_eff = min(eps, total)
    at = min(int(cum.searchsorted(eps_eff, "left")), cum.size - 1)
    keys = order.keys
    lo, hi = keys.searchsorted(keys[at], "left"), keys.searchsorted(keys[at], "right")
    if order.ties is not None:
        ties, tie = order.ties[lo:hi], order.ties[at]
        lo, hi = lo + ties.searchsorted(tie, "left"), lo + ties.searchsorted(tie, "right")
    inside = np.zeros(mass.size, dtype=bool)
    inside[order.nodes[:lo]] = True
    crossing = order.nodes[lo:hi]  # in node order: the sort is stable
    mass_inside = float(np.add.reduce(mass[inside]))
    mass_level = float(np.add.reduce(mass[crossing]))
    share = (eps_eff - mass_inside) / mass_level if mass_level > 0.0 else 0.0
    weights = inside.astype(float)
    weights[crossing] = min(max(share, 0.0), 1.0)
    return weights, float(-keys[at] if order.descending else keys[at])


@dataclass(slots=True)
class _Selection:
    """The flat mass of m with its cumulative sums in removal order."""

    sources: tuple  # (m, theta, v) it was built from
    order: _Order
    mass: np.ndarray
    cum: np.ndarray


def _selection(m, theta, v, asc) -> _Selection:
    """Removal order of m by ascending theta, or by descending v then theta."""
    income = theta.values.ravel()
    if v is None:
        order = _Order(asc, income[asc], None, False)
    else:
        far = -v.values.ravel()
        # a stable sort keeps asc's income order within equal distances
        nodes = asc[np.argsort(far[asc], kind="stable")]
        order = _Order(nodes, far[nodes], income[nodes], True)
    mass = (m.grid.quad_weights * m.values).ravel()
    return _Selection((m, theta, v), order, mass, np.add.accumulate(mass[order.nodes]))


@dataclass(slots=True)
class _Plateau:
    """Descending payoff order and plateau heights before m_plus."""

    sources: tuple  # (theta, model) it was built from
    order: _Order
    theta_bar: float
    base: np.ndarray  # the plateau density at theta_bar


def _plateau(theta, model, asc) -> _Plateau:
    """The plateau of theta in descending order: asc reversed, with each run
    [s, e) of equal theta put back in node order by p -> s + e - 1 - p."""
    theta_bar = float(np.maximum.reduce(theta.values, axis=None))
    base = plateau_density(model, theta.grid, theta_bar).values
    nodes = asc[::-1]
    top = theta.values.ravel()[nodes]
    differ = top[1:] != top[:-1]
    if not differ.all():  # the map is the identity when no two nodes tie
        edges = np.flatnonzero(np.concatenate(([True], differ, [True])))
        at = np.repeat(edges[:-1] + edges[1:] - 1, np.diff(edges)) - np.arange(top.size)
        nodes, top = nodes[at], top[at]
    return _Plateau((theta, model), _Order(nodes, -top, None, True), theta_bar, base)


def _cut(m, theta, v, model) -> tuple[_Selection, _Plateau]:
    """The cut of an iterate, (selection, plateau): selection by income, or by distance v."""
    asc = _ascending(theta)
    return _selection(m, theta, v, asc), _plateau(theta, model, asc)


def _reused(part, kind, *sources):
    """A part of a cut, checked to be of this kind and from these very objects."""
    if not isinstance(part, kind):
        raise TypeError(f"cut must be a {kind.__name__}, not a {type(part).__name__}")
    if not all(map(operator.is_, part.sources, sources)):
        raise ValueError("the cut was built from another iterate")
    return part


def _select(m, income, v, eps, cut):
    """The eps slice of m in the order of income, or of distance v, and the rest."""
    selection = (_selection(m, income, v, _ascending(income)) if cut is None
                 else _reused(cut, _Selection, m, income, v))
    weights, eta = _slice(selection.mass, selection.order, eps, selection.cum)
    m_minus = m.values * weights.reshape(m.values.shape)
    return ScalarField(m_minus, m.grid), ScalarField(m.values - m_minus, m.grid), eta


def select_lowest_income(m: ScalarField, theta: ScalarField, eps: float, cut=None):
    """Split m into the eps lowest-income slice and the remainder.

    Returns (m_minus, m_plus, eta): m_minus = m on {theta < eta} plus a
    fractional share of the eta level set, with integral exactly eps;
    m_plus = m - m_minus; both are fields on m's grid.  Ties at the
    crossing level are removed proportionally, so a constant theta
    yields m_minus = eps * m.  cut is the selection part of the flow's
    cut of (m, theta), reused across halving trials; the result is the
    same without it.  Raises ValueError unless eps > 0.
    """
    grid_of(m, theta)
    return _select(m, theta, None, eps, cut)


def select_farthest(m: ScalarField, v: ScalarField, eps: float, income, cut=None):
    """Split m into the eps slice farthest from the target and the rest.

    Selection runs on descending distance v.  Distances on a grid carry
    many exact ties (in 1D they are multiples of dx); equally far nodes
    are taken poorest-first by the income field.  Mass on the target
    ties at distance zero, so when no mass sits off it the slice is the
    lowest-income one.  Returns (m_minus, m_plus, eta) as
    select_lowest_income does, and takes the selection part of the
    flow's cut and refuses eps the same way.
    """
    grid_of(m, v, income)
    return _select(m, income, v, eps, cut)


def redistribute(
    m_plus: ScalarField, theta: ScalarField, model: ModelSpec, eps: float, cut=None
):
    """Rebuild mass eps on the payoff plateau {theta >= C}.

    The added density has the height that flattens theta there, the
    plateau density at the top payoff theta_bar (elliptic.plateau_density)
    less m_plus, clamped at zero; the level C is lowered (with fractional
    weighting of the crossing level) until the added mass reaches eps
    exactly.  cut is the plateau part of the flow's cut of theta, reused
    across halving trials; the result is the same without it.

    Returns (nu, C, theta_bar), nu a field on theta's grid.  Raises
    ValueError unless eps > 0, and RedistributionShortfallError when the
    plateau heights over the whole domain cannot absorb eps.
    """
    grid = grid_of(m_plus, theta)
    plateau = (_plateau(theta, model, _ascending(theta)) if cut is None
               else _reused(cut, _Plateau, theta, model))
    height = np.maximum(plateau.base - m_plus.values, 0.0)
    mass = (grid.quad_weights * height).ravel()
    # a prefix of the sums is the sum of the prefix; the first 256 nodes held eps in
    # 8426/8426 stress-1d, 106/106 refine-1d, 866/1008 presets-1d, 10/317 presets-2d trials
    for stop in (256, None):
        cum = np.add.accumulate(mass[plateau.order.nodes[:stop]])
        if cum[-1] >= eps:
            break
    if cum[-1] < eps * (1.0 - 1e-12):
        raise RedistributionShortfallError(
            f"plateau capacity {float(cum[-1])!r} below requested mass {eps!r}"
        )
    weights, level = _slice(mass, plateau.order, eps, cum)
    nu = np.multiply(height, weights.reshape(height.shape), out=height)
    return ScalarField(nu, grid), level, plateau.theta_bar


def _distance_field(grid, theta, resid):
    """Distance to the nodes within TARGET_GAP_FRACTION * resid of max theta."""
    return solve_eikonal(grid, extract_target(theta, zeta=TARGET_GAP_FRACTION * resid))


def _trial(m, theta, v, model, eps, allow_overlap, cut):
    """One trial move of mass eps from the current iterate and its cut.

    Selects by income when v is None, else by distance v with income as
    the tiebreak.  Returns (m_new, theta_new, residual), or the reason
    the move was rejected: "shortfall" (the plateau cannot absorb eps),
    "overlap" (removal and redistribution regions overlap while
    allow_overlap is off) or "solver_failed" (the payoff solve of the
    moved density failed).  m_new is a ScalarField, a density up to
    roundoff.
    """
    selection, plateau = cut
    if v is None:
        m_minus, m_plus, _ = select_lowest_income(m, theta, eps, cut=selection)
    else:
        m_minus, m_plus, _ = select_farthest(m, v, eps, income=theta, cut=selection)
    try:
        nu = redistribute(m_plus, theta, model, eps, cut=plateau)[0].values
    except RedistributionShortfallError:
        return "shortfall"
    # nu >= 0, so the regions overlap where nu is positive under m_minus
    if not allow_overlap and np.maximum.reduce(nu[m_minus.values > 0.0], initial=0.0) > 0.0:
        return "overlap"
    m_new = m_plus.values + nu
    total = integrate(m_new, m.grid)
    if abs(total - 1.0) > 1e-12:
        m_new = m_new / total
    m_new = ScalarField(m_new, m.grid)
    try:
        theta_new = solve_payoff(model, m_new, theta0=theta)
    except SolverError:
        return "solver_failed"
    return m_new, theta_new, nash_gap(theta_new, m_new)


def run_flow(model: ModelSpec, m0: Density, cfg: FlowConfig) -> FlowResult:
    """Iterate the flow until the Nash gap falls below tau.

    Adaptive mode (fixed_eps unset) accepts a step only when the
    residual strictly decreases, halving eps otherwise; eps restarts at
    eps0 after each acceptance.  With fixed_eps every computable step
    is taken as-is, which reproduces the oscillatory non-convergent
    regime of large fixed steps.  A single move of mass eps is the run
    with eps0 = fixed_eps = eps and max_outer = 1.

    The termination reason is one of "converged" (the residual met
    tau), "max_outer" (the outer cap was hit), "eps_exhausted" (eps
    fell below EPS_MIN without lowering the residual), "shortfall" (the
    plateau cannot absorb a fixed step) or "solver_failed" (a payoff
    solve after the first failed); the result's converged reads it.
    Non-convergence is a reported outcome, not an exception; only a
    failure of the initial payoff solve raises SolverError.
    """
    grid = density_grid(m0)
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
        top = float(theta.values.max())
        records.append(IterationRecord(
            j=len(records), eps=eps, residual=resid, sup_theta=top,
            min_theta_supp=top - resid, tv_step=tv_step, mass_cum=mass_cum,
            halvings=halvings,
        ))
        if densities is not None:
            densities.append(m.values.copy())

    record(0.0, 0.0, 0)
    eps, halvings = eps_start, 0
    v = cut = None
    termination = None
    # one pass per trial; the distance field and the cut depend only on
    # the iterate, so they are built when a new iterate takes its first
    # trial and reused by every halving
    while termination is None and resid > tau and len(records) <= cfg.max_outer:
        if halvings == 0:
            if cfg.variant == "eikonal":
                v = _distance_field(grid, theta, resid)
            cut = _cut(m, theta, v, model)
        trial = _trial(m, theta, v, model, eps, not adaptive, cut)
        if trial == "solver_failed":
            termination = trial
        elif not isinstance(trial, str) and (not adaptive or trial[2] < resid):
            m_prev = m
            m, theta, resid = trial
            mass_cum += eps
            record(eps, tv_distance(m, m_prev), halvings)
            eps, halvings = eps_start, 0
        elif not adaptive:
            termination = trial  # fixed steps allow overlap: "shortfall"
        else:
            eps /= 2.0
            halvings += 1
            if eps < EPS_MIN:
                termination = "eps_exhausted"

    if termination is None:  # set in the loop only while resid > tau
        termination = "converged" if resid <= tau else "max_outer"
    return FlowResult(
        m=Density(np.maximum(m.values, 0.0), grid),
        theta=theta,
        records=records,
        termination=termination,
        densities=densities,
    )
