"""Convergence studies and equilibrium certificates.

Time along a flow trajectory is measured by the cumulative transported
mass (the sum of accepted step sizes), which is the intrinsic time
variable of the underlying TV flow.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .eikonal import solve_eikonal
from .elliptic import ModelSpec, pde_residual, solve_linear, solve_nonlinear
from .flow import VARIANTS, FlowConfig, FlowResult, nash_gap, run_flow, select_lowest_income
from .grid import integrate, make_grid, require_int
from .measures import (
    Density, ScalarField, density_grid, grid_of, normalize, random_density
)


class StudyError(RuntimeError):
    """A study run stopped at a level, for reason "shortfall" (the plateau
    cannot absorb the fixed step) or "solver_failed"."""

    def __init__(self, message, reason):
        super().__init__(message)
        self.reason = reason


@dataclass
class RefinementStudy:
    """Results of the step-size refinement study.

    Each level k runs the flow with fixed step epsilons[k] = eps0 / 2^k
    for at most the steps the compared window reaches (see
    refinement_study); runtimes[k] is the wall time of that capped run,
    in seconds.  Every level starts from one density on one model, so
    level 0 pays the start's payoff solve and later levels reuse it
    (see solve_payoff).  sup_tv[k] is the supremum over the
    common time window of the TV distance between the level-k and
    level-(k+1) trajectories, both read as piecewise-constant functions
    of transported mass, taken exactly: the max over every step of
    level k+1 in the window.
    """

    epsilons: list[float]
    sup_tv: list[float]
    runtimes: list[float]


@dataclass(frozen=True)
class StressRow:
    seed: int
    variant: str
    iterations: int
    termination: str  # the flow's, see run_flow
    final_residual: float

    @property
    def converged(self) -> bool:
        """Whether the residual met tau."""
        return self.termination == "converged"


def functional_trace(result: FlowResult, variant: str):
    """Objective value against transported mass for a finished run.

    The best-response flow minimizes the Nash gap (max theta minus the
    worst income on the support); the eikonal flow minimizes the top
    income sup theta.  Returns (t, phi) arrays with one entry per
    accepted iteration, the first at t = 0.
    """
    if not result.records:
        raise ValueError("flow result carries no records")
    if variant not in VARIANTS:
        raise ValueError(f"unknown flow variant {variant!r}")
    t = np.array([rec.mass_cum for rec in result.records])
    objective = "residual" if variant == "best_response" else "sup_theta"
    return t, np.array([getattr(rec, objective) for rec in result.records])


def refinement_study(
    model: ModelSpec,
    m0: Density,
    eps0: float = 0.1,
    pairs: int = 6,
    variant: str = "best_response",
    tau: float | None = None,
    max_outer: int = 100,
) -> RefinementStudy:
    """Trajectory distance between consecutive step-size refinements.

    Runs pairs+1 fixed-step flows at eps0 / 2^k, k = 0..pairs, and
    reports the sup-TV distance between each consecutive pair of
    trajectories over the time window covered by every level.  Level k
    holds its j-th density on [j, j+1) eps_k, so step j of level k+1
    meets step j // 2 of level k, and the sup is the max over those
    steps.  Raises ValueError when pairs is not an integer of at least
    one, and when the finest step is not positive, as when 2^pairs
    halves eps0 below the smallest float.

    Level k runs at most ceil(max_outer / 2^(pairs - k)) steps: a
    fixed-step trajectory depends on max_outer only where it stops, so a
    capped level is a prefix of the uncapped one, and since every cap
    covers max_outer finest steps the window and sup_tv are the same as
    with max_outer steps at every level.  Raises StudyError when a level
    stops with termination "shortfall" or "solver_failed" within its
    cap; a step past the cap is never compared, so it is never taken
    and cannot stop the study.
    """
    if require_int(pairs, "pairs") < 1:
        raise ValueError("need at least one consecutive pair")
    if not math.ldexp(eps0, -pairs) > 0.0:
        raise ValueError(f"the finest step eps0 / 2^{pairs} of eps0 = {eps0!r} is not positive")
    grid = density_grid(m0)
    # eps0 / 2^k, also where 2^k (k >= 1024) has no float
    epsilons = [math.ldexp(eps0, -k) for k in range(pairs + 1)]
    trajectories = []
    runtimes = []
    for k, eps in enumerate(epsilons):
        cap = -(-max_outer // 2 ** (pairs - k))  # ceil(max_outer / 2^(pairs - k))
        cfg = FlowConfig(variant=variant, eps0=eps0, tau=tau, max_outer=cap,
                         fixed_eps=eps, keep_trajectory=True)
        start = time.perf_counter()
        result = run_flow(model, m0, cfg)
        runtimes.append(time.perf_counter() - start)
        if result.termination in ("shortfall", "solver_failed"):
            raise StudyError(
                f"refinement level {k} (eps={eps!r}) stopped: {result.termination}",
                result.termination,
            )
        trajectories.append(result.densities)
    # the common window in whole steps of the finest level
    window = min((len(traj) - 1) << (pairs - k) for k, traj in enumerate(trajectories))
    sup_tv = []
    for k in range(pairs):
        coarse, fine = trajectories[k], trajectories[k + 1]
        steps = window >> (pairs - k - 1)
        sup_tv.append(max(
            integrate(np.abs(coarse[j // 2] - fine[j]), grid) for j in range(steps + 1)
        ))
    return RefinementStudy(epsilons=epsilons, sup_tv=sup_tv, runtimes=runtimes)


def stress_test(model: ModelSpec, grid, cfg: FlowConfig, seeds) -> list[StressRow]:
    """Run both flow variants from seeded random initial densities.

    Deterministic given the seed list; rows come back ordered by seed
    then variant.  Non-convergence is recorded, not raised.
    """
    rows = []
    for seed in seeds:
        m0 = random_density(seed, grid)
        for variant in VARIANTS:
            result = run_flow(model, m0, replace(cfg, variant=variant))
            rows.append(
                StressRow(
                    seed=int(seed),
                    variant=variant,
                    iterations=result.iterations,
                    termination=result.termination,
                    final_residual=result.final_residual,
                )
            )
    return rows


def nash_certificate(m: Density, theta: ScalarField):
    """Certificate pair for an approximate equilibrium.

    eps_nash is the Nash gap of (m, theta): no player on the support of
    m can gain more than eps_nash by relocating.  support_violation is
    the mass sitting strictly below the near-argmax level
    {theta >= max theta - eps_nash - dx}, which should vanish for a
    flow output.
    """
    grid = grid_of(m, theta)
    eps_nash = nash_gap(theta, m)
    th = theta.values
    outside = th < th.max() - eps_nash - grid.spacing
    violation = integrate(m.values * outside, grid)
    return eps_nash, violation


def verification_checks() -> list[tuple[str, bool, str]]:
    """Solver verification: manufactured solutions and exact oracles.

    Returns one (name, ok, detail) tuple per check.  `mfgflow validate`
    prints them and the acceptance suite asserts every one.
    """
    checks = []

    # second-order convergence on a manufactured Neumann-compatible
    # solution theta = 2 + cos(pi x) for m = 1; the shift keeps f
    # nonnegative
    errors = []
    for n in (100, 200, 400):
        grid = make_grid(1, n)
        x = grid.axes[0]
        model = ModelSpec.linear(
            mu=0.1, P=1.0, f=3.0 + (1.0 + 0.1 * np.pi**2) * np.cos(np.pi * x)
        )
        theta = solve_linear(model, normalize(np.ones(grid.shape), grid))
        errors.append(np.abs(theta.values - (2.0 + np.cos(np.pi * x))).max())
    orders = [float(np.log2(errors[k] / errors[k + 1])) for k in range(2)]
    checks.append(("manufactured-solution order >= 1.9", min(orders) >= 1.9,
                   f"orders={[f'{o:.3f}' for o in orders]}"))

    # the remaining 1D checks run on the finest grid, n = 400
    uniform = normalize(np.ones(grid.shape), grid)
    lin = ModelSpec.linear(mu=0.1, P=0.5, f=2.0)
    err = float(np.abs(solve_linear(lin, uniform).values - 2.0).max())
    checks.append(("constant linear solution (f-m)/P", err <= 1e-9, f"error={err:.1e}"))
    nl = ModelSpec.nonlinear(mu=0.1, K=4.0)
    theta_nl = solve_nonlinear(nl, uniform)
    err = float(np.abs(theta_nl.values - 3.0).max())
    checks.append(("constant nonlinear solution K-1", err <= 1e-6, f"error={err:.1e}"))
    res = pde_residual(nl, uniform, theta_nl)
    checks.append(("nonlinear residual", res <= 1e-5, f"residual={res:.1e}"))

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(5):
        m = normalize(rng.uniform(0.1, 1.0, grid.shape), grid)
        key = ScalarField(np.sort(rng.uniform(0.0, 1.0, grid.shape)), grid)
        m_minus, _, _ = select_lowest_income(m, key, 0.2)
        worst = max(worst, abs(integrate(m_minus.values, grid) - 0.2))
    checks.append(("level finder takes the exact mass", worst <= 1e-10,
                   f"worst error={worst:.1e}"))

    target = np.zeros(grid.shape, dtype=bool)
    target[-1] = True
    v = solve_eikonal(grid, target)
    err = float(np.abs(v.values - (1.0 - grid.axes[0])).max())
    checks.append(("1D distance field", err <= 1e-12, f"error={err:.1e}"))

    errors = []
    for n in (40, 80):
        g2 = make_grid(2, n)
        mask = np.zeros(g2.shape, dtype=bool)
        mask[-1, -1] = True
        v2 = solve_eikonal(g2, mask)
        X, Y = g2.coords()
        errors.append(float(np.abs(v2.values - np.hypot(X - 1.0, Y - 1.0)).max()))
    checks.append(("2D distance field exact at every n", max(errors) <= 1e-12,
                   f"errors={[f'{e:.2e}' for e in errors]}"))
    return checks
