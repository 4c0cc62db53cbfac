"""Convergence studies and equilibrium certificates.

Time along a flow trajectory is measured by the cumulative transported
mass (the sum of accepted step sizes), which is the intrinsic time
variable of the underlying TV flow.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .eikonal import TargetSet, solve_eikonal
from .elliptic import ModelSpec, pde_residual, solve_linear, solve_nonlinear
from .flow import FlowConfig, FlowResult, nash_gap, run_flow, select_lowest_income
from .grid import integrate, make_grid
from .measures import Density, ScalarField, grid_of, normalize, random_density


class StudyError(RuntimeError):
    """A study run failed; carries the failing level."""


@dataclass
class RefinementStudy:
    """Results of the step-size refinement study.

    Each level k runs the flow with fixed step eps0 / 2^k.  sup_tv[k]
    is the supremum over the common time window of the TV distance
    between the level-k and level-(k+1) trajectories, both read as
    piecewise-constant functions of transported mass.
    """

    eps0: float
    epsilons: list[float]
    sup_tv: list[float]
    t_grid: np.ndarray
    runtimes: list[float]


@dataclass(frozen=True)
class StressRow:
    seed: int
    variant: str
    iterations: int
    converged: bool
    final_residual: float


def functional_trace(result: FlowResult, variant: str):
    """Objective value against transported mass for a finished run.

    The best-response flow minimizes the Nash gap (max theta minus the
    worst income on the support); the eikonal flow minimizes the top
    income sup theta.  Returns (t, phi) arrays with one entry per
    accepted iteration, the first at t = 0.
    """
    if not result.records:
        raise ValueError("flow result carries no records")
    t = np.array([rec.mass_cum for rec in result.records])
    if variant == "best_response":
        phi = np.array([rec.residual for rec in result.records])
    elif variant == "eikonal":
        phi = np.array([rec.sup_theta for rec in result.records])
    else:
        raise ValueError(f"unknown flow variant {variant!r}")
    return t, phi


def _sample_trajectory(densities, eps, t):
    # piecewise-constant in transported mass: m^{floor(t/eps)}
    idx = min(int(t / eps), len(densities) - 1)
    return densities[idx]


def refinement_study(
    model: ModelSpec,
    m0: Density,
    eps0: float = 0.1,
    pairs: int = 6,
    t_grid: np.ndarray | None = None,
    variant: str = "best_response",
    tau: float | None = None,
    max_outer: int = 100,
) -> RefinementStudy:
    """Trajectory distance between consecutive step-size refinements.

    Runs pairs+1 fixed-step flows at eps0 / 2^k, k = 0..pairs, and
    reports the sup-TV distance between each consecutive pair of
    trajectories.  t_grid defaults to 100 uniform samples of the time
    window covered by every level.
    """
    if pairs < 1:
        raise ValueError("need at least one consecutive pair")
    grid = grid_of(m0)
    w = grid.quad_weights
    epsilons = [eps0 / 2**k for k in range(pairs + 1)]
    trajectories = []
    runtimes = []
    for k, eps in enumerate(epsilons):
        cfg = FlowConfig(
            variant=variant,
            eps0=eps0,
            tau=tau,
            max_outer=max_outer,
            fixed_eps=eps,
            keep_trajectory=True,
        )
        start = time.perf_counter()
        result = run_flow(model, m0, cfg)
        runtimes.append(time.perf_counter() - start)
        if result.termination in ("step_failed", "solver_failed"):
            raise StudyError(
                f"refinement level {k} (eps={eps!r}) stopped: {result.termination}"
            )
        trajectories.append(result.densities)
    if t_grid is None:
        horizon = min(
            eps * (len(traj) - 1) for eps, traj in zip(epsilons, trajectories)
        )
        t_grid = np.linspace(0.0, horizon, 100)
    sup_tv = []
    for k in range(pairs):
        dist = 0.0
        for t in t_grid:
            a = _sample_trajectory(trajectories[k], epsilons[k], t)
            b = _sample_trajectory(trajectories[k + 1], epsilons[k + 1], t)
            dist = max(dist, float(np.sum(w * np.abs(a - b))))
        sup_tv.append(dist)
    return RefinementStudy(
        eps0=eps0,
        epsilons=epsilons,
        sup_tv=sup_tv,
        t_grid=np.asarray(t_grid),
        runtimes=runtimes,
    )


def stress_test(model: ModelSpec, grid, cfg: FlowConfig, seeds) -> list[StressRow]:
    """Run both flow variants from seeded random initial densities.

    Deterministic given the seed list; rows come back ordered by seed
    then variant.  Non-convergence is recorded, not raised.
    """
    rows = []
    for seed in seeds:
        for variant in ("best_response", "eikonal"):
            m0 = random_density(seed, grid)
            result = run_flow(model, m0, replace(cfg, variant=variant))
            rows.append(
                StressRow(
                    seed=int(seed),
                    variant=variant,
                    iterations=result.iterations,
                    converged=result.converged,
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
    violation = float(np.sum(grid.quad_weights[outside] * m.values[outside]))
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
    v = solve_eikonal(grid, TargetSet(mask=target, zeta=0.0))
    err = float(np.abs(v.values - (1.0 - grid.axes[0])).max())
    checks.append(("1D distance field", err <= 1e-12, f"error={err:.1e}"))

    errors = []
    for n in (40, 80):
        g2 = make_grid(2, n)
        mask = np.zeros(g2.shape, dtype=bool)
        mask[-1, -1] = True
        v2 = solve_eikonal(g2, TargetSet(mask=mask, zeta=0.0))
        X, Y = g2.coords()
        errors.append(float(np.abs(v2.values - np.hypot(X - 1.0, Y - 1.0)).max()))
    checks.append(("2D distance field exact at every n", max(errors) <= 1e-12,
                   f"errors={[f'{e:.2e}' for e in errors]}"))
    return checks
