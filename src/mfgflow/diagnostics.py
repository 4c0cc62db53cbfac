"""Convergence studies and equilibrium certificates.

Time along a flow trajectory is measured by the cumulative transported
mass (the sum of accepted step sizes), which is the intrinsic time
variable of the underlying TV flow.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .elliptic import ModelSpec
from .flow import FlowConfig, FlowResult, nash_gap, run_flow
from .grid import field_values
from .measures import Density, random_density


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
    grid = m0.grid
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


def nash_certificate(m, theta):
    """Certificate pair for an approximate equilibrium.

    eps_nash is the Nash gap of (m, theta): no player on the support of
    m can gain more than eps_nash by relocating.  support_violation is
    the mass sitting strictly below the near-argmax level
    {theta >= max theta - eps_nash - dx}, which should vanish for a
    flow output.
    """
    th = field_values(theta)
    m_vals = field_values(m)
    grid = theta.grid
    if th.shape != m_vals.shape:
        raise ValueError("theta and m live on different grids")
    eps_nash = nash_gap(theta, m)
    outside = th < th.max() - eps_nash - grid.spacing
    violation = float(np.sum(grid.quad_weights[outside] * m_vals[outside]))
    return eps_nash, violation
