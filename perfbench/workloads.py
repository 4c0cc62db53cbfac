"""The four benchmark workloads and the correctness checks on their outputs.

Every workload is built from the public library API only.  `build`
performs the set-up a user performs before the first flow call (grids,
payoff models, initial densities) and returns the timed items.  An item
is one call a user waits on: a `run_flow` followed by its
`nash_certificate` (the deliverable is a certified epsilon-Nash
equilibrium), one `stress_test`, or one `refinement_study`.  Each item
gets its own payoff model, so the factorization a model caches is paid
inside the timed call, as in a fresh `mfgflow solve`.

Calls go through `mfgflow.<name>` attribute lookups at call time, so a
tracer that replaces those attributes sees them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import mfgflow
from mfgflow.elliptic import NonlinearSolveOptions

VARIANTS = ("best_response", "eikonal")
PRESETS_1D = (
    "linear-4x",
    "linear-sin",
    "linear-cos",
    "nonlinear-4x",
    "nonlinear-sin",
    "nonlinear-cos",
)
PRESETS_2D = ("linear-gauss2d", "nonlinear-gauss2d")
STRESS_PRESET = "linear-sin"
REFINE_PRESET = "nonlinear-cos"
REFINE_EPS0 = 0.1


@dataclass(frozen=True)
class Sizes:
    """Problem sizes.  FULL is the benchmark; TINY keeps smoke tests fast.

    The stress inputs are a fixed panel of densities (seeds
    0..stress_panel-1) plus stress_fresh densities chosen by the
    workload seed.  A few starts on linear-sin stall for 30-100 outer
    iterations, so the cost of a purely seed-chosen set swings with how
    many stalls it happens to draw; the panel keeps the total comparable
    across seeds while the fresh part still makes every seed's inputs
    different.

    The refinement study keeps criterion 7's seven levels (pairs = 6)
    but stops each level after refine_max_outer fixed steps instead of
    100, so one study takes under 2 s and a run times each one several
    times.
    """

    n1d: int
    n2d: int
    stress_panel: int
    stress_fresh: int
    refine_pairs: int
    refine_max_outer: int


FULL = Sizes(n1d=1000, n2d=100, stress_panel=26, stress_fresh=1, refine_pairs=6,
             refine_max_outer=25)
TINY = Sizes(n1d=40, n2d=8, stress_panel=2, stress_fresh=1, refine_pairs=1,
             refine_max_outer=5)
SIZES = {"full": FULL, "tiny": TINY}


@dataclass(frozen=True)
class Outcome:
    """What one item produced, reduced to what the metrics need.

    accepted is the sum of FlowResult.iterations where the API exposes
    it (None for refinement studies, which keep their flows internal).
    fingerprint must be identical on every round, traced or not.
    """

    flows: int
    failed: int
    converged: int
    accepted: int | None
    fingerprint: tuple
    problems: tuple[str, ...] = ()


@dataclass(frozen=True)
class Item:
    name: str
    flows: int
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def _uniform(grid):
    return mfgflow.normalize(np.ones(grid.shape), grid)


def _residual_tol(model, m, grid) -> float:
    """The tolerance the payoff solver itself enforces, in pde_residual units."""
    if model.kind == "linear":
        rhs = model.coefficient("f", grid) - m.values
        return 1e-9 * (1.0 + float(np.abs(rhs).max()))
    grad_tol = NonlinearSolveOptions().grad_tol
    return model.mu * grad_tol / grid.spacing**grid.dim


def flow_problems(model, grid, result, certificate) -> list[str]:
    """Correctness problems of one run_flow output (empty when it passes)."""
    problems = []
    m, theta = result.m, result.theta
    try:
        mfgflow.Density(m.values, grid)
    except ValueError as exc:
        problems.append(f"output is not a valid density: {exc}")
    if not np.isfinite(m.values).all():
        problems.append("density is not finite")
    if theta.values.shape != grid.shape or not np.isfinite(theta.values).all():
        problems.append("theta is not a finite field on the grid")
        return problems
    resid = mfgflow.pde_residual(model, m, theta)
    tol = _residual_tol(model, m, grid)
    if not resid <= tol:
        problems.append(f"pde_residual {resid:.3e} above solver tolerance {tol:.3e}")
    if result.converged:
        gap, stray = certificate
        if not gap <= grid.spacing:
            problems.append(f"converged but Nash gap {gap:.3e} > tau")
        if stray != 0.0:
            problems.append(f"converged but nash_certificate stray mass {stray!r}")
    return problems


def _flow_item(name, model, m0, cfg) -> Item:
    grid = m0.grid

    def run():
        result = mfgflow.run_flow(model, m0, cfg)
        return result, mfgflow.nash_certificate(result.m, result.theta)

    def check(out) -> Outcome:
        result, certificate = out
        problems = flow_problems(model, grid, result, certificate)
        return Outcome(
            flows=1,
            failed=int(bool(problems)),
            converged=int(result.converged),
            accepted=result.iterations,
            fingerprint=(result.iterations, result.final_residual, result.termination),
            problems=tuple(problems),
        )

    return Item(name, 1, run, check)


def _preset_items(names, grid) -> list[Item]:
    m0 = _uniform(grid)
    items = []
    for name in names:
        preset = mfgflow.PRESETS[name]
        for variant in VARIANTS:
            model = mfgflow.build_model(preset, grid)
            cfg = mfgflow.FlowConfig(variant=variant, eps0=preset.default_eps0)
            items.append(_flow_item(f"{name}/{variant}", model, m0, cfg))
    return items


def stress_seeds(seed: int, sizes: Sizes) -> list[int]:
    panel = list(range(sizes.stress_panel))
    first = sizes.stress_panel + seed * sizes.stress_fresh
    return panel + list(range(first, first + sizes.stress_fresh))


def _stress_items(seed, sizes) -> list[Item]:
    """One stress_test call per density, so each is timed on its own.

    A run then holds several samples of every density's cost, and a slow
    spell of a shared host spoils a few samples rather than the figure.
    """
    grid = mfgflow.make_grid(1, sizes.n1d)
    model = mfgflow.build_model(mfgflow.PRESETS[STRESS_PRESET], grid)
    cfg = mfgflow.FlowConfig()
    tau = grid.spacing

    def item(density_seed) -> Item:
        expected = [(density_seed, v) for v in VARIANTS]

        def run():
            return mfgflow.stress_test(model, grid, cfg, [density_seed])

        def check(rows) -> Outcome:
            failed = 0
            problems = []
            if [(r.seed, r.variant) for r in rows] != expected:
                return Outcome(len(expected), len(expected), 0, None, ("bad rows",),
                               ("stress rows do not match the requested seed",))
            for r in rows:
                bad = (
                    not 0 <= r.iterations <= cfg.max_outer
                    or not math.isfinite(r.final_residual)
                    or r.final_residual < 0.0
                    or r.converged != (r.final_residual <= tau)
                )
                if bad:
                    failed += 1
                    problems.append(f"inconsistent stress row {r}")
            return Outcome(
                flows=len(rows),
                failed=failed,
                converged=sum(r.converged for r in rows),
                accepted=sum(r.iterations for r in rows),
                fingerprint=tuple(
                    (r.iterations, r.converged, r.final_residual) for r in rows
                ),
                problems=tuple(problems),
            )

        return Item(f"{STRESS_PRESET}/stress/{density_seed}", len(expected), run, check)

    return [item(s) for s in stress_seeds(seed, sizes)]


def _refine_items(sizes) -> list[Item]:
    grid = mfgflow.make_grid(1, sizes.n1d)
    m0 = _uniform(grid)
    pairs = sizes.refine_pairs
    epsilons = [REFINE_EPS0 / 2**k for k in range(pairs + 1)]
    items = []
    for variant in VARIANTS:
        model = mfgflow.build_model(mfgflow.PRESETS[REFINE_PRESET], grid)

        def run(model=model, variant=variant):
            return mfgflow.refinement_study(
                model, m0, eps0=REFINE_EPS0, pairs=pairs, variant=variant,
                max_outer=sizes.refine_max_outer,
            )

        def check(study) -> Outcome:
            sup_tv = list(study.sup_tv)
            problems = []
            if len(sup_tv) != pairs or not all(
                math.isfinite(d) and d >= 0.0 for d in sup_tv
            ):
                problems.append(f"sup_tv is not {pairs} finite values: {sup_tv}")
            if study.epsilons != epsilons or len(study.runtimes) != pairs + 1:
                problems.append("study levels do not match eps0 / 2^k")
            flows = pairs + 1
            # a fixed-step study stops at max_outer by design; a level
            # that cannot step raises instead, so a returned study means
            # every flow reached its stopping rule
            return Outcome(
                flows=flows,
                failed=flows if problems else 0,
                converged=flows,
                accepted=None,
                fingerprint=tuple(sup_tv),
                problems=tuple(problems),
            )

        items.append(Item(f"{REFINE_PRESET}/refine/{variant}", pairs + 1, run, check))
    return items


WORKLOADS = ("presets-1d", "presets-2d", "stress-1d", "refine-1d")


def build(workload: str, seed: int, sizes: Sizes) -> list[Item]:
    """Set the workload up and return its timed items (seed used by stress-1d only)."""
    if workload == "presets-1d":
        return _preset_items(PRESETS_1D, mfgflow.make_grid(1, sizes.n1d))
    if workload == "presets-2d":
        return _preset_items(PRESETS_2D, mfgflow.make_grid(2, sizes.n2d))
    if workload == "stress-1d":
        return _stress_items(seed, sizes)
    if workload == "refine-1d":
        return _refine_items(sizes)
    raise ValueError(f"unknown workload {workload!r}")


def failed_outcome(item: Item, exc: BaseException) -> Outcome:
    """Outcome of an item whose call raised: every flow in it failed."""
    reason = f"{type(exc).__name__}: {exc}"
    return Outcome(item.flows, item.flows, 0, None, ("raised", type(exc).__name__),
                   (reason,))
