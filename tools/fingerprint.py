"""Fingerprint the numerical behaviour of this checkout.

Run from anywhere, with no options:

    python3 tools/fingerprint.py

It imports mfgflow from the src/ directory next to this file (never an
installed copy, never perfbench) and prints one SHA-256 line per part:

- presets-1d: the 12 run_flow results of the six 1D presets x both
  variants from the uniform density, n = 1000;
- presets-2d: the 4 run_flow results of the two gauss2d presets x both
  variants, 100 x 100 intervals;
- stress-1d: the 54 stress_test rows on linear-sin, seeds 0-26, n = 1000;
- refine-1d: the sup_tv lists of refinement_study on nonlinear-cos for
  both variants (eps0 0.1, pairs 6, max_outer 25, n = 1000);
- refine-1d-flows: the 14 fixed-step run_flow trajectories behind that
  study, run in full by run_flow itself (nonlinear-cos, n = 1000, eps
  0.1 / 2^k for k = 0-6, max_outer 25, both variants), so the hash does
  not depend on how many steps the study takes at each level;
- randcos2d: the solve_payoff outcome on nonlinear-randcos2d, seeds 0-7,
  from the uniform density, 50 x 50 intervals;
- randcos2d-flows: the 32 run_flow results of the linear and nonlinear
  randcos2d presets x seeds 0-7 x both variants from the uniform
  density, 20 x 20 intervals, whose many near-maximal regions make the
  eikonal runs the most sensitive to the distance field.

A run_flow result hashes every field of every IterationRecord, the
termination and convergence flag, and the bytes of the final m and
theta; a kept trajectory adds the bytes of every density in it.  A
solve_payoff outcome hashes the bytes of theta (zero after a
TrivialBranchWarning) or the SolverError and its residual, then the
class of every warning raised.  Two checkouts that print the same seven
lines produce the same trajectories to the bit on these inputs.
"""

import os

# One thread per process, so no BLAS pool can reorder a sum.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from dataclasses import astuple  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import mfgflow  # noqa: E402
from mfgflow.elliptic import COEFFICIENTS  # noqa: E402
from mfgflow.flow import VARIANTS  # noqa: E402


def _floats(*values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _hash_result(digest, tag, result):
    digest.update(f"{tag}:{result.termination}:{result.converged}".encode())
    for record in result.records:
        digest.update(_floats(*astuple(record)))
    digest.update(result.m.values.tobytes())
    digest.update(result.theta.values.tobytes())
    for density in result.densities or []:
        digest.update(density.tobytes())


def _flow_runs(names, grid, digest, seeds=None):
    """Hash run_flow from the uniform density for each preset and variant;
    with seeds, once per random cosine draw, the seed tagged in the hash."""
    m0 = mfgflow.normalize(np.ones(grid.shape), grid)
    for name in names:
        preset = mfgflow.PRESETS[name]
        for seed in seeds or [None]:
            tag = name if seed is None else f"{name}/{seed}"
            for variant in VARIANTS:
                cfg = mfgflow.FlowConfig(variant=variant, eps0=preset.default_eps0)
                model = mfgflow.build_model(preset, grid, seed=seed or 0)
                _hash_result(digest, f"{tag}/{variant}", mfgflow.run_flow(model, m0, cfg))


def presets_1d(digest):
    names = [f"{kind}-{shape}" for kind in COEFFICIENTS for shape in ("4x", "sin", "cos")]
    _flow_runs(names, mfgflow.make_grid(1, 1000), digest)


def presets_2d(digest):
    _flow_runs(["linear-gauss2d", "nonlinear-gauss2d"], mfgflow.make_grid(2, 100), digest)


def stress_1d(digest):
    grid = mfgflow.make_grid(1, 1000)
    model = mfgflow.build_model(mfgflow.PRESETS["linear-sin"], grid)
    for row in mfgflow.stress_test(model, grid, mfgflow.FlowConfig(), range(27)):
        digest.update(f"{row.seed}/{row.variant}:{row.iterations}:{row.converged}".encode())
        digest.update(_floats(row.final_residual))


def refine_1d(digest):
    grid = mfgflow.make_grid(1, 1000)
    m0 = mfgflow.normalize(np.ones(grid.shape), grid)
    for variant in VARIANTS:
        model = mfgflow.build_model(mfgflow.PRESETS["nonlinear-cos"], grid)
        study = mfgflow.refinement_study(
            model, m0, eps0=0.1, pairs=6, variant=variant, max_outer=25
        )
        digest.update(_floats(*study.sup_tv))


def refine_1d_flows(digest):
    grid = mfgflow.make_grid(1, 1000)
    m0 = mfgflow.normalize(np.ones(grid.shape), grid)
    for variant in VARIANTS:
        model = mfgflow.build_model(mfgflow.PRESETS["nonlinear-cos"], grid)
        for k in range(7):
            cfg = mfgflow.FlowConfig(variant=variant, max_outer=25, fixed_eps=0.1 / 2**k,
                                     keep_trajectory=True)
            _hash_result(digest, f"{variant}/{k}", mfgflow.run_flow(model, m0, cfg))


def randcos2d(digest):
    grid = mfgflow.make_grid(2, 50)
    m0 = mfgflow.normalize(np.ones(grid.shape), grid)
    preset = mfgflow.PRESETS["nonlinear-randcos2d"]
    for seed in range(8):
        model = mfgflow.build_model(preset, grid, seed=seed)
        digest.update(f"{seed}:".encode())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                theta = mfgflow.solve_payoff(model, m0)
            except mfgflow.SolverError as exc:
                digest.update(f"error:{exc}".encode())
                digest.update(_floats(exc.residual))
            else:
                digest.update(theta.values.tobytes())
        for warning in caught:
            digest.update(f"warning:{warning.category.__name__}".encode())


def randcos2d_flows(digest):
    names = ["linear-randcos2d", "nonlinear-randcos2d"]
    _flow_runs(names, mfgflow.make_grid(2, 20), digest, seeds=range(8))


PARTS = {
    "presets-1d": presets_1d,
    "presets-2d": presets_2d,
    "stress-1d": stress_1d,
    "refine-1d": refine_1d,
    "refine-1d-flows": refine_1d_flows,
    "randcos2d": randcos2d,
    "randcos2d-flows": randcos2d_flows,
}


def main() -> int:
    if SRC not in Path(mfgflow.__file__).resolve().parents:
        print(f"fingerprint: mfgflow resolved outside {SRC}", file=sys.stderr)
        return 2
    for name, part in PARTS.items():
        digest = hashlib.sha256()
        part(digest)
        print(f"{digest.hexdigest()}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
