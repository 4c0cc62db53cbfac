"""Command-line driver: batch runs of the flows with CSV output.

Subcommands: solve, refine, stress, trace, validate.  Configuration is
read from (lowest to highest precedence) built-in defaults, a flat
``key = value`` config file, the MFGFLOW_OUT / MFGFLOW_SEED environment
variables, and explicit flags.  Floating values in every CSV are
printed with 17 significant digits so identical configurations produce
bit-identical files.

Exit codes: 0 converged/ok, 2 non-convergence, 3 configuration error,
4 solver failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .elliptic import ModelSpec, SolverError
from .flow import FlowConfig, _distance_field, run_flow
from .grid import make_grid
from .measures import Density, normalize
from .presets import PRESETS, build_model, evaluate_expression

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_CONFIG = 3
EXIT_SOLVER = 4

ENV_OUT = "MFGFLOW_OUT"
ENV_SEED = "MFGFLOW_SEED"


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str
    preset: str | None = None
    kind: str | None = None
    f: str | None = None
    P: str | None = None
    K: str | None = None
    mu: float = 0.1
    dim: int | None = None
    n: int | None = None
    variant: str = "best-response"
    eps0: float | None = None
    eps_min: float = 1e-15
    max_outer: int = 100
    tau: str = "dx"
    seed: int = 0
    fixed_eps: float | None = None
    out: str = "."
    dump_eikonal: bool = False
    levels: int = 6
    seeds: int = 12


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_csv(path, header, rows, comments=()):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for line in comments:
            fh.write(f"# {line}\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _parse_config_file(path) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, value = line.split("=", 1)
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


_COERCERS = {
    "mu": float,
    "dim": int,
    "n": int,
    "eps0": float,
    "eps_min": float,
    "max_outer": int,
    "seed": int,
    "fixed_eps": float,
    "levels": int,
    "seeds": int,
    "dump_eikonal": lambda s: s.lower() in ("1", "true", "yes", "on"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfgflow",
        description="Equilibrium flows for ergodic mean-field games.",
        epilog=(
            f"Environment: {ENV_OUT} overrides the output directory, "
            f"{ENV_SEED} overrides the seed (both below explicit flags)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "solve": "run one flow to convergence and dump density/iteration CSVs",
        "refine": "step-size refinement study (refinement.csv)",
        "stress": "random-initialization stress test (stress.csv)",
        "trace": "objective-vs-transported-mass trace (trace.csv)",
        "validate": "run the built-in solver verification checks",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        if name == "validate":  # runs fixed checks, so it takes no run flags
            continue
        p.add_argument("--config", help="flat key = value configuration file")
        p.add_argument("--preset", choices=sorted(PRESETS), help="named experiment")
        p.add_argument("--variant", choices=["best-response", "eikonal"])
        p.add_argument("--dim", type=int, choices=[1, 2])
        p.add_argument("--grid", dest="n", type=int, help="intervals per axis")
        p.add_argument("--eps0", type=float, help="initial step mass")
        p.add_argument("--eps-min", dest="eps_min", type=float)
        p.add_argument("--max-outer", dest="max_outer", type=int)
        p.add_argument("--tau", help="residual tolerance, a float or 'dx'")
        p.add_argument("--seed", type=int)
        p.add_argument("--fixed-eps", dest="fixed_eps", type=float,
                       help="disable adaptivity and use this step mass")
        p.add_argument("--out", help="output directory")
        p.add_argument("--dump-eikonal", dest="dump_eikonal", action="store_true",
                       default=None, help="also dump the final distance field")
        if name == "refine":
            p.add_argument("--levels", type=int,
                           help="number of consecutive step-size pairs")
        if name == "stress":
            p.add_argument("--seeds", type=int, help="number of seeded runs")
    return parser


def _resolve(args: argparse.Namespace) -> RunConfig:
    rc = RunConfig(command=args.command)
    if getattr(args, "config", None):
        for key, raw in _parse_config_file(args.config).items():
            if not hasattr(rc, key) or key == "command":
                raise ConfigError(f"unknown config key {key!r}")
            try:
                setattr(rc, key, _COERCERS.get(key, str)(raw))
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc
    if os.environ.get(ENV_OUT):
        rc.out = os.environ[ENV_OUT]
    if os.environ.get(ENV_SEED):
        try:
            rc.seed = int(os.environ[ENV_SEED])
        except ValueError as exc:
            raise ConfigError(f"bad {ENV_SEED}: {os.environ[ENV_SEED]!r}") from exc
    for key in vars(rc):
        if key == "command":
            continue
        value = getattr(args, key, None)
        if value is not None:
            setattr(rc, key, value)
    return rc


def _materialize(rc: RunConfig):
    """Build (grid, model, flow config, metadata) from a run config.

    This is the boundary for run inputs: every ValueError raised while
    building them is reported as a ConfigError.
    """
    for key, low in (("seed", 0), ("levels", 1), ("seeds", 1)):
        if getattr(rc, key) < low:
            raise ConfigError(f"{key} must be at least {low}, got {getattr(rc, key)}")
    try:
        if rc.preset is not None:
            preset = PRESETS[rc.preset]
            dim = rc.dim if rc.dim is not None else preset.dim
            if dim != preset.dim:
                raise ConfigError(f"preset {rc.preset!r} is {preset.dim}D")
            grid = make_grid(dim, rc.n)
            model = build_model(preset, grid, seed=rc.seed, mu=rc.mu)
            eps0 = rc.eps0 if rc.eps0 is not None else preset.default_eps0
            label = preset.name
        else:
            if rc.kind not in ("linear", "nonlinear"):
                raise ConfigError("need --preset, or kind = linear|nonlinear in the config")
            if rc.dim is None:
                raise ConfigError("expression-built models need dim")
            grid = make_grid(rc.dim, rc.n)
            if rc.kind == "linear":
                if rc.f is None or rc.P is None:
                    raise ConfigError("linear models need f and P expressions")
                model = ModelSpec.linear(
                    mu=rc.mu,
                    P=evaluate_expression(rc.P, grid),
                    f=evaluate_expression(rc.f, grid),
                )
            else:
                if rc.K is None:
                    raise ConfigError("nonlinear models need a K expression")
                model = ModelSpec.nonlinear(mu=rc.mu, K=evaluate_expression(rc.K, grid))
            eps0 = rc.eps0 if rc.eps0 is not None else 0.1
            label = rc.kind
        flow_cfg = FlowConfig(
            variant=rc.variant.replace("-", "_"),
            eps0=eps0,
            eps_min=rc.eps_min,
            max_outer=rc.max_outer,
            tau=grid.spacing if rc.tau == "dx" else float(rc.tau),
            fixed_eps=rc.fixed_eps,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return grid, model, flow_cfg, label


def _uniform_density(grid) -> Density:
    return normalize(np.ones(grid.shape), grid)


def _grid_comment(grid) -> str:
    return f"dim={grid.dim} n={grid.n} dx={_fmt(grid.spacing)}"


def _density_rows(grid, m, theta):
    if grid.dim == 1:
        x = grid.axes[0]
        for i in range(x.size):
            yield (x[i], m[i], theta[i])
    else:
        X, Y = grid.coords()
        for i in range(X.shape[0]):
            for j in range(X.shape[1]):
                yield (X[i, j], Y[i, j], m[i, j], theta[i, j])


def _write_solution(outdir, grid, result, label):
    header = ["x", "m", "theta"] if grid.dim == 1 else ["x", "y", "m", "theta"]
    _write_csv(
        os.path.join(outdir, "density.csv"),
        header,
        _density_rows(grid, result.m.values, result.theta.values),
        comments=[_grid_comment(grid), f"preset={label}"],
    )
    _write_csv(
        os.path.join(outdir, "iterations.csv"),
        ["iter", "epsilon", "residual", "sup_theta", "min_theta_supp",
         "tv_step", "mass_cum", "halvings"],
        [
            (r.j, r.eps, r.residual, r.sup_theta, r.min_theta_supp,
             r.tv_step, r.mass_cum, r.halvings)
            for r in result.records
        ],
    )


def _summary(result) -> str:
    return (
        f"converged={str(result.converged).lower()} "
        f"iterations={result.iterations} "
        f"final_residual={_fmt(result.final_residual)} "
        f"termination={result.termination}"
    )


def _exit_code(result) -> int:
    if result.termination == "solver_failed":
        return EXIT_SOLVER
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def cmd_solve(rc: RunConfig) -> int:
    grid, model, flow_cfg, label = _materialize(rc)
    os.makedirs(rc.out, exist_ok=True)
    result = run_flow(model, _uniform_density(grid), flow_cfg)
    _write_solution(rc.out, grid, result, label)
    if rc.dump_eikonal:
        v = _distance_field(grid, result.theta, result.final_residual)
        header = ["x", "v"] if grid.dim == 1 else ["x", "y", "v"]
        rows = (row[:-2] + (row[-1],) for row in _density_rows(grid, v.values, v.values))
        _write_csv(os.path.join(rc.out, "eikonal.csv"), header, rows,
                   comments=[_grid_comment(grid)])
    print(_summary(result))
    return _exit_code(result)


def cmd_refine(rc: RunConfig) -> int:
    grid, model, flow_cfg, label = _materialize(rc)
    os.makedirs(rc.out, exist_ok=True)
    study = diagnostics.refinement_study(
        model,
        _uniform_density(grid),
        eps0=flow_cfg.eps0,
        pairs=rc.levels,
        variant=flow_cfg.variant,
        tau=flow_cfg.tau,
        max_outer=flow_cfg.max_outer,
    )
    _write_csv(
        os.path.join(rc.out, "refinement.csv"),
        ["level", "epsilon", "sup_tv"],
        [
            (k, study.epsilons[k], study.sup_tv[k])
            for k in range(len(study.sup_tv))
        ],
    )
    print(f"levels={len(study.sup_tv)} max_sup_tv={_fmt(max(study.sup_tv))}")
    return EXIT_OK


def cmd_stress(rc: RunConfig) -> int:
    grid, model, flow_cfg, label = _materialize(rc)
    if grid.dim != 1:
        raise ConfigError("the stress test is defined for 1D models only")
    os.makedirs(rc.out, exist_ok=True)
    seeds = [rc.seed + i for i in range(rc.seeds)]
    rows = diagnostics.stress_test(model, grid, flow_cfg, seeds)
    _write_csv(
        os.path.join(rc.out, "stress.csv"),
        ["seed", "variant", "iterations", "converged", "final_residual"],
        [
            (r.seed, r.variant, r.iterations, r.converged, r.final_residual)
            for r in rows
        ],
    )
    bad = [r for r in rows if not r.converged]
    print(f"runs={len(rows)} converged={len(rows) - len(bad)}")
    return EXIT_OK if not bad else EXIT_NOT_CONVERGED


def cmd_trace(rc: RunConfig) -> int:
    grid, model, flow_cfg, label = _materialize(rc)
    os.makedirs(rc.out, exist_ok=True)
    result = run_flow(model, _uniform_density(grid), flow_cfg)
    t, phi = diagnostics.functional_trace(result, flow_cfg.variant)
    _write_csv(os.path.join(rc.out, "trace.csv"), ["t", "phi"], zip(t, phi))
    print(_summary(result))
    return _exit_code(result)


def cmd_validate(rc: RunConfig) -> int:
    """Solver verification: manufactured solutions and oracle checks."""
    checks = diagnostics.verification_checks()
    for name, ok, detail in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    return EXIT_OK if all(ok for _, ok, _ in checks) else EXIT_SOLVER


_COMMANDS = {
    "solve": cmd_solve,
    "refine": cmd_refine,
    "stress": cmd_stress,
    "trace": cmd_trace,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; remap the
        # latter so exit code 2 stays reserved for non-convergence
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        rc = _resolve(args)
        return _COMMANDS[args.command](rc)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, diagnostics.StudyError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
