"""Command-line driver: batch runs of the flows with CSV output.

Subcommands: solve, refine, stress, trace, validate.  Each run input is
declared once, in OPTIONS: its converter, default, flag, allowed values,
environment variable and the subcommands that read it.  A run
subcommand refuses an input it would ignore: a key, from any source,
that its entry does not list the subcommand for, and eps0 beside
fixed_eps; `validate` reads no configuration.  Run inputs come
from (lowest to highest precedence) the defaults, a flat
``key = value`` config file, the MFGFLOW_OUT / MFGFLOW_SEED environment
variables, and flags; a value from any source is converted and checked
by its entry.
Floating values in every CSV are printed with 17 significant digits so
identical configurations produce bit-identical files.

Exit codes: 0 converged/ok, 2 non-convergence or a refinement shortfall,
3 configuration error (also a refine level count that halves eps0 to
zero, and a grid or model too large to allocate), 4 solver failure; a
stress run exits 4 when any flow's payoff solve failed, else 0 when all
converged, else 2.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Callable
from dataclasses import astuple, dataclass
from types import SimpleNamespace

import numpy as np

from . import diagnostics
from .elliptic import COEFFICIENTS, SolverError
from .flow import VARIANTS, FlowConfig, _distance_field, run_flow
from .grid import make_grid
from .measures import Density, normalize
from .presets import PRESETS, Preset, build_model

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_CONFIG = 3
EXIT_SOLVER = 4

RUN_COMMANDS = ("solve", "refine", "stress", "trace")
# the model keys of a config file: every coefficient some model kind reads
MODEL_KEYS = tuple(sorted(set().union(*COEFFICIENTS.values())))


class ConfigError(ValueError):
    pass


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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _at_least(low):
    def convert(text):
        value = int(text)
        if value < low:
            raise ValueError(f"must be at least {low}")
        return value
    return convert


def _switch(text):
    word = text.lower()
    if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError("expected true/false, yes/no, on/off or 1/0")
    return word in ("1", "true", "yes", "on")


@dataclass(frozen=True)
class Option:
    """One run input.  Every source hands over text; `convert` turns it
    into the value (ValueError if it cannot), which must then be one of
    `choices` when those are given.  flag None: config file only.  A
    subcommand outside `commands` refuses the key from every source."""

    key: str
    convert: Callable[[str], object] = str
    default: object = None
    flag: str | None = None
    choices: tuple = ()
    commands: tuple[str, ...] = RUN_COMMANDS
    env: str | None = None
    help: str | None = None

    def parse(self, text, where):
        try:
            value = self.convert(text)
            if self.choices and value not in self.choices:
                raise ValueError("expected one of " + ", ".join(map(str, self.choices)))
        except ValueError as exc:
            raise ConfigError(f"bad value {text!r} for {where}: {exc}") from exc
        return value


OPTIONS = (
    Option("preset", flag="--preset", choices=tuple(sorted(PRESETS)),
           help="named experiment"),
    Option("kind", choices=tuple(COEFFICIENTS)),
    *(Option(key) for key in MODEL_KEYS),
    Option("mu", float, 0.1),
    Option("dim", int, flag="--dim", choices=(1, 2)),
    Option("n", int, flag="--grid", help="intervals per axis"),
    # best_response, the library's spelling, is read as best-response
    Option("variant", lambda text: text.replace("_", "-"), "best-response", flag="--variant",
           choices=tuple(v.replace("_", "-") for v in VARIANTS),
           commands=("solve", "refine", "trace")),
    Option("eps0", float, flag="--eps0", help="initial step mass"),
    Option("max_outer", int, 100, flag="--max-outer"),
    Option("tau", lambda text: None if text == "dx" else float(text), flag="--tau",
           help="residual tolerance, a float or 'dx' (the grid spacing)"),
    Option("seed", _at_least(0), 0, flag="--seed", env="MFGFLOW_SEED"),
    Option("fixed_eps", float, flag="--fixed-eps", commands=("solve", "stress", "trace"),
           help="disable adaptivity and use this step mass"),
    Option("out", str, ".", flag="--out", env="MFGFLOW_OUT", help="output directory"),
    Option("dump_eikonal", _switch, False, flag="--dump-eikonal", commands=("solve",),
           help="also dump the final distance field"),
    Option("levels", _at_least(1), 6, flag="--levels", commands=("refine",),
           help="number of consecutive step-size pairs"),
    Option("seeds", _at_least(1), 12, flag="--seeds", commands=("stress",),
           help="number of seeded runs"),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfgflow",
        description="Equilibrium flows for ergodic mean-field games.",
        epilog="Environment: " + ", ".join(
            f"{opt.env} sets {opt.flag}" for opt in OPTIONS if opt.env
        ) + " (above the config file, below explicit flags).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.__doc__)
        if name != "validate":
            p.add_argument("--config", help="flat key = value configuration file")
        # flags hand over text: Option.parse converts and checks it
        for opt in OPTIONS:
            if opt.flag is None or name not in opt.commands:
                continue
            if opt.convert is _switch:
                p.add_argument(opt.flag, dest=opt.key, action="store_const",
                               const="on", help=opt.help)
            else:
                metavar = "{%s}" % ",".join(map(str, opt.choices)) if opt.choices else None
                p.add_argument(opt.flag, dest=opt.key, metavar=metavar, help=opt.help)
    return parser


def _resolve(args: argparse.Namespace) -> SimpleNamespace:
    texts = {}  # key -> (text, source); a later source overrides an earlier
    if args.config:
        known = {opt.key for opt in OPTIONS}
        for key, text in _parse_config_file(args.config).items():
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
            texts[key] = (text, f"config key {key!r}")
    for opt in OPTIONS:
        if opt.env and os.environ.get(opt.env):
            texts[opt.key] = (os.environ[opt.env], opt.env)
        if getattr(args, opt.key, None) is not None:
            texts[opt.key] = (getattr(args, opt.key), opt.flag)
        if opt.key in texts and args.command not in opt.commands:
            raise ConfigError(f"{texts[opt.key][1]} is not read by {args.command}")
    # a fixed-step run reads no eps0
    if "eps0" in texts and "fixed_eps" in texts:
        raise ConfigError(f"{texts['eps0'][1]} is not read beside {texts['fixed_eps'][1]}")
    return SimpleNamespace(command=args.command, **{
        opt.key: opt.parse(*texts[opt.key]) if opt.key in texts else opt.default
        for opt in OPTIONS
    })


def _materialize(rc: SimpleNamespace):
    """Build (grid, model, flow config, label) from resolved run inputs.

    A config file's model keys form a Preset named after its kind, so
    both routes build their model with build_model, which refuses a
    preset on a grid of another dimension; a model key its route does
    not read is refused, and ModelSpec refuses a missing coefficient.
    The stress test refuses a model that is not 1D, and the refinement
    study a level count that halves eps0 to zero.  Every ValueError
    raised while building them is reported as a ConfigError, and so is
    a MemoryError, naming the grid size.
    """
    try:
        if rc.preset is not None:
            preset, read = PRESETS[rc.preset], ()
        elif rc.kind is None:
            raise ConfigError(f"need --preset, or kind = {'|'.join(COEFFICIENTS)} in the config")
        else:
            if rc.dim is None:
                raise ConfigError("expression-built models need dim")
            coefficients = COEFFICIENTS[rc.kind]
            given = {key: getattr(rc, key) for key in coefficients if getattr(rc, key) is not None}
            preset, read = Preset(rc.kind, rc.kind, rc.dim, given), ("kind", *coefficients)
        for key in ("kind", *MODEL_KEYS):
            if key not in read and getattr(rc, key) is not None:
                route = "beside a preset" if rc.preset else f"by a {rc.kind} model"
                raise ConfigError(f"config key {key!r} is not read {route}")
        dim = rc.dim or preset.dim
        grid = make_grid(dim, rc.n)
        model = build_model(preset, grid, seed=rc.seed, mu=rc.mu)
        flow_cfg = FlowConfig(
            variant=rc.variant.replace("-", "_"),
            eps0=rc.eps0 if rc.eps0 is not None else preset.default_eps0,
            max_outer=rc.max_outer,
            tau=rc.tau,
            fixed_eps=rc.fixed_eps,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    except MemoryError as exc:  # raised by the allocations of the grid or the model
        size = f"{dim}D run of {rc.n or 'the default'} intervals per axis"
        raise ConfigError(f"cannot allocate a {size}: {exc}") from exc
    if rc.command == "stress" and grid.dim != 1:
        raise ConfigError("the stress test is defined for 1D models only")
    if rc.command == "refine" and not math.ldexp(flow_cfg.eps0, -rc.levels) > 0.0:
        raise ConfigError(f"{rc.levels} levels halve eps0 = {flow_cfg.eps0!r} to zero")
    return grid, model, flow_cfg, preset.name


def _uniform_density(grid) -> Density:
    return normalize(np.ones(grid.shape), grid)


def _grid_comment(grid) -> str:
    return f"dim={grid.dim} n={grid.n} dx={_fmt(grid.spacing)}"


def _write_nodes(path, grid, fields, comments):
    """One row per node: its coordinates, then each named node field."""
    columns = (*grid.coords(), *fields.values())
    _write_csv(path, ["x", "y"][:grid.dim] + list(fields),
               zip(*(c.ravel() for c in columns)), comments)


def _exit_code(terminations) -> int:
    """4 if a flow's payoff solve failed, else 0 if every flow converged, else 2."""
    if "solver_failed" in terminations:
        return EXIT_SOLVER
    return EXIT_OK if all(t == "converged" for t in terminations) else EXIT_NOT_CONVERGED


def _report(result) -> int:
    """Print a flow's summary line and return its exit code."""
    print(
        f"converged={str(result.converged).lower()} "
        f"iterations={result.iterations} "
        f"final_residual={_fmt(result.final_residual)} "
        f"termination={result.termination}"
    )
    return _exit_code([result.termination])


def cmd_solve(rc, grid, model, flow_cfg, label) -> int:
    """run one flow to convergence and dump density/iteration CSVs"""
    result = run_flow(model, _uniform_density(grid), flow_cfg)
    _write_nodes(os.path.join(rc.out, "density.csv"), grid,
                 {"m": result.m.values, "theta": result.theta.values},
                 [_grid_comment(grid), f"preset={label}"])
    _write_csv(os.path.join(rc.out, "iterations.csv"),
               ["iter", "epsilon", "residual", "sup_theta", "min_theta_supp",
                "tv_step", "mass_cum", "halvings"], map(astuple, result.records))
    if rc.dump_eikonal:
        v = _distance_field(grid, result.theta, result.final_residual)
        _write_nodes(os.path.join(rc.out, "eikonal.csv"), grid, {"v": v.values},
                     [_grid_comment(grid)])
    return _report(result)


def cmd_refine(rc, grid, model, flow_cfg, label) -> int:
    """step-size refinement study (refinement.csv)"""
    study = diagnostics.refinement_study(
        model,
        _uniform_density(grid),
        eps0=flow_cfg.eps0,
        pairs=rc.levels,
        variant=flow_cfg.variant,
        tau=flow_cfg.tau,
        max_outer=flow_cfg.max_outer,
    )
    levels = range(len(study.sup_tv))
    _write_csv(os.path.join(rc.out, "refinement.csv"), ["level", "epsilon", "sup_tv"],
               zip(levels, study.epsilons, study.sup_tv))
    print(f"levels={len(levels)} max_sup_tv={_fmt(max(study.sup_tv))}")
    return EXIT_OK


def cmd_stress(rc, grid, model, flow_cfg, label) -> int:
    """random-initialization stress test (stress.csv)"""
    rows = diagnostics.stress_test(model, grid, flow_cfg, range(rc.seed, rc.seed + rc.seeds))
    columns = ("seed", "variant", "iterations", "converged", "final_residual")
    _write_csv(os.path.join(rc.out, "stress.csv"), columns,
               ([getattr(r, c) for c in columns] for r in rows))
    print(f"runs={len(rows)} converged={sum(r.converged for r in rows)}")
    return _exit_code([r.termination for r in rows])


def cmd_trace(rc, grid, model, flow_cfg, label) -> int:
    """objective-vs-transported-mass trace (trace.csv)"""
    result = run_flow(model, _uniform_density(grid), flow_cfg)
    t, phi = diagnostics.functional_trace(result, flow_cfg.variant)
    _write_csv(os.path.join(rc.out, "trace.csv"), ["t", "phi"], zip(t, phi))
    return _report(result)


def cmd_validate() -> int:
    """run the built-in solver verification checks"""
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
        if args.command == "validate":  # fixed checks: reads no configuration
            return cmd_validate()
        # every run input is checked, and the run built, before --out exists
        rc = _resolve(args)
        run = _materialize(rc)
        os.makedirs(rc.out, exist_ok=True)
        return _COMMANDS[args.command](rc, *run)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except diagnostics.StudyError as exc:  # a shortfall is non-convergence
        print(f"study stopped: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED if exc.reason == "shortfall" else EXIT_SOLVER
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
