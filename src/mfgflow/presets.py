"""Named experiment presets and the coefficient expression grammar.

Coefficient fields can be given as small arithmetic expressions over
the node coordinates: identifiers x, y and pi, numeric constants, the
operators + - * /, unary minus, and the functions sin, cos, exp, abs
and the two-argument max.  Expressions are evaluated per node with
numpy broadcasting; nothing else is accepted.
"""

from __future__ import annotations

import ast
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .elliptic import COEFFICIENTS, ModelSpec
from .grid import Grid
from .measures import seeded_draw

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "abs": np.abs,
    "max": np.maximum,
}

_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
}


class ExpressionError(ValueError):
    """Coefficient expression outside the supported grammar."""


def _walk(node, names: dict, expr: str):
    """Value of one node of the parsed expr; names maps identifiers to values."""
    if isinstance(node, ast.Constant):
        if type(node.value) in (int, float):  # not a bool
            return float(node.value)
        raise ExpressionError(f"non-numeric constant {node.value!r}")
    if isinstance(node, ast.Name):
        if node.id in names:
            return names[node.id]
        raise ExpressionError(f"unknown identifier {node.id!r}")
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        val = _walk(node.operand, names, expr)
        return -val if isinstance(node.op, ast.USub) else val
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        args = (_walk(node.left, names, expr), _walk(node.right, names, expr))
        return _BINOPS[type(node.op)](*args)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        fn = _FUNCTIONS.get(node.func.id)
        if fn is None:
            raise ExpressionError(f"unknown function {node.func.id!r}")
        if node.keywords:
            raise ExpressionError("keyword arguments are not supported")
        args = [_walk(a, names, expr) for a in node.args]
        if node.func.id == "max" and len(args) != 2:
            raise ExpressionError("max takes exactly two arguments")
        if node.func.id != "max" and len(args) != 1:
            raise ExpressionError(f"{node.func.id} takes exactly one argument")
        return fn(*args)
    raise ExpressionError(f"unsupported syntax in {expr!r}")


def evaluate_expression(expr: str, grid: Grid) -> np.ndarray:
    """Evaluate a coefficient expression on every grid node.  The walk makes
    no reference cycle, so its arrays are freed when this returns or raises.
    An expression nested too deeply for the parser (MemoryError) or for
    the walk (RecursionError) is refused like any other."""
    names = dict(zip("xy", grid.coords()), pi=np.pi)
    too_deep = f"expression of {len(expr)} characters nests too deeply"
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {expr!r}: {exc}") from exc
    except (MemoryError, RecursionError) as exc:
        raise ExpressionError(too_deep) from exc
    # a pole or overflow yields inf/nan, which ModelSpec rejects by name;
    # numpy's floating-point warnings would only duplicate that message
    try:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            values = _walk(tree.body, names, expr)
    except RecursionError as exc:
        raise ExpressionError(too_deep) from exc
    return np.broadcast_to(np.asarray(values, dtype=float), grid.shape).copy()


@dataclass(frozen=True)
class Preset:
    """A named payoff configuration: the model kind, its dimension and
    its coefficients as expressions keyed by coefficient name (a None
    expression: the seeded random cosine sum), built on a grid by
    build_model.  The model keys of a config file form a Preset named
    after its kind."""

    name: str
    kind: str  # a key of elliptic.COEFFICIENTS
    dim: int
    coefficients: Mapping[str, str | None]  # kept as a read-only copy
    default_eps0: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "coefficients", MappingProxyType(dict(self.coefficients)))


_GAUSS2D = "5*exp(-((x-1)*(x-1)+(y-1)*(y-1))/0.5)"

PRESETS = {
    preset.name: preset
    for preset in (
        Preset("linear-4x", "linear", 1, {"P": "0.5", "f": "4*x"}),
        Preset("linear-sin", "linear", 1, {"P": "0.5", "f": "max(0, 9*x*sin(5*pi*x))"}),
        Preset("linear-cos", "linear", 1, {"P": "0.5", "f": "15*(cos(2*pi*x)+1)"}),
        Preset("nonlinear-4x", "nonlinear", 1, {"K": "4*x"}),
        Preset("nonlinear-sin", "nonlinear", 1, {"K": "max(0, 9*x*sin(5*pi*x))"}),
        Preset("nonlinear-cos", "nonlinear", 1, {"K": "15*(cos(2*pi*x)+1)"}),
        Preset("linear-gauss2d", "linear", 2, {"P": "1", "f": _GAUSS2D}, 0.5),
        Preset("nonlinear-gauss2d", "nonlinear", 2, {"K": _GAUSS2D}, 0.25),
        Preset("linear-randcos2d", "linear", 2, {"P": "1", "f": None}, 0.5),
        Preset("nonlinear-randcos2d", "nonlinear", 2, {"K": None}, 0.25),
    )
}


def random_cosine_sum(seed: int, grid: Grid) -> np.ndarray:
    """max(0, 4 sum_i cos(a_i pi x) cos(b_i pi y)), a_i, b_i ~ U[0,10].

    A (numerically) identically zero draw is redrawn by seeded_draw, so
    the coefficient always satisfies the model assumptions.
    """
    if grid.dim != 2:
        raise ValueError("random cosine coefficients are 2D only")
    X, Y = grid.coords()

    def draw(rng):
        a = rng.uniform(0.0, 10.0, size=4)
        b = rng.uniform(0.0, 10.0, size=4)
        total = np.zeros(grid.shape)
        for ai, bi in zip(a, b):
            total += np.cos(ai * np.pi * X) * np.cos(bi * np.pi * Y)
        vals = np.maximum(0.0, 4.0 * total)
        return vals if vals.max() > 0.0 else None

    return seeded_draw(seed, draw, "random cosine coefficient")


def build_model(preset: Preset, grid: Grid, seed: int = 0, mu: float = 0.1) -> ModelSpec:
    """Instantiate the payoff model of a preset on a grid.

    Each coefficient expression is evaluated on the grid's nodes (a None
    expression draws the coefficient from seed as a random cosine sum),
    so every coefficient of the model is an array.  An unknown kind, and
    a coefficient the preset's kind does not read, are refused by name
    before any is evaluated; ModelSpec refuses a missing one.
    """
    if grid.dim != preset.dim:
        raise ValueError(
            f"preset {preset.name!r} is {preset.dim}D but the grid is {grid.dim}D"
        )
    if preset.kind not in COEFFICIENTS:
        raise ValueError(f"unknown model kind {preset.kind!r}")
    for name in preset.coefficients:
        if name not in COEFFICIENTS[preset.kind]:
            raise ValueError(f"a {preset.kind} model has no coefficient {name!r}")
    evaluated = {
        name: random_cosine_sum(seed, grid) if expr is None else evaluate_expression(expr, grid)
        for name, expr in preset.coefficients.items()
    }
    return ModelSpec(preset.kind, mu, **evaluated)
