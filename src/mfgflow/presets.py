"""Named experiment presets and the coefficient expression grammar.

Coefficient fields can be given as small arithmetic expressions over
the node coordinates: identifiers x, y and pi, numeric constants, the
operators + - * /, unary minus, and the functions sin, cos, exp, abs
and the two-argument max.  Expressions are evaluated per node with
numpy broadcasting; nothing else is accepted.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

import numpy as np

from .elliptic import ModelSpec
from .grid import Grid

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


def evaluate_expression(expr: str, grid: Grid) -> np.ndarray:
    """Evaluate a coefficient expression on every grid node."""
    coords = grid.coords()
    names = {"x": coords[0], "pi": np.pi}
    if grid.dim == 2:
        names["y"] = coords[1]
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {expr!r}: {exc}") from exc

    def walk(node):
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)):
                return float(node.value)
            raise ExpressionError(f"non-numeric constant {node.value!r}")
        if isinstance(node, ast.Name):
            if node.id in names:
                return names[node.id]
            raise ExpressionError(f"unknown identifier {node.id!r}")
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            val = walk(node.operand)
            return -val if isinstance(node.op, ast.USub) else val
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return _BINOPS[type(node.op)](walk(node.left), walk(node.right))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            fn = _FUNCTIONS.get(node.func.id)
            if fn is None:
                raise ExpressionError(f"unknown function {node.func.id!r}")
            if node.keywords:
                raise ExpressionError("keyword arguments are not supported")
            args = [walk(a) for a in node.args]
            if node.func.id == "max" and len(args) != 2:
                raise ExpressionError("max takes exactly two arguments")
            if node.func.id != "max" and len(args) != 1:
                raise ExpressionError(f"{node.func.id} takes exactly one argument")
            return fn(*args)
        raise ExpressionError(f"unsupported syntax in {expr!r}")

    return np.broadcast_to(np.asarray(walk(tree), dtype=float), grid.shape).copy()


@dataclass(frozen=True)
class Preset:
    """A named payoff configuration from the benchmark suite."""

    name: str
    kind: str  # linear | nonlinear
    dim: int
    coefficient: str | None  # expression for f (linear) or K (nonlinear)
    P: float | None = None  # linear only
    default_eps0: float = 0.1
    random_cosine: bool = False  # coefficient drawn from a seeded cosine sum


_GAUSS2D = "5*exp(-((x-1)*(x-1)+(y-1)*(y-1))/0.5)"

PRESETS = {
    "linear-4x": Preset("linear-4x", "linear", 1, "4*x", P=0.5),
    "linear-sin": Preset("linear-sin", "linear", 1, "max(0, 9*x*sin(5*pi*x))", P=0.5),
    "linear-cos": Preset("linear-cos", "linear", 1, "15*(cos(2*pi*x)+1)", P=0.5),
    "nonlinear-4x": Preset("nonlinear-4x", "nonlinear", 1, "4*x"),
    "nonlinear-sin": Preset("nonlinear-sin", "nonlinear", 1, "max(0, 9*x*sin(5*pi*x))"),
    "nonlinear-cos": Preset("nonlinear-cos", "nonlinear", 1, "15*(cos(2*pi*x)+1)"),
    "linear-gauss2d": Preset(
        "linear-gauss2d", "linear", 2, _GAUSS2D, P=1.0, default_eps0=0.5
    ),
    "nonlinear-gauss2d": Preset(
        "nonlinear-gauss2d", "nonlinear", 2, _GAUSS2D, default_eps0=0.25
    ),
    "linear-randcos2d": Preset(
        "linear-randcos2d", "linear", 2, None, P=1.0, default_eps0=0.5,
        random_cosine=True,
    ),
    "nonlinear-randcos2d": Preset(
        "nonlinear-randcos2d", "nonlinear", 2, None, default_eps0=0.25,
        random_cosine=True,
    ),
}


def random_cosine_sum(seed: int, grid: Grid) -> np.ndarray:
    """max(0, 4 sum_i cos(a_i pi x) cos(b_i pi y)), a_i, b_i ~ U[0,10].

    Redrawn on a split substream if a draw is (numerically) identically
    zero, so the coefficient always satisfies the model assumptions.
    """
    if grid.dim != 2:
        raise ValueError("random cosine coefficients are 2D only")
    X, Y = grid.coords()
    for attempt in range(100):
        rng = np.random.default_rng(
            np.random.SeedSequence(int(seed), spawn_key=(attempt,))
        )
        a = rng.uniform(0.0, 10.0, size=4)
        b = rng.uniform(0.0, 10.0, size=4)
        total = np.zeros(grid.shape)
        for ai, bi in zip(a, b):
            total += np.cos(ai * np.pi * X) * np.cos(bi * np.pi * Y)
        vals = np.maximum(0.0, 4.0 * total)
        if vals.max() > 0.0:
            return vals
    raise ValueError("no usable random cosine coefficient after 100 redraws")


def build_model(preset: Preset, grid: Grid, seed: int = 0, mu: float = 0.1) -> ModelSpec:
    """Instantiate the payoff model of a preset on a grid."""
    if grid.dim != preset.dim:
        raise ValueError(
            f"preset {preset.name!r} is {preset.dim}D but the grid is {grid.dim}D"
        )
    if preset.random_cosine:
        coef = random_cosine_sum(seed, grid)
    else:
        coef = evaluate_expression(preset.coefficient, grid)
    if preset.kind == "linear":
        return ModelSpec.linear(mu=mu, P=preset.P, f=coef)
    return ModelSpec.nonlinear(mu=mu, K=coef)
