"""Uniform grids on the unit interval and unit square, with quadrature.

All solvers in this package operate on node-centered uniform grids over
[0,1] (1D) or [0,1]x[0,1] (2D) with homogeneous Neumann boundary
structure.  Integrals are evaluated with the trapezoidal rule: the 1D
weights, and their outer product in 2D.

This is the bottom layer: it knows node arrays and grids only.  Grid
functions that carry their grid (`ScalarField`, `Density`) live in
`measures`; `integrate(values, grid)` is the one place here where node
arrays meet a grid.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

# Grid resolutions used by the reference experiments.
DEFAULT_N = {1: 1000, 2: 100}


@dataclass(frozen=True)
class Grid:
    """Node-centered uniform grid on [0,1]^dim.

    Attributes
    ----------
    dim : int
        Spatial dimension, 1 or 2.
    n : int
        Number of intervals per axis; nodes are indexed 0..n.
    spacing : float
        Node spacing 1/n, identical on every axis.
    axes : tuple of ndarray
        Per-axis node coordinates, each of shape (n+1,).
    quad_weights : ndarray
        Per-node trapezoidal weights with the grid's shape: dx/2 at the
        two ends of an axis and dx inside, multiplied across the axes in
        2D, so they sum to 1.  They are the only node weights in the
        package: mass, distances and the payoff energy all use them,
        and -Lap with reflected Neumann rows is symmetric in them.

    (dim, n) fix every other field, so grids compare and hash by them.
    """

    dim: int
    n: int
    spacing: float = field(compare=False)
    axes: tuple[np.ndarray, ...] = field(compare=False)
    quad_weights: np.ndarray = field(compare=False)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.quad_weights.shape

    @property
    def num_nodes(self) -> int:
        return int(self.quad_weights.size)

    def coords(self) -> tuple[np.ndarray, ...]:
        """Node coordinate arrays broadcast to the grid shape."""
        return tuple(np.meshgrid(*self.axes, indexing="ij"))


def require_int(value, name: str) -> int:
    """value as an int: numpy integers pass, a bool or a float raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def make_grid(dim: int, n_per_axis: int | None = None) -> Grid:
    """Build a uniform grid on [0,1]^dim with n_per_axis intervals.

    Parameters
    ----------
    dim : 1 or 2
    n_per_axis : int, optional
        Intervals per axis (at least 2).  Defaults to 1000 in 1D and
        100 per axis in 2D.

    Both are integers (numpy integers included); a bool or a float is
    refused with ValueError.
    """
    dim = require_int(dim, "dim")
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim!r}")
    n = DEFAULT_N[dim] if n_per_axis is None else require_int(n_per_axis, "n_per_axis")
    if n < 2:
        raise ValueError(f"n_per_axis must be >= 2, got {n}")
    dx = 1.0 / n
    axis = np.linspace(0.0, 1.0, n + 1)
    axis.setflags(write=False)
    w = np.full(n + 1, dx)
    w[0] = w[-1] = dx / 2.0
    if dim == 2:
        w = np.outer(w, w)
    w.setflags(write=False)
    return Grid(dim=dim, n=n, spacing=dx, axes=(axis,) * dim, quad_weights=w)


def integrate(values, grid: Grid) -> float:
    """Quadrature of node values: sum of weights times values.

    `values` is a plain array with the grid's shape.  This module knows
    no field types; callers holding a field pass its `.values`.
    """
    if hasattr(values, "grid"):  # a field object, which carries its grid
        raise ValueError("integrate takes node values; pass the field's .values")
    vals = np.asarray(values)
    if vals.shape != grid.shape:
        raise ValueError(
            f"field shape {vals.shape} does not match grid shape {grid.shape}"
        )
    return float(np.add.reduce(grid.quad_weights * vals, axis=None))  # np.sum, unwrapped
