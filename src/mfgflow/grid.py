"""Uniform grids on the unit interval and unit square, with quadrature.

All solvers in this package operate on node-centered uniform grids over
[0,1] (1D) or [0,1]x[0,1] (2D) with homogeneous Neumann boundary
structure.  Integrals are evaluated with the trapezoidal rule in 1D and
the rectangular rule in 2D.

This is the bottom layer: it knows node arrays and grids only.  Grid
functions that carry their grid (`ScalarField`, `Density`) live in
`measures`; `integrate(values, grid)` is the one place here where node
arrays meet a grid.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        Per-node quadrature weights with the grid's shape.  1D weights
        are trapezoidal (dx/2 at the two endpoints, dx inside), so they
        sum to 1 exactly.  2D weights are the rectangular rule dx*dy at
        every node including the boundary, so they sum to (1+dx)^2
        rather than 1; densities are normalized against these same
        weights, which keeps the convention consistent throughout.
    """

    dim: int
    n: int
    spacing: float
    axes: tuple[np.ndarray, ...]
    quad_weights: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return self.quad_weights.shape

    @property
    def num_nodes(self) -> int:
        return int(self.quad_weights.size)

    def coords(self) -> tuple[np.ndarray, ...]:
        """Node coordinate arrays broadcast to the grid shape."""
        if self.dim == 1:
            return (self.axes[0],)
        return tuple(np.meshgrid(*self.axes, indexing="ij"))


def make_grid(dim: int, n_per_axis: int | None = None) -> Grid:
    """Build a uniform grid on [0,1]^dim with n_per_axis intervals.

    Parameters
    ----------
    dim : 1 or 2
    n_per_axis : int, optional
        Intervals per axis (at least 2).  Defaults to 1000 in 1D and
        100 per axis in 2D.
    """
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim!r}")
    n = DEFAULT_N[dim] if n_per_axis is None else int(n_per_axis)
    if n < 2:
        raise ValueError(f"n_per_axis must be >= 2, got {n}")
    dx = 1.0 / n
    axis = np.linspace(0.0, 1.0, n + 1)
    axis.setflags(write=False)
    if dim == 1:
        w = np.full(n + 1, dx)
        w[0] = w[-1] = dx / 2.0
    else:
        w = np.full((n + 1, n + 1), dx * dx)
    w.setflags(write=False)
    return Grid(dim=dim, n=n, spacing=dx, axes=(axis,) * dim, quad_weights=w)


def integrate(values, grid: Grid) -> float:
    """Quadrature of node values: sum of weights times values.

    `values` is a plain array with the grid's shape.  This module knows
    no field types; callers holding a field pass its `.values`.
    """
    vals = np.asarray(values)
    if vals.shape != grid.shape:
        raise ValueError(
            f"field shape {vals.shape} does not match grid shape {grid.shape}"
        )
    return float(np.sum(grid.quad_weights * vals))
