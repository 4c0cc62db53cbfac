"""Distance-to-target fields: the exact Euclidean distance transform.

The flow needs dist(x, argmax theta) for target sets that may be
disconnected, where the distance solves |grad v| = 1 with v = 0 on the
target in the viscosity sense.  On the convex unit square with unit
speed that solution is exactly the Euclidean distance to the nearest
target node, so it is computed directly rather than approximated.

The squared distance separates by axis (Felzenszwalb & Huttenlocher,
"Distance Transforms of Sampled Functions", Theory of Computing 8,
2012): a first pass finds, along each column, the distance to the
nearest target node, and a second pass minimizes (j-k)^2 + g[i,k]^2
over k along each row.  Both passes work in node units, where squared
distances are exact integers, and the result is scaled by dx only at
the end, so geometrically tied nodes (offsets (5,0) and (3,4), say)
receive bit-identical distances; the farthest-first selection relies
on this when it breaks ties by income.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid
from .measures import ScalarField, grid_of


@dataclass(frozen=True)
class TargetSet:
    """Discrete maximizer set of a payoff field.

    mask flags the target nodes; zeta is the level tolerance that was
    used to extract them.  Never empty (the maximizer always belongs).
    """

    mask: np.ndarray
    zeta: float

    def __post_init__(self):
        if not bool(self.mask.any()):
            raise ValueError("target set must be nonempty")


def extract_target(theta: ScalarField, zeta: float | None = None) -> TargetSet:
    """Nodes within zeta of the maximum of theta.

    Default zeta = 1e-10 * (1 + |max theta|), which resolves exact
    plateaus while ignoring roundoff-level variation.
    """
    grid_of(theta)
    vals = theta.values
    if not np.isfinite(vals).all():
        raise ValueError("theta must be finite")
    top = vals.max()
    if zeta is None:
        zeta = 1e-10 * (1.0 + abs(top))
    if zeta < 0.0:
        raise ValueError("zeta must be nonnegative")
    return TargetSet(mask=vals >= top - zeta, zeta=float(zeta))


def solve_eikonal(grid: Grid, target: TargetSet) -> ScalarField:
    """Distance field from the target set, v = 0 on target nodes."""
    if target.mask.shape != grid.shape:
        raise ValueError("target mask does not match grid shape")
    # a 1D grid is one column: the first pass is then already exact and
    # the second pass runs once
    mask = target.mask.reshape(grid.n + 1, -1)
    rows = np.arange(mask.shape[0], dtype=float)[:, None]
    above = np.maximum.accumulate(np.where(mask, rows, -np.inf), axis=0)
    below = np.minimum.accumulate(np.where(mask, rows, np.inf)[::-1], axis=0)[::-1]
    g2 = np.square(np.minimum(rows - above, below - rows))
    cols = np.arange(mask.shape[1], dtype=float)
    d2 = np.empty(mask.shape)
    # one output column at a time keeps the temporary at the grid's size
    for j in range(mask.shape[1]):
        d2[:, j] = (np.square(j - cols) + g2).min(axis=1)
    v = np.sqrt(d2).reshape(grid.shape) * grid.spacing
    return ScalarField(v, grid)
