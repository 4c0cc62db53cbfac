"""Distance-to-target fields: the exact Euclidean distance transform.

The flow needs dist(x, argmax theta) for target sets that may be
disconnected, where the distance solves |grad v| = 1 with v = 0 on the
target in the viscosity sense.  On the convex unit square with unit
speed that solution is exactly the Euclidean distance to the nearest
target node, so it is computed directly rather than approximated.  The
target is a boolean node mask, such as extract_target's near-argmax set.

A 1D grid is one column, and one pass along it finds the distance to
the nearest target node on each side.  A 2D field is scipy.ndimage's
exact transform (distance_transform_edt, O(n^2) on n^2 nodes), imported
on the first 2D field: it costs about 0.1 s to load, which 1D runs skip.
Both work in node units, where squared distances are exact integers,
and scale by dx only at the end, so geometrically tied nodes (offsets
(5,0) and (3,4), say) receive bit-identical distances, on which the
farthest-first selection's income tiebreak relies.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid
from .measures import ScalarField, grid_of


def extract_target(theta: ScalarField, zeta: float) -> np.ndarray:
    """Boolean mask of the nodes within zeta of max theta; never empty."""
    grid_of(theta)
    vals = theta.values
    if not np.isfinite(vals).all():
        raise ValueError("theta must be finite")
    if not zeta >= 0.0:
        raise ValueError("zeta must be nonnegative")
    return vals >= vals.max() - zeta


def solve_eikonal(grid: Grid, mask: np.ndarray) -> ScalarField:
    """Distance field from the nonempty target mask of the grid's shape,
    v = 0 on the target."""
    if mask.shape != grid.shape:
        raise ValueError("target mask does not match grid shape")
    if not mask.any():
        raise ValueError("target set must be nonempty")
    if grid.dim == 2:
        from scipy.ndimage import distance_transform_edt

        return ScalarField(distance_transform_edt(np.logical_not(mask)) * grid.spacing, grid)
    nodes = np.arange(grid.num_nodes, dtype=float)
    above = np.maximum.accumulate(np.where(mask, nodes, -np.inf))
    below = np.minimum.accumulate(np.where(mask, nodes, np.inf)[::-1])[::-1]
    return ScalarField(np.minimum(nodes - above, below - nodes) * grid.spacing, grid)
