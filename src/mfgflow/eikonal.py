"""Distance-to-target fields: the exact Euclidean distance transform.

The flow needs dist(x, argmax theta) for target sets that may be
disconnected, where the distance solves |grad v| = 1 with v = 0 on the
target in the viscosity sense.  On the convex unit square with unit
speed that solution is exactly the Euclidean distance to the nearest
target node, so it is computed directly rather than approximated.  The
target is a boolean node mask, such as extract_target's near-argmax set.

The squared distance separates by axis (Felzenszwalb & Huttenlocher,
"Distance Transforms of Sampled Functions", Theory of Computing 8,
2012): a first pass finds, along each column, the distance to the
nearest target node, and a second pass minimizes (j-k)^2 + g[i,k]^2
along each row over the columns k that hold a target node.  A 1D grid
is one column, so its field is the first pass alone.  Both passes work
in node units, where squared distances are exact integers, and the
result is scaled by dx only at the end, so geometrically tied
nodes (offsets (5,0) and (3,4), say) receive bit-identical distances;
the farthest-first selection relies on this when it breaks ties by
income.
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
    mask = mask.reshape(grid.n + 1, -1)
    rows = np.arange(mask.shape[0], dtype=float)[:, None]
    above = np.maximum.accumulate(np.where(mask, rows, -np.inf), axis=0)
    below = np.minimum.accumulate(np.where(mask, rows, np.inf)[::-1], axis=0)[::-1]
    gap = np.minimum(rows - above, below - rows)
    if grid.dim == 1:
        # a 1D grid is one column, on which the first pass is already
        # exact: the second pass would only square and root its integers
        return ScalarField(gap.reshape(grid.shape) * grid.spacing, grid)
    g2 = np.square(gap)
    # a column without a target node has g2 = inf and never wins the
    # min, so the second pass runs over the target's columns alone
    cols = np.flatnonzero(mask.any(axis=0))
    g2 = g2[:, cols]
    cols = cols.astype(float)
    d2 = np.empty(mask.shape)
    # one output column at a time keeps the temporary at the grid's size
    for j in range(mask.shape[1]):
        d2[:, j] = (np.square(j - cols) + g2).min(axis=1)
    v = np.sqrt(d2).reshape(grid.shape) * grid.spacing
    return ScalarField(v, grid)
