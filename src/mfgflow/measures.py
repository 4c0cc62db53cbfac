"""Grid functions, discrete probability densities and distances between them.

Every grid function that crosses a public function boundary is a
`ScalarField`, which carries its grid; a `Density` is a `ScalarField`
that is nonnegative and integrates to one under the grid quadrature
(atoms are excluded by representation).  Bare node arrays enter only
through the constructors `ScalarField(values, grid)`,
`Density(values, grid)` and `normalize(values, grid)`, and through the
quadrature `integrate(values, grid)` of the grid module below; every
other public function reads its grid from its field arguments with
`grid_of`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, integrate

NORMALIZATION_TOL = 1e-10

# Initializers draw from PCG64 streams split as SeedSequence(seed,
# spawn_key=(attempt,)); attempt increments only on degenerate draws.
MAX_REDRAWS = 100


@dataclass(frozen=True)
class ScalarField:
    """Real-valued grid function (payoff, distance, moved mass...)."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"field shape {vals.shape} does not match grid {self.grid.shape}"
            )
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class Density(ScalarField):
    """Nonnegative grid function with unit integral (the player mass m)."""

    def __post_init__(self):
        super().__post_init__()
        if self.values.min() < 0.0:
            raise ValueError("density values must be nonnegative")
        mass = integrate(self.values, self.grid)
        if abs(mass - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"density must integrate to 1, got {mass!r}")


def grid_of(*fields) -> Grid:
    """The grid shared by field arguments.

    Raises ValueError when an argument is not a ScalarField, or when two
    of them lie on grids of different shape.
    """
    grid = None
    for fld in fields:
        if not isinstance(fld, ScalarField):
            raise ValueError(f"expected a ScalarField, got {type(fld).__name__}")
        if grid is None:
            grid = fld.grid
        elif fld.grid is not grid and fld.grid.shape != grid.shape:
            raise ValueError("fields lie on grids of different shape")
    return grid


def normalize(values, grid: Grid) -> Density:
    """Rescale nonnegative node values so they integrate to one.

    Raises ValueError on negative entries or an (numerically) all-zero
    field.  Idempotent on the values of a density.
    """
    vals = np.asarray(values, dtype=float)
    if vals.min() < 0.0:
        raise ValueError("cannot normalize a field with negative values")
    mass = integrate(vals, grid)
    if mass <= 0.0:
        raise ValueError("cannot normalize an all-zero field")
    return Density(vals / mass, grid)


def tv_distance(m1: ScalarField, m2: ScalarField) -> float:
    """Total-variation distance: quadrature of |m1 - m2|.

    Symmetric, and zero iff the node values coincide.
    """
    grid = grid_of(m1, m2)
    return integrate(np.abs(m1.values - m2.values), grid)


def w1_distance_1d(m1: ScalarField, m2: ScalarField) -> float:
    """1-Wasserstein distance between 1D densities via their CDFs.

    Computes the integral over [0,1] of |M1 - M2| where M_i is the
    cumulative (trapezoidal) integral of m_i.  Only defined in 1D.
    """
    grid = grid_of(m1, m2)
    if grid.dim != 1:
        raise ValueError("w1_distance_1d is only defined on 1D grids")
    diff = m1.values - m2.values
    dx = grid.spacing
    cdf = np.concatenate(([0.0], np.cumsum(dx * 0.5 * (diff[:-1] + diff[1:]))))
    return integrate(np.abs(cdf), grid)


def support(m: ScalarField, rel_threshold: float = 1e-9) -> np.ndarray:
    """Boolean mask of nodes carrying mass above rel_threshold * max(m)."""
    grid_of(m)
    if not 0.0 <= rel_threshold < 1.0:
        raise ValueError("rel_threshold must lie in [0, 1)")
    vals = m.values
    return vals > rel_threshold * vals.max()


def random_density(seed: int, grid: Grid) -> Density:
    """Random 1D initial mass: clipped sum of five random sine modes.

    Draws amplitudes a_j and frequencies b_j uniformly from [1,10],
    forms max(0, sum_j a_j sin(b_j pi x)) and normalizes.  Deterministic
    given the seed.  A degenerate all-zero draw triggers a redraw on a
    split substream; after MAX_REDRAWS attempts an error is raised.
    """
    if grid.dim != 1:
        raise ValueError("random initial densities are only defined in 1D")
    x = grid.axes[0]
    for attempt in range(MAX_REDRAWS):
        rng = np.random.default_rng(
            np.random.SeedSequence(int(seed), spawn_key=(attempt,))
        )
        a = rng.uniform(1.0, 10.0, size=5)
        b = rng.uniform(1.0, 10.0, size=5)
        raw = np.maximum(0.0, np.sin(np.pi * np.outer(b, x)).T @ a)
        if integrate(raw, grid) > 0.0:
            return normalize(raw, grid)
    raise ValueError(f"no usable random density after {MAX_REDRAWS} redraws")
