"""Grid functions, discrete probability densities and distances between them.

Every grid function that crosses a public function boundary is a
`ScalarField`, which carries its grid; a `Density` is a `ScalarField`
that is nonnegative and integrates to one under the grid quadrature
(atoms are excluded by representation).  Bare node arrays enter only
through the constructors `ScalarField(values, grid)`,
`Density(values, grid)` and `normalize(values, grid)`, and through the
quadrature `integrate(values, grid)` of the grid module below; every
other public function reads its grid from its field arguments with
`grid_of`, or with `density_grid` where it takes a starting `Density`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, integrate, require_int

NORMALIZATION_TOL = 1e-10

# A node is in the support of m when it carries more than this fraction
# of max(m).
SUPPORT_THRESHOLD = 1e-9

MAX_REDRAWS = 100

_FLOAT64 = np.dtype(np.float64)


@dataclass(frozen=True)
class ScalarField:
    """Real-valued grid function (payoff, distance, moved mass...)."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        vals = self.values
        # a float64 ndarray is kept as it is, as np.asarray would keep it;
        # its dtype is numpy's one float64 instance unless made otherwise
        if type(vals) is not np.ndarray or vals.dtype is not _FLOAT64:
            if isinstance(vals, ScalarField):
                raise ValueError(
                    f"{type(self).__name__} takes node values; pass the field's .values"
                )
            vals = np.asarray(vals, dtype=float)
            object.__setattr__(self, "values", vals)
        if vals.shape != self.grid.quad_weights.shape:  # the grid's shape
            raise ValueError(
                f"field shape {vals.shape} does not match grid {self.grid.shape}"
            )


@dataclass(frozen=True)
class Density(ScalarField):
    """Nonnegative grid function with unit integral (the player mass m)."""

    def __post_init__(self):
        super().__post_init__()
        if not np.isfinite(self.values).all() or self.values.min() < 0.0:
            raise ValueError("density values must be finite and nonnegative")
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


def density_grid(m) -> Grid:
    """The grid of a starting density; ValueError unless m is a Density."""
    grid = grid_of(m)
    if not isinstance(m, Density):
        raise ValueError(f"the start must be a Density, not a {type(m).__name__}")
    return grid


def normalize(values, grid: Grid) -> Density:
    """Rescale nonnegative node values so they integrate to one.

    Raises ValueError on non-finite or negative entries or an
    (numerically) all-zero field.  Idempotent on the values of a density.
    """
    if isinstance(values, ScalarField):
        raise ValueError("normalize takes node values; pass the field's .values")
    vals = np.asarray(values, dtype=float)
    if not np.isfinite(vals).all() or vals.min() < 0.0:
        raise ValueError("cannot normalize a field with non-finite or negative values")
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


def support(m: ScalarField) -> np.ndarray:
    """Boolean mask of nodes carrying mass above SUPPORT_THRESHOLD * max(m)."""
    grid_of(m)
    vals = m.values
    return vals > SUPPORT_THRESHOLD * vals.max()


def seeded_draw(seed: int, draw, what: str):
    """The first usable draw(rng) of a seed.

    Draws from the PCG64 stream SeedSequence(seed, spawn_key=(attempt,))
    for attempt = 0, 1, ...; draw returns None for a degenerate draw,
    which moves on to the next attempt.  Raises ValueError, naming
    `what`, after MAX_REDRAWS attempts, and when seed is a bool or not
    an integer.
    """
    seed = require_int(seed, "seed")
    for attempt in range(MAX_REDRAWS):
        rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(attempt,))
        )
        values = draw(rng)
        if values is not None:
            return values
    raise ValueError(f"no usable {what} after {MAX_REDRAWS} redraws")


def random_density(seed: int, grid: Grid) -> Density:
    """Random 1D initial mass: clipped sum of five random sine modes.

    Draws amplitudes a_j and frequencies b_j uniformly from [1,10],
    forms max(0, sum_j a_j sin(b_j pi x)) and normalizes.  Deterministic
    given the seed.  A degenerate all-zero draw is redrawn by
    seeded_draw.
    """
    if grid.dim != 1:
        raise ValueError("random initial densities are only defined in 1D")
    x = grid.axes[0]

    def draw(rng):
        a = rng.uniform(1.0, 10.0, size=5)
        b = rng.uniform(1.0, 10.0, size=5)
        raw = np.maximum(0.0, np.sin(np.pi * np.outer(b, x)).T @ a)
        return raw if integrate(raw, grid) > 0.0 else None

    return normalize(seeded_draw(seed, draw, "random density"), grid)
