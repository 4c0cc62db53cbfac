import os
import subprocess
import sys

import numpy as np
import pytest

import mfgflow
from mfgflow import ScalarField, extract_target, make_grid, solve_eikonal


def target_from_indices(grid, idx):
    mask = np.zeros(grid.shape, dtype=bool)
    mask[idx] = True
    return mask


class TestExtractTarget:
    def test_unique_maximizer(self):
        grid = make_grid(1, 100)
        mask = extract_target(ScalarField(grid.axes[0].copy(), grid), zeta=0.0)
        assert mask.sum() == 1
        assert mask[-1]

    def test_exact_plateau(self):
        grid = make_grid(1, 100)
        theta = np.minimum(grid.axes[0], 0.8)
        mask = extract_target(ScalarField(theta, grid), zeta=0.0)
        assert np.array_equal(mask, grid.axes[0] >= 0.8)

    def test_disconnected_double_maximum(self):
        grid = make_grid(1, 100)
        theta = np.cos(2 * np.pi * grid.axes[0])
        mask = extract_target(ScalarField(theta, grid), zeta=0.0)
        hits = np.where(mask)[0]
        assert set(hits) == {0, grid.n}

    def test_rejects_nonfinite(self):
        grid = make_grid(1, 10)
        theta = np.zeros(grid.shape)
        theta[3] = np.nan
        with pytest.raises(ValueError):
            extract_target(ScalarField(theta, grid), zeta=0.0)

    def test_rejects_negative_tolerance(self):
        grid = make_grid(1, 10)
        for zeta in (-1.0, np.nan):
            with pytest.raises(ValueError, match="zeta must be nonnegative"):
                extract_target(ScalarField(grid.axes[0].copy(), grid), zeta=zeta)

    def test_empty_target_impossible(self):
        grid = make_grid(1, 10)
        with pytest.raises(ValueError, match="nonempty"):
            solve_eikonal(grid, np.zeros(grid.shape, dtype=bool))

    def test_mask_of_another_shape_rejected(self):
        with pytest.raises(ValueError, match="does not match grid shape"):
            solve_eikonal(make_grid(1, 10), np.ones(12, dtype=bool))


def brute_force_distance(grid, mask):
    """min over target nodes of the Euclidean distance, node by node."""
    coords = grid.coords()
    diff = [c[..., None] - c[mask] for c in coords]
    return np.min(np.sqrt(sum(d * d for d in diff)), axis=-1)


class TestEikonal1D:
    def test_right_endpoint(self):
        grid = make_grid(1, 200)
        v = solve_eikonal(grid, target_from_indices(grid, [grid.n]))
        assert np.abs(v.values - (1.0 - grid.axes[0])).max() <= 1e-12

    def test_two_endpoints_kink(self):
        grid = make_grid(1, 200)
        v = solve_eikonal(grid, target_from_indices(grid, [0, grid.n]))
        exact = np.minimum(grid.axes[0], 1.0 - grid.axes[0])
        assert np.abs(v.values - exact).max() <= 1e-12

    def test_zero_exactly_on_target(self):
        grid = make_grid(1, 100)
        v = solve_eikonal(grid, target_from_indices(grid, [17, 54]))
        assert v.values[17] == 0.0 and v.values[54] == 0.0
        off = np.ones(grid.shape, dtype=bool)
        off[[17, 54]] = False
        assert (v.values[off] > 0.0).all()


@pytest.mark.parametrize("dim, n", [(1, 2), (1, 317), (2, 2), (2, 37), (2, 400)])
def test_matches_brute_force_on_random_targets(dim, n):
    # at most five targets: on the larger 2D grids most rows and columns
    # hold none, so most nodes are far from every target along both axes
    grid = make_grid(dim, n)
    rng = np.random.default_rng(21)
    for _ in range(10):
        count = rng.integers(1, min(6, grid.num_nodes))
        mask = np.zeros(grid.num_nodes, dtype=bool)
        mask[rng.choice(grid.num_nodes, size=count, replace=False)] = True
        mask = mask.reshape(grid.shape)
        v = solve_eikonal(grid, mask)
        assert np.abs(v.values - brute_force_distance(grid, mask)).max() <= 1e-12


def squared_node_offsets(mask):
    """min over target nodes (r, k) of (i - r)^2 + (j - k)^2 at every node
    (i, j), in exact integers: per target row the nearest target column,
    then the nearest row, both by exhaustive search."""
    rows, cols = mask.shape
    far = 4 * (rows + cols) ** 2  # more than any squared offset on the grid
    j = np.arange(cols)
    h2 = np.full(mask.shape, far, dtype=np.int64)
    for r in np.flatnonzero(mask.any(axis=1)):
        h2[r] = ((j[:, None] - np.flatnonzero(mask[r])[None, :]) ** 2).min(axis=1)
    r2 = (np.arange(rows)[:, None] - np.arange(rows)[None, :]) ** 2
    return np.stack([(r2[i][:, None] + h2).min(axis=0) for i in range(rows)])


def edt_masks(grid):
    """Random targets at densities 0.001-0.9, each holding at least one
    node, the half square x < 0.5, the whole grid, one corner node and
    two disconnected blocks."""
    rng = np.random.default_rng(grid.n)
    n = grid.n
    for density in (0.001, 0.01, 0.1, 0.5, 0.9):
        mask = rng.random(grid.shape) < density
        mask.flat[rng.integers(grid.num_nodes)] = True
        yield f"random-{density}", mask
    yield "half-square", grid.coords()[0] < 0.5
    yield "full", np.ones(grid.shape, dtype=bool)
    corner = np.zeros(grid.shape, dtype=bool)
    corner[-1, 0] = True
    yield "corner", corner
    blocks = np.zeros(grid.shape, dtype=bool)
    blocks[: n // 4 + 1, : n // 5 + 1] = True
    blocks[n - n // 6 :, n - n // 3 :] = True
    yield "two-blocks", blocks


@pytest.mark.parametrize("n", [2, 3, 37, 100, 400])
def test_2d_field_is_the_root_of_the_integer_offset_times_dx(n):
    # the transform works in node units, so every distance is the root of
    # an exact integer, scaled by dx once: equal to the bit, not to 1e-12
    grid = make_grid(2, n)
    for name, mask in edt_masks(grid):
        expected = np.sqrt(squared_node_offsets(mask).astype(float)) * grid.spacing
        assert np.array_equal(solve_eikonal(grid, mask).values, expected), name


def test_1d_field_is_the_node_count_times_dx():
    # the 1D field is one pass along the line, which never squares and
    # roots its integers: it stays a whole number of nodes times dx, to the bit
    grid = make_grid(1, 317)
    mask = np.zeros(grid.shape, dtype=bool)
    mask[[3, 40, 41, 300]] = True
    nodes = np.arange(grid.num_nodes)
    count = np.abs(nodes[:, None] - np.flatnonzero(mask)[None, :]).min(axis=1)
    assert np.array_equal(solve_eikonal(grid, mask).values, count * grid.spacing)


class TestEikonal2D:
    def test_corner_target_against_brute_force(self):
        grid = make_grid(2, 50)
        mask = np.zeros(grid.shape, dtype=bool)
        mask[-1, -1] = True
        v = solve_eikonal(grid, mask)
        X, Y = grid.coords()
        exact = np.hypot(X - 1.0, Y - 1.0)
        assert np.abs(v.values - exact).max() <= 1e-12

    def test_error_at_roundoff_under_refinement(self):
        for n in (25, 50, 100):
            grid = make_grid(2, n)
            mask = np.zeros(grid.shape, dtype=bool)
            mask[-1, -1] = True
            v = solve_eikonal(grid, mask)
            X, Y = grid.coords()
            assert np.abs(v.values - np.hypot(X - 1.0, Y - 1.0)).max() <= 1e-12

    def test_disconnected_targets(self):
        grid = make_grid(2, 40)
        mask = np.zeros(grid.shape, dtype=bool)
        mask[0, 0] = True
        mask[-1, -1] = True
        v = solve_eikonal(grid, mask)
        X, Y = grid.coords()
        exact = np.minimum(np.hypot(X, Y), np.hypot(X - 1.0, Y - 1.0))
        assert np.abs(v.values - exact).max() <= 1e-12

    def test_geometric_ties_are_bit_equal(self):
        # offsets (5, 0) and (3, 4) from the target are both 5 dx away;
        # the farthest-first selection breaks such ties by income
        grid = make_grid(2, 10)
        mask = np.zeros(grid.shape, dtype=bool)
        mask[0, 0] = True
        v = solve_eikonal(grid, mask).values
        assert v[5, 0] == v[3, 4] == v[4, 3] == v[0, 5]

    def test_one_lipschitz_between_neighbors(self):
        grid = make_grid(2, 40)
        rng = np.random.default_rng(4)
        mask = np.zeros(grid.shape, dtype=bool)
        flat = rng.choice(grid.num_nodes, size=5, replace=False)
        mask.ravel()[flat] = True
        v = solve_eikonal(grid, mask).values
        dx = grid.spacing
        bound = (1.0 + 0.5 * dx) * dx
        assert np.abs(np.diff(v, axis=0)).max() <= bound
        assert np.abs(np.diff(v, axis=1)).max() <= bound


def test_scipy_ndimage_loads_only_for_a_2d_distance_field():
    # scipy.ndimage adds about 0.1 s and 5 MB to a start-up, so it loads
    # on the first 2D distance field, and 1D runs never import it;
    # scipy.fft (about 70 ms) loads on the first 2D payoff solve, and
    # scipy.optimize is used by the min-max-income test oracle only
    script = (
        "import sys, numpy as np, mfgflow\n"
        "heavy = ('scipy.ndimage', 'scipy.spatial', 'scipy.optimize', 'scipy.fft')\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
        "g1 = mfgflow.make_grid(1, 50)\n"
        "mask = np.zeros(g1.shape, dtype=bool); mask[7] = True\n"
        "mfgflow.solve_eikonal(g1, mask)\n"
        "m = mfgflow.normalize(np.ones(g1.shape), g1)\n"
        "mfgflow.solve_payoff(mfgflow.ModelSpec.linear(mu=0.1, P=0.5, f=2.0), m)\n"
        "mfgflow.solve_payoff(mfgflow.ModelSpec.nonlinear(mu=0.1, K=4.0), m)\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
        "g = mfgflow.make_grid(2, 20)\n"
        "mask = np.zeros(g.shape, dtype=bool); mask[3, 7] = True\n"
        "mfgflow.solve_eikonal(g, mask)\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(mfgflow.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    assert out.stdout.splitlines() == ["[]", "[]", "['scipy.ndimage']"]
