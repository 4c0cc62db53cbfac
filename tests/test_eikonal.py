import os
import subprocess
import sys

import numpy as np
import pytest

import mfgflow
from mfgflow import ScalarField, TargetSet, extract_target, make_grid, solve_eikonal


def target_from_indices(grid, idx):
    mask = np.zeros(grid.shape, dtype=bool)
    mask[idx] = True
    return TargetSet(mask=mask, zeta=0.0)


class TestExtractTarget:
    def test_unique_maximizer(self):
        grid = make_grid(1, 100)
        target = extract_target(ScalarField(grid.axes[0].copy(), grid))
        assert target.mask.sum() == 1
        assert target.mask[-1]

    def test_exact_plateau(self):
        grid = make_grid(1, 100)
        theta = np.minimum(grid.axes[0], 0.8)
        target = extract_target(ScalarField(theta, grid))
        assert np.array_equal(target.mask, grid.axes[0] >= 0.8)

    def test_disconnected_double_maximum(self):
        grid = make_grid(1, 100)
        theta = np.cos(2 * np.pi * grid.axes[0])
        target = extract_target(ScalarField(theta, grid))
        hits = np.where(target.mask)[0]
        assert set(hits) == {0, grid.n}

    def test_rejects_nonfinite(self):
        grid = make_grid(1, 10)
        theta = np.zeros(grid.shape)
        theta[3] = np.nan
        with pytest.raises(ValueError):
            extract_target(ScalarField(theta, grid))

    def test_rejects_negative_tolerance(self):
        grid = make_grid(1, 10)
        with pytest.raises(ValueError):
            extract_target(ScalarField(grid.axes[0].copy(), grid), zeta=-1.0)

    def test_empty_target_impossible(self):
        grid = make_grid(1, 10)
        with pytest.raises(ValueError):
            TargetSet(mask=np.zeros(grid.shape, dtype=bool), zeta=0.0)


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
    # at most five targets: on the larger 2D grids most columns hold
    # none, so the first pass is inf there and the second pass fills in
    grid = make_grid(dim, n)
    rng = np.random.default_rng(21)
    for _ in range(10):
        count = rng.integers(1, min(6, grid.num_nodes))
        mask = np.zeros(grid.num_nodes, dtype=bool)
        mask[rng.choice(grid.num_nodes, size=count, replace=False)] = True
        mask = mask.reshape(grid.shape)
        v = solve_eikonal(grid, TargetSet(mask=mask, zeta=0.0))
        assert np.abs(v.values - brute_force_distance(grid, mask)).max() <= 1e-12


class TestEikonal2D:
    def test_corner_target_against_brute_force(self):
        grid = make_grid(2, 50)
        mask = np.zeros(grid.shape, dtype=bool)
        mask[-1, -1] = True
        v = solve_eikonal(grid, TargetSet(mask=mask, zeta=0.0))
        X, Y = grid.coords()
        exact = np.hypot(X - 1.0, Y - 1.0)
        assert np.abs(v.values - exact).max() <= 1e-12

    def test_error_at_roundoff_under_refinement(self):
        for n in (25, 50, 100):
            grid = make_grid(2, n)
            mask = np.zeros(grid.shape, dtype=bool)
            mask[-1, -1] = True
            v = solve_eikonal(grid, TargetSet(mask=mask, zeta=0.0))
            X, Y = grid.coords()
            assert np.abs(v.values - np.hypot(X - 1.0, Y - 1.0)).max() <= 1e-12

    def test_disconnected_targets(self):
        grid = make_grid(2, 40)
        mask = np.zeros(grid.shape, dtype=bool)
        mask[0, 0] = True
        mask[-1, -1] = True
        v = solve_eikonal(grid, TargetSet(mask=mask, zeta=0.0))
        X, Y = grid.coords()
        exact = np.minimum(np.hypot(X, Y), np.hypot(X - 1.0, Y - 1.0))
        assert np.abs(v.values - exact).max() <= 1e-12

    def test_geometric_ties_are_bit_equal(self):
        # offsets (5, 0) and (3, 4) from the target are both 5 dx away;
        # the farthest-first selection breaks such ties by income
        grid = make_grid(2, 10)
        mask = np.zeros(grid.shape, dtype=bool)
        mask[0, 0] = True
        v = solve_eikonal(grid, TargetSet(mask=mask, zeta=0.0)).values
        assert v[5, 0] == v[3, 4] == v[4, 3] == v[0, 5]

    def test_one_lipschitz_between_neighbors(self):
        grid = make_grid(2, 40)
        rng = np.random.default_rng(4)
        mask = np.zeros(grid.shape, dtype=bool)
        flat = rng.choice(grid.num_nodes, size=5, replace=False)
        mask.ravel()[flat] = True
        v = solve_eikonal(grid, TargetSet(mask=mask, zeta=0.0)).values
        dx = grid.spacing
        bound = (1.0 + 0.5 * dx) * dx
        assert np.abs(np.diff(v, axis=0)).max() <= bound
        assert np.abs(np.diff(v, axis=1)).max() <= bound


def test_import_and_2d_solve_load_no_heavy_scipy_modules():
    # scipy.ndimage alone adds about 0.1 s and 5 MB to every start-up
    script = (
        "import sys, numpy as np, mfgflow\n"
        "g = mfgflow.make_grid(2, 20)\n"
        "mask = np.zeros(g.shape, dtype=bool); mask[3, 7] = True\n"
        "mfgflow.solve_eikonal(g, mfgflow.TargetSet(mask=mask, zeta=0.0))\n"
        "print(sorted(m for m in ('scipy.ndimage', 'scipy.spatial') if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(mfgflow.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    assert out.stdout.strip() == "[]"
