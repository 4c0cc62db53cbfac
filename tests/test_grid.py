import numpy as np
import pytest

from mfgflow import make_grid, integrate


def test_reference_1d_grid():
    grid = make_grid(1, 1000)
    assert grid.shape == (1001,)
    assert grid.spacing == pytest.approx(0.001, abs=1e-18)
    assert grid.spacing * grid.n == pytest.approx(1.0, abs=1e-15)


def test_reference_2d_grid():
    grid = make_grid(2, 100)
    assert grid.shape == (101, 101)
    assert grid.spacing == pytest.approx(0.01)


def test_smallest_grid_trapezoid_weights():
    grid = make_grid(1, 2)
    assert np.allclose(grid.axes[0], [0.0, 0.5, 1.0])
    assert np.allclose(grid.quad_weights, [0.25, 0.5, 0.25])
    # 2D weights are the outer product of the 1D ones
    w1 = grid.quad_weights
    assert np.array_equal(make_grid(2, 2).quad_weights, np.outer(w1, w1))


def test_default_resolutions():
    assert make_grid(1).n == 1000
    assert make_grid(2).n == 100


@pytest.mark.parametrize("n", [0, 1, -3, 2.7, 1000.9, 3.0, True])
def test_rejects_tiny_grids(n):
    # a float or a bool is refused, not truncated to an interval count
    with pytest.raises(ValueError):
        make_grid(1, n)


def test_rejects_bad_dim():
    for dim in (3, True, 1.0, np.bool_(True)):
        with pytest.raises(ValueError):
            make_grid(dim, 10)


def test_grids_compare_and_hash_by_dim_and_n():
    grid = make_grid(1, 10)
    assert grid == make_grid(1, 10) and hash(grid) == hash(make_grid(1, np.int64(10)))
    assert grid != make_grid(1, 11) and grid != make_grid(2, 10)
    assert len({grid, make_grid(1, 10), make_grid(2, 10)}) == 2


def test_1d_weights_sum_to_one():
    for n in (2, 17, 1000):
        grid = make_grid(1, n)
        assert integrate(np.ones(grid.shape), grid) == pytest.approx(1.0, abs=1e-12)


def test_2d_weights_sum_near_one():
    # the product of the 1D trapezoid weights sums to 1 up to rounding
    for n in (2, 17, 100):
        grid = make_grid(2, n)
        assert integrate(np.ones(grid.shape), grid) == pytest.approx(1.0, abs=1e-12)


def test_trapezoid_exact_on_affine():
    grid = make_grid(1, 137)
    x = grid.axes[0]
    assert integrate(x, grid) == pytest.approx(0.5, abs=1e-12)
    assert integrate(3.0 * x - 1.25, grid) == pytest.approx(0.25, abs=1e-12)


def test_quadratic_integral_near_analytic():
    grid = make_grid(1, 1000)
    x = grid.axes[0]
    # analytic oracle: integral of x^2 over [0,1] is 1/3
    assert integrate(x * x, grid) == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_refinement_reduces_error_by_at_least_three():
    exact = np.e - 1.0
    errors = []
    for n in (50, 100, 200):
        grid = make_grid(1, n)
        errors.append(abs(integrate(np.exp(grid.axes[0]), grid) - exact))
    assert errors[0] / errors[1] >= 3.0
    assert errors[1] / errors[2] >= 3.0


def test_shape_mismatch_rejected():
    grid = make_grid(1, 10)
    with pytest.raises(ValueError):
        integrate(np.ones(7), grid)


def test_2d_integration():
    grid = make_grid(2, 100)
    X, Y = grid.coords()
    # the product trapezoid rule is exact on the bilinear x*y
    assert integrate(X * Y, grid) == pytest.approx(0.25, abs=1e-12)
