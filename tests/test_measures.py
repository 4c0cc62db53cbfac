import numpy as np
import pytest

from mfgflow import (
    Density,
    make_grid,
    integrate,
    normalize,
    random_density,
    support,
    tv_distance,
)
from mfgflow.measures import MAX_REDRAWS, seeded_draw


@pytest.fixture(scope="module")
def grid():
    return make_grid(1, 1000)


def indicator(grid, lo, hi, height=1.0):
    x = grid.axes[0]
    return height * ((x >= lo) & (x <= hi)).astype(float)


class TestNormalize:
    def test_constant(self, grid):
        m = normalize(2.0 * np.ones(grid.shape), grid)
        assert np.allclose(m.values, 1.0)

    def test_half_indicator(self, grid):
        m = normalize(indicator(grid, 0.0, 0.5), grid)
        assert m.values.max() == pytest.approx(2.0, rel=1e-2)
        assert integrate(m.values, grid) == pytest.approx(1.0, abs=1e-10)

    def test_clipped_sine(self, grid):
        raw = np.maximum(0.0, np.sin(3 * np.pi * grid.axes[0]))
        m = normalize(raw, grid)
        assert integrate(m.values, grid) == pytest.approx(1.0, abs=1e-10)
        assert m.values.min() >= 0.0

    def test_idempotent(self, grid):
        m = normalize(np.exp(grid.axes[0]), grid)
        again = normalize(m.values, m.grid)
        assert np.array_equal(m.values, again.values)

    def test_rejects_zero_field(self, grid):
        with pytest.raises(ValueError):
            normalize(np.zeros(grid.shape), grid)

    def test_rejects_negative_field(self, grid):
        raw = np.ones(grid.shape)
        raw[3] = -0.5
        with pytest.raises(ValueError):
            normalize(raw, grid)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_field(self, grid, bad):
        raw = np.ones(grid.shape)
        raw[3] = bad
        with pytest.raises(ValueError, match="finite"):
            normalize(raw, grid)


class TestDensityInvariants:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, grid, bad):
        with pytest.raises(ValueError, match="finite"):
            Density(np.full(grid.shape, bad), grid)
        vals = np.ones(grid.shape)
        vals[3] = bad
        with pytest.raises(ValueError, match="finite"):
            Density(vals, grid)

    def test_rejects_unnormalized(self, grid):
        with pytest.raises(ValueError):
            Density(2.0 * np.ones(grid.shape), grid)

    def test_rejects_negative(self, grid):
        vals = np.ones(grid.shape)
        vals[0] = -1e-6
        with pytest.raises(ValueError):
            Density(vals, grid)


class TestTVDistance:
    def test_identity(self, grid):
        m = normalize(np.ones(grid.shape), grid)
        assert tv_distance(m, m) == 0.0

    def test_disjoint_halves(self, grid):
        m1 = normalize(indicator(grid, 0.0, 0.5), grid)
        m2 = normalize(indicator(grid, 0.5, 1.0), grid)
        assert tv_distance(m1, m2) == pytest.approx(2.0, abs=2 * grid.spacing * 4)

    def test_uniform_vs_linear(self, grid):
        m1 = normalize(np.ones(grid.shape), grid)
        m2 = normalize(4.0 * grid.axes[0], grid)
        # closed form: integral of |1 - 2x| over [0,1] is 1/2
        assert tv_distance(m1, m2) == pytest.approx(0.5, abs=2 * grid.spacing)

    def test_metric_axioms_on_random_triples(self, grid):
        rng = np.random.default_rng(42)
        for _ in range(50):
            a = normalize(rng.uniform(0.05, 1.0, grid.shape), grid)
            b = normalize(rng.uniform(0.05, 1.0, grid.shape), grid)
            c = normalize(rng.uniform(0.05, 1.0, grid.shape), grid)
            dab = tv_distance(a, b)
            assert dab == tv_distance(b, a)
            assert dab >= 0.0
            assert tv_distance(a, c) <= dab + tv_distance(b, c) + 1e-12
        assert tv_distance(a, a) == 0.0

    def test_grid_mismatch_rejected(self, grid):
        other = make_grid(1, 10)
        m1 = normalize(np.ones(grid.shape), grid)
        m2 = normalize(np.ones(other.shape), other)
        with pytest.raises(ValueError):
            tv_distance(m1, m2)


class TestSupport:
    def test_uniform_full_support(self, grid):
        m = normalize(np.ones(grid.shape), grid)
        assert support(m).all()

    def test_half_indicator(self, grid):
        m = normalize(indicator(grid, 0.0, 0.5), grid)
        mask = support(m)
        assert np.array_equal(mask, m.values > 0)


class TestRandomDensity:
    def test_deterministic(self, grid):
        a = random_density(7, grid)
        b = random_density(7, grid)
        assert np.array_equal(a.values, b.values)

    def test_contract(self, grid):
        for seed in range(5):
            m = random_density(seed, grid)
            assert m.values.min() >= 0.0
            assert integrate(m.values, grid) == pytest.approx(1.0, abs=1e-10)

    def test_twelve_seeds_distinct(self, grid):
        densities = [random_density(seed, grid) for seed in range(12)]
        for i in range(len(densities)):
            for j in range(i + 1, len(densities)):
                assert tv_distance(densities[i], densities[j]) > 0.0

    def test_rejected_in_2d(self):
        with pytest.raises(ValueError):
            random_density(0, make_grid(2, 10))


class TestSeededDraw:
    def test_degenerate_draws_move_to_the_next_substream(self):
        attempts = []

        def draw(rng):
            attempts.append(rng.random())
            return None if len(attempts) < 3 else attempts[-1]

        value = seeded_draw(5, draw, "test draw")
        third = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(2,)))
        assert value == third.random()
        assert len(set(attempts)) == 3

    @pytest.mark.parametrize("seed", [1.7, 1.0, True])
    def test_seeds_that_are_not_an_integer_refused(self, seed):
        # a seed is not truncated: 1.7 would draw seed 1's stream, and
        # stress_test would report it as seed 1
        with pytest.raises(ValueError, match="seed must be an integer"):
            seeded_draw(seed, lambda rng: rng.random(), "test draw")
        assert seeded_draw(np.int64(5), lambda rng: rng.random(), "test draw") == (
            seeded_draw(5, lambda rng: rng.random(), "test draw")
        )

    def test_gives_up_after_max_redraws(self):
        calls = []
        with pytest.raises(ValueError, match=f"no usable test draw after {MAX_REDRAWS}"):
            seeded_draw(0, lambda rng: calls.append(rng), "test draw")
        assert len(calls) == MAX_REDRAWS
