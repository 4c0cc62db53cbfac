import re

import numpy as np
import pytest

from mfgflow import make_grid
from mfgflow.elliptic import COEFFICIENTS
from mfgflow.presets import (
    PRESETS,
    ExpressionError,
    Preset,
    build_model,
    evaluate_expression,
    random_cosine_sum,
)


# each expression outside the grammar, with the message it is refused by
REJECTED = {
    "__import__('os')": "unknown function '__import__'",
    "x ** 2": "unsupported syntax in 'x ** 2'",
    "unknown(x)": "unknown function 'unknown'",
    "max(x)": "max takes exactly two arguments",
    "sin(x, 2)": "sin takes exactly one argument",
    "lambda: 1": "unsupported syntax in 'lambda: 1'",
    "'str'": "non-numeric constant 'str'",
    "True": "non-numeric constant True",
    "4*x + False": "non-numeric constant False",
    "open": "unknown identifier 'open'",
    "4*": "cannot parse '4*': ",
    "max(x, key=1)": "keyword arguments are not supported",
}


@pytest.fixture(scope="module")
def grid():
    return make_grid(1, 100)


class TestExpressionGrammar:
    def test_arithmetic_and_functions(self, grid):
        x = grid.axes[0]
        got = evaluate_expression("max(0, 9*x*sin(5*pi*x))", grid)
        assert np.allclose(got, np.maximum(0.0, 9 * x * np.sin(5 * np.pi * x)))

    def test_constants_broadcast(self, grid):
        got = evaluate_expression("0.5", grid)
        assert got.shape == grid.shape
        assert np.all(got == 0.5)

    def test_unary_minus_and_division(self, grid):
        got = evaluate_expression("-x/2 + 1", grid)
        assert np.allclose(got, 1.0 - grid.axes[0] / 2)

    def test_2d_uses_both_coordinates(self):
        g2 = make_grid(2, 20)
        X, Y = g2.coords()
        got = evaluate_expression("exp(-((x-1)*(x-1)+(y-1)*(y-1))/0.5)", g2)
        assert np.allclose(got, np.exp(-((X - 1) ** 2 + (Y - 1) ** 2) / 0.5))

    def test_y_rejected_in_1d(self, grid):
        with pytest.raises(ExpressionError, match="unknown identifier 'y'"):
            evaluate_expression("x + y", grid)

    @pytest.mark.parametrize("expr", list(REJECTED))
    def test_outside_grammar_rejected(self, grid, expr):
        with pytest.raises(ExpressionError, match=re.escape(REJECTED[expr])):
            evaluate_expression(expr, grid)

    # 2 000 signs overflow the walk's recursion, 20 000 the parser's stack
    @pytest.mark.parametrize("depth", [2000, 20000])
    def test_deeply_nested_expression_rejected(self, grid, depth):
        expr = "1 + " + "-" * depth + "x"
        with pytest.raises(ExpressionError, match="nests too deeply"):
            evaluate_expression(expr, grid)


class TestPresets:
    def test_all_presets_build(self):
        for name, preset in PRESETS.items():
            grid = make_grid(preset.dim, 40)
            model = build_model(preset, grid, seed=3)
            assert model.kind == preset.kind
            assert model.mu == 0.1

    def test_every_coefficient_is_an_evaluated_expression(self, grid):
        x = grid.axes[0]
        model = build_model(Preset("linear", "linear", 1, {"P": "0.5 + x", "f": "4*x"}), grid)
        assert np.array_equal(model.P, 0.5 + x)
        assert np.array_equal(model.f, 4 * x)
        assert np.array_equal(build_model(PRESETS["linear-4x"], grid).P, np.full(101, 0.5))

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_coefficients_are_the_kinds_table_entry(self, name):
        preset = PRESETS[name]
        assert tuple(preset.coefficients) == COEFFICIENTS[preset.kind]

    @pytest.mark.parametrize("extra", [{"P": "0.5"}, {"P": "-1"}, {"f": "4*x"}])
    def test_harvesting_preset_carrying_a_linear_coefficient_refused(self, grid, extra):
        preset = Preset("carrying", "nonlinear", 1, {"K": "4*x", **extra})
        (name,) = extra
        with pytest.raises(ValueError, match=f"a nonlinear model has no coefficient '{name}'"):
            build_model(preset, grid)

    @pytest.mark.parametrize("kind, coefficients, name", [
        ("linear", {"P": "1", "f": "1", "g": "1"}, "g"),
        ("nonlinear", {"K": "1", "mu": "0.2"}, "mu"),
    ])
    def test_preset_coefficient_no_kind_reads_refused(self, grid, kind, coefficients, name):
        # a name ModelSpec takes no argument for gets the same ValueError
        preset = Preset("unread", kind, 1, coefficients)
        with pytest.raises(ValueError, match=f"a {kind} model has no coefficient '{name}'"):
            build_model(preset, grid)

    def test_preset_of_unknown_kind_refused(self, grid):
        with pytest.raises(ValueError, match="unknown model kind 'quadratic'"):
            build_model(Preset("odd", "quadratic", 1, {"g": "1"}), grid)

    def test_preset_missing_a_coefficient_refused(self, grid):
        with pytest.raises(ValueError, match="linear model needs P and f"):
            build_model(Preset("no-P", "linear", 1, {"f": "4*x"}), grid)

    def test_preset_coefficients_are_a_read_only_copy(self, grid):
        expressions = {"P": "0.5", "f": "4*x"}
        preset = Preset("copy", "linear", 1, expressions)
        expressions["f"] = "9*x"
        with pytest.raises(TypeError):
            preset.coefficients["f"] = "9*x"
        assert np.array_equal(build_model(preset, grid).f, 4 * grid.axes[0])

    def test_dim_mismatch_rejected(self, grid):
        with pytest.raises(ValueError):
            build_model(PRESETS["linear-gauss2d"], grid)

    def test_random_cosine_deterministic(self):
        g2 = make_grid(2, 30)
        a = random_cosine_sum(9, g2)
        b = random_cosine_sum(9, g2)
        assert np.array_equal(a, b)
        assert a.min() >= 0.0
        assert a.max() > 0.0

    def test_random_cosine_seed_dependent(self):
        g2 = make_grid(2, 30)
        assert not np.array_equal(random_cosine_sum(1, g2), random_cosine_sum(2, g2))

    def test_random_cosine_is_2d_only(self, grid):
        with pytest.raises(ValueError):
            random_cosine_sum(0, grid)
