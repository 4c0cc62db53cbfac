"""No public call leaves cyclic garbage.

Payoff models are built fresh for every refinement level, stress seed
and benchmark round.  Whatever a call leaves in a reference cycle stays
allocated until Python's cycle collector happens to run, so the peak
memory of a long run would grow with its length.  Each case is called
once to warm up (the lazy scipy.fft and scipy.ndimage imports make
module cycles of their own), then again with the collector disabled; a
collection afterwards must find no unreachable object.
"""

import gc
from functools import partial

import numpy as np
import pytest

from mfgflow import (
    PRESETS,
    FlowConfig,
    ModelSpec,
    NonlinearSolveOptions,
    SolverError,
    build_model,
    evaluate_expression,
    make_grid,
    normalize,
    refinement_study,
    run_flow,
    solve_linear,
    solve_nonlinear,
    stress_test,
)
from mfgflow import elliptic
from mfgflow.presets import ExpressionError

GRIDS = {1: make_grid(1, 200), 2: make_grid(2, 20)}


def uniform(grid):
    return normalize(np.ones(grid.shape), grid)


def cyclic_garbage(call) -> int:
    """Objects a collection finds unreachable after one warm call of call."""
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def raising(error, fn, *args):
    """A call of fn(*args) that must raise error."""

    def call():
        try:
            fn(*args)
        except error:
            return
        raise AssertionError(f"{fn.__name__}{args} did not raise {error.__name__}")

    return call


@pytest.mark.parametrize(
    "expr, dim",
    [("max(0, 9*x*sin(5*pi*x))", 1), (PRESETS["linear-gauss2d"].coefficients["f"], 2)],
    ids=["sin-1d", "gauss-2d"],
)
def test_evaluate_expression(expr, dim):
    grid = make_grid(dim, 100)
    assert cyclic_garbage(lambda: evaluate_expression(expr, grid)) == 0


@pytest.mark.parametrize("expr", ["x + y", "foo(x)", "x[0]", "x +"])
def test_evaluate_expression_error(expr):
    call = raising(ExpressionError, evaluate_expression, expr, GRIDS[1])
    assert cyclic_garbage(call) == 0


@pytest.mark.parametrize(
    "name", ["linear-4x", "linear-gauss2d", "nonlinear-gauss2d", "nonlinear-randcos2d"]
)
def test_build_model(name):
    preset = PRESETS[name]
    grid = make_grid(preset.dim, 100)
    assert cyclic_garbage(lambda: build_model(preset, grid, seed=3)) == 0


@pytest.mark.parametrize("variant", ["best_response", "eikonal"])
@pytest.mark.parametrize(
    "name", ["linear-4x", "nonlinear-4x", "linear-gauss2d", "nonlinear-gauss2d"]
)
def test_run_flow(name, variant):
    preset = PRESETS[name]
    grid = GRIDS[preset.dim]
    cfg = FlowConfig(variant=variant, eps0=preset.default_eps0)

    def call():
        result = run_flow(build_model(preset, grid), uniform(grid), cfg)
        assert result.converged

    assert cyclic_garbage(call) == 0


def test_run_flow_fixed_step_shortfall():
    # the plateau of f = 4x above the uniform density's payoff holds
    # about 0.26 of mass, less than the fixed step 0.3
    grid = GRIDS[1]

    def call():
        result = run_flow(
            build_model(PRESETS["linear-4x"], grid), uniform(grid), FlowConfig(fixed_eps=0.3)
        )
        assert result.termination == "shortfall"

    assert cyclic_garbage(call) == 0


def test_refinement_study():
    grid = GRIDS[1]

    def call():
        model = build_model(PRESETS["nonlinear-cos"], grid)
        refinement_study(model, uniform(grid), eps0=0.1, pairs=2, max_outer=10)

    assert cyclic_garbage(call) == 0


def test_stress_test():
    grid = GRIDS[1]

    def call():
        stress_test(build_model(PRESETS["linear-sin"], grid), grid, FlowConfig(), seeds=[0, 1])

    assert cyclic_garbage(call) == 0


def test_solve_linear_superlu_2d():
    # P varying over x takes the SuperLU path, not the cosine transform
    grid = make_grid(2, 40)
    X, Y = grid.coords()

    def call():
        model = ModelSpec.linear(mu=0.1, P=0.5 + X + Y, f=4.0 * (X + Y))
        solve_linear(model, uniform(grid))

    assert cyclic_garbage(call) == 0


def test_solve_nonlinear_error(monkeypatch):
    grid = GRIDS[1]
    model = ModelSpec.nonlinear(mu=0.1, K=4.0 * grid.axes[0])
    monkeypatch.setattr(elliptic, "NonlinearSolveOptions",
                        partial(NonlinearSolveOptions, max_iters=3))
    call = raising(SolverError, solve_nonlinear, model, uniform(grid))
    assert cyclic_garbage(call) == 0
