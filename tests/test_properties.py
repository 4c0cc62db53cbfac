"""Property tests of the flow on random linear models and densities.

Hypothesis runs derandomized and without its example database, so the
suite stays deterministic.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mfgflow import (
    FlowConfig,
    ModelSpec,
    ScalarField,
    flow,
    integrate,
    make_grid,
    nash_gap,
    normalize,
    run_flow,
    select_farthest,
    select_lowest_income,
    solve_eikonal,
    support,
    tv_distance,
)

SETTINGS = dict(derandomize=True, database=None, deadline=None)

# Even without a database, Hypothesis caches the constants it finds in
# local source files under its storage directory (.hypothesis/ in the
# working directory by default); a temporary directory keeps the tree
# clean.
_STORAGE = tempfile.TemporaryDirectory(prefix="hypothesis-")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", _STORAGE.name)


@st.composite
def linear_models(draw):
    """(grid, model): P > 0 and f a positive sum of a few cosine modes."""
    grid = make_grid(1, draw(st.integers(20, 200)))
    x = grid.axes[0]
    amps = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3))
    f = 1.0 + sum(abs(a) for a in amps) + sum(
        a * np.cos((k + 1) * np.pi * x) for k, a in enumerate(amps)
    )
    mu = draw(st.floats(0.02, 0.5))
    P = draw(st.floats(0.1, 2.0))
    return grid, ModelSpec.linear(mu=mu, P=P, f=f)


@st.composite
def densities(draw, grid):
    """Random positive node values, optionally zero outside an interval."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.uniform(0.05, 1.0, grid.shape)
    if draw(st.booleans()):
        lo = draw(st.integers(0, grid.n // 2))
        hi = draw(st.integers(lo + 2, grid.n + 1))
        raw[:lo] = 0.0
        raw[hi:] = 0.0
    return normalize(raw, grid)


@st.composite
def model_density_eps(draw):
    grid, model = draw(linear_models())
    return grid, model, draw(densities(grid)), draw(st.floats(1e-3, 0.3))


@settings(max_examples=60, **SETTINGS)
@given(model_density_eps(), st.sampled_from(["best_response", "eikonal"]))
def test_flow_step_keeps_mass_sign_and_tv_bound(case, variant):
    # one fixed step of run_flow; a tau below any gap lets every start move
    grid, model, m, eps = case
    cfg = FlowConfig(variant=variant, eps0=eps, fixed_eps=eps, max_outer=1, tau=1e-300)
    result = run_flow(model, m, cfg)
    # the plateau cannot absorb eps: no move to check
    assume(result.termination != "shortfall")
    assert result.iterations == 1
    m_next = result.m
    assert abs(integrate(m_next.values, grid) - 1.0) <= 1e-9
    assert m_next.values.min() >= 0.0
    assert tv_distance(m_next, m) <= 2 * eps + 1e-9


@settings(max_examples=20, **SETTINGS)
@given(linear_models(), st.sampled_from(["best_response", "eikonal"]), st.data())
def test_run_flow_residuals_strictly_decrease(case, variant, data):
    grid, model = case
    m0 = data.draw(densities(grid))
    result = run_flow(model, m0, FlowConfig(variant=variant, max_outer=20))
    resids = [r.residual for r in result.records]
    assert all(b < a for a, b in zip(resids, resids[1:]))


@st.composite
def density_key_eps(draw):
    grid = make_grid(1, draw(st.integers(20, 200)))
    m = draw(densities(grid))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # few distinct levels, so the crossing level is often shared by many nodes
    levels = draw(st.integers(2, 20))
    key = ScalarField(rng.integers(0, levels, grid.shape).astype(float), grid)
    return grid, m, key, draw(st.floats(1e-3, 1.0))


def _check_split(grid, m, m_minus, m_plus, eps):
    assert m_minus.values.min() >= 0.0 and m_plus.values.min() >= 0.0
    assert np.allclose(m_minus.values + m_plus.values, m.values, rtol=1e-15, atol=0.0)
    assert integrate(m_minus.values, grid) == pytest.approx(eps, abs=1e-10)


@settings(max_examples=60, **SETTINGS)
@given(density_key_eps())
def test_select_lowest_income_splits_m(case):
    grid, m, key, eps = case
    m_minus, m_plus, _ = select_lowest_income(m, key, eps)
    _check_split(grid, m, m_minus, m_plus, eps)


@settings(max_examples=60, **SETTINGS)
@given(density_key_eps(), st.data())
def test_select_farthest_splits_m(case, data):
    grid, m, income, eps = case
    targets = data.draw(st.lists(st.integers(0, grid.n), min_size=1, max_size=4))
    mask = np.zeros(grid.shape, dtype=bool)
    mask[targets] = True
    v = solve_eikonal(grid, mask)
    assume(v.values[m.values > 0.0].max() > 0.0)
    # distance ties are common on a grid; the income field breaks them
    m_minus, m_plus, _ = select_farthest(m, v, eps, income=income)
    _check_split(grid, m, m_minus, m_plus, eps)


@st.composite
def incomes(draw, grid):
    """Incomes on a few levels, spaced from one ulp of the base upward."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = draw(st.floats(0.1, 100.0))
    step = np.spacing(base) * draw(st.sampled_from([1.0, 2.0, 3.0, 1e3, 1e10, 1e14]))
    levels = rng.integers(0, draw(st.integers(2, 20)), grid.shape)
    return ScalarField(base + step * levels, grid)


@settings(max_examples=60, **SETTINGS)
@given(st.sampled_from([1, 2]), st.data())
def test_eikonal_target_leaves_the_poorest_supported_node_off(dim, data):
    # the target level lies 0.7 of the gap above the poorest supported
    # node, so the eikonal selection finds mass at positive distance
    grid = make_grid(dim, data.draw(st.integers(4, 200 if dim == 1 else 15)))
    m = data.draw(densities(grid))
    theta = data.draw(incomes(grid))
    gap = nash_gap(theta, m)
    assume(gap > 2 * np.spacing(theta.values.max()))
    poorest = np.where(support(m), theta.values, np.inf).argmin()
    v = flow._distance_field(grid, theta, gap)
    assert v.values.ravel()[poorest] > 0.0
