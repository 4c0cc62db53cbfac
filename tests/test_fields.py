"""The field convention: public functions take grid functions as fields.

Bare node arrays enter only through ScalarField, Density, normalize and
integrate; everywhere else a bare array, or fields on grids of different
shape, raise ValueError.
"""

import dataclasses

import numpy as np
import pytest

from mfgflow import (
    Density,
    FlowConfig,
    ModelSpec,
    ScalarField,
    extract_target,
    integrate,
    make_grid,
    nash_certificate,
    nash_gap,
    normalize,
    pde_residual,
    redistribute,
    refinement_study,
    run_flow,
    select_farthest,
    select_lowest_income,
    solve_linear,
    solve_nonlinear,
    solve_payoff,
    support,
    tv_distance,
)

GRID = make_grid(1, 20)
OTHER = make_grid(1, 30)
M = normalize(np.ones(GRID.shape), GRID)
THETA = ScalarField(GRID.axes[0], GRID)
V = ScalarField(1.0 - GRID.axes[0], GRID)
LINEAR = ModelSpec.linear(mu=0.1, P=0.5, f=4.0 * GRID.axes[0])
NONLINEAR = ModelSpec.nonlinear(mu=0.1, K=4.0 * GRID.axes[0])
BARE = np.ones(GRID.shape)

# each call passes the bare array where one field is expected
BARE_CALLS = {
    "tv_distance": lambda: tv_distance(M, BARE),
    "support": lambda: support(BARE),
    "nash_gap": lambda: nash_gap(THETA, BARE),
    "nash_certificate": lambda: nash_certificate(BARE, THETA),
    "pde_residual": lambda: pde_residual(LINEAR, M, BARE),
    "solve_linear": lambda: solve_linear(LINEAR, BARE),
    "solve_nonlinear": lambda: solve_nonlinear(NONLINEAR, BARE),
    "solve_nonlinear_theta0": lambda: solve_nonlinear(NONLINEAR, M, theta0=BARE),
    "solve_payoff": lambda: solve_payoff(LINEAR, BARE),
    "select_lowest_income": lambda: select_lowest_income(M, BARE, 0.1),
    "select_farthest": lambda: select_farthest(BARE, V, 0.1, income=THETA),
    "select_farthest_income": lambda: select_farthest(M, V, 0.1, income=BARE),
    "redistribute": lambda: redistribute(BARE, THETA, LINEAR, 0.1),
    "extract_target": lambda: extract_target(BARE, 0.0),
    "run_flow": lambda: run_flow(LINEAR, BARE, FlowConfig()),
    "refinement_study": lambda: refinement_study(LINEAR, BARE, pairs=1),
}


@pytest.mark.parametrize("name", sorted(BARE_CALLS))
def test_bare_array_rejected(name):
    with pytest.raises(ValueError, match="expected a ScalarField"):
        BARE_CALLS[name]()


def _on_other_grid(fld):
    return ScalarField(np.interp(OTHER.axes[0], GRID.axes[0], fld.values), OTHER)


MIXED_CALLS = {
    "select_lowest_income": lambda: select_lowest_income(M, _on_other_grid(THETA), 0.1),
    "select_farthest": lambda: select_farthest(M, _on_other_grid(V), 0.1, income=THETA),
    "select_farthest_income": lambda: select_farthest(
        M, V, 0.1, income=_on_other_grid(THETA)
    ),
    "redistribute": lambda: redistribute(_on_other_grid(M), THETA, LINEAR, 0.1),
}


@pytest.mark.parametrize("name", sorted(MIXED_CALLS))
def test_fields_on_different_grids_rejected(name):
    with pytest.raises(ValueError, match="grids of different shape"):
        MIXED_CALLS[name]()


def test_density_is_a_frozen_scalar_field():
    assert isinstance(M, ScalarField)
    with pytest.raises(dataclasses.FrozenInstanceError):
        M.values = BARE
    with pytest.raises(ValueError):
        Density(2.0 * BARE, GRID)


def test_selection_returns_fields_on_the_grid_of_m():
    m_minus, m_plus, _ = select_lowest_income(M, THETA, 0.1)
    nu, _, _ = redistribute(m_plus, THETA, LINEAR, 0.1)
    for out in (m_minus, m_plus, nu):
        assert isinstance(out, ScalarField) and out.grid is GRID


START = ScalarField(2.0 * np.ones(GRID.shape), GRID)  # mass 2, not a Density

START_CALLS = {
    "run_flow": lambda: run_flow(LINEAR, START, FlowConfig()),
    "refinement_study": lambda: refinement_study(LINEAR, START, pairs=1),
}


@pytest.mark.parametrize("name", sorted(START_CALLS))
def test_start_must_be_a_density(name):
    # a mass-2 start used to be rescaled silently by the first step
    with pytest.raises(ValueError, match="start must be a Density"):
        START_CALLS[name]()


def test_field_coefficient_rejected():
    with pytest.raises(ValueError, match=r"pass its \.values"):
        ModelSpec.nonlinear(mu=0.1, K=THETA)


def test_normalize_rejects_a_field():
    with pytest.raises(ValueError, match=r"pass the field's \.values"):
        normalize(M, GRID)


# each call passes a field where node values belong
FIELD_AS_VALUES_CALLS = {
    "ScalarField": lambda: ScalarField(THETA, GRID),
    "Density": lambda: Density(M, GRID),
    "ModelSpec.mu": lambda: ModelSpec(kind="linear", mu=THETA, P=0.5, f=1.0),
    "integrate": lambda: integrate(M, GRID),
}


@pytest.mark.parametrize("name", sorted(FIELD_AS_VALUES_CALLS))
def test_field_as_node_values_rejected(name):
    with pytest.raises(ValueError, match=r"\.values"):
        FIELD_AS_VALUES_CALLS[name]()


@pytest.mark.parametrize(
    "values",
    [np.arange(21), list(range(21)), np.arange(21, dtype=np.float32)],
    ids=["int-array", "list", "float32-array"],
)
def test_scalar_field_converts_node_values_to_float(values):
    fld = ScalarField(values, GRID)
    assert type(fld.values) is np.ndarray and fld.values.dtype == np.float64
    assert np.array_equal(fld.values, np.arange(21.0))


def test_scalar_field_keeps_a_float_array():
    assert ScalarField(BARE, GRID).values is BARE


@pytest.mark.parametrize(
    "values", [np.ones(20), np.ones((21, 1)), list(range(20))],
    ids=["short", "column", "short-list"],
)
def test_scalar_field_rejects_a_wrong_shape(values):
    with pytest.raises(ValueError, match="does not match grid"):
        ScalarField(values, GRID)
