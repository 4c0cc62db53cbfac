"""Each run vocabulary is declared once: the model kinds with their
coefficients in elliptic.COEFFICIENTS, the flow variants in
flow.VARIANTS.  Every other place that names them reads those tables."""

import numpy as np
import pytest

from mfgflow import (
    FlowConfig, ModelSpec, functional_trace, make_grid, normalize, run_flow, stress_test,
)
from mfgflow.cli import EXIT_CONFIG, EXIT_OK, MODEL_KEYS, OPTIONS, main
from mfgflow.elliptic import COEFFICIENTS
from mfgflow.flow import VARIANTS

CHOICES = {opt.key: opt.choices for opt in OPTIONS}


def test_cli_kind_choices_are_the_coefficient_table():
    assert CHOICES["kind"] == tuple(COEFFICIENTS)
    assert set(MODEL_KEYS) == {key for keys in COEFFICIENTS.values() for key in keys}
    assert all(key in CHOICES for key in MODEL_KEYS)


def test_cli_variant_choices_are_the_variant_table():
    assert CHOICES["variant"] == tuple(v.replace("_", "-") for v in VARIANTS)


def test_library_variants_are_the_variant_table():
    grid = make_grid(1, 50)
    model = ModelSpec.linear(mu=0.1, P=0.5, f=4.0 * grid.axes[0])
    rows = stress_test(model, grid, FlowConfig(), [0])
    assert tuple(row.variant for row in rows) == VARIANTS
    result = run_flow(model, normalize(np.ones(grid.shape), grid), FlowConfig())
    for variant in VARIANTS:
        FlowConfig(variant=variant)
        functional_trace(result, variant)
    with pytest.raises(ValueError, match="unknown flow variant 'best-response'"):
        FlowConfig(variant="best-response")
    with pytest.raises(ValueError, match="unknown flow variant 'sideways'"):
        functional_trace(result, "sideways")


@pytest.mark.parametrize("kind", list(COEFFICIENTS))
def test_cli_builds_each_kind_from_its_table_keys(tmp_path, capsys, kind):
    lines = [f"kind = {kind}", "dim = 1", "n = 40"]
    lines += [f"{key} = 0.5 + x" for key in COEFFICIENTS[kind]]
    (tmp_path / "run.cfg").write_text("\n".join(lines) + "\n")
    args = ["solve", "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path)]
    assert main(args) == EXIT_OK


@pytest.mark.parametrize("config, message", [
    # a harvesting model given a linear coefficient, here a negative P
    ("kind = nonlinear\ndim = 1\nK = 4\nP = -1\nf = 2\n",
     "config key 'P' is not read by a nonlinear model"),
    # a bool constant is not a number
    ("kind = linear\ndim = 1\nP = True\nf = 1\n", "non-numeric constant True"),
    # ModelSpec names the missing coefficient
    ("kind = linear\ndim = 1\nf = 4*x\n", "linear model needs P and f"),
    ("kind = nonlinear\ndim = 1\n", "nonlinear model needs K"),
])
def test_motivating_inputs_exit_3(tmp_path, capsys, config, message):
    (tmp_path / "run.cfg").write_text(config)
    args = ["solve", "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path)]
    assert main(args) == EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {message}\n"

