import re
import warnings

import numpy as np
import pytest

from mfgflow.cli import (
    EXIT_CONFIG,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_SOLVER,
    main,
)
from mfgflow.elliptic import TrivialBranchWarning
from mfgflow.flow import TARGET_GAP_FRACTION


def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
    return header, rows


def test_validate_passes(capsys):
    assert main(["validate"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_solve_writes_expected_files(tmp_path, capsys):
    code = main(
        ["solve", "--preset", "linear-4x", "--grid", "200", "--out", str(tmp_path)]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "converged=true" in out

    header, rows = read_csv(tmp_path / "density.csv")
    assert header == ["x", "m", "theta"]
    assert len(rows) == 201
    header, rows = read_csv(tmp_path / "iterations.csv")
    assert header == [
        "iter", "epsilon", "residual", "sup_theta", "min_theta_supp",
        "tv_step", "mass_cum", "halvings",
    ]
    resid = [float(r[2]) for r in rows]
    assert all(b < a for a, b in zip(resid, resid[1:]))


def test_solve_is_bit_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(
            ["solve", "--preset", "linear-4x", "--grid", "150", "--out", str(out)]
        ) == EXIT_OK
    for name in ("density.csv", "iterations.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_solve_dump_eikonal(tmp_path):
    code = main(
        ["solve", "--preset", "linear-4x", "--grid", "150", "--variant", "eikonal",
         "--dump-eikonal", "--out", str(tmp_path)]
    )
    assert code == EXIT_OK
    header, rows = read_csv(tmp_path / "eikonal.csv")
    assert header == ["x", "v"]
    assert min(float(r[1]) for r in rows) == 0.0
    # the dumped field is the distance to the flow's own target set
    theta = np.array([float(r[2]) for r in read_csv(tmp_path / "density.csv")[1]])
    residual = float(read_csv(tmp_path / "iterations.csv")[1][-1][2])
    on_target = theta >= theta.max() - TARGET_GAP_FRACTION * residual
    assert sum(float(r[1]) == 0.0 for r in rows) == on_target.sum()


def test_solve_nonconvergence_exit_code(tmp_path, capsys):
    code = main(
        ["solve", "--preset", "linear-cos", "--grid", "200", "--fixed-eps", "1.0",
         "--max-outer", "10", "--out", str(tmp_path)]
    )
    assert code == EXIT_NOT_CONVERGED
    assert "converged=false" in capsys.readouterr().out


@pytest.mark.parametrize("seed", ["0", "2"])
def test_solve_randcos2d_leaves_the_trivial_branch(tmp_path, capsys, seed):
    # with unmixed chord steps, seed 0 rested on theta == 0 and reported
    # a false equilibrium at 0 iterations, and seed 2 exited 4
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(
            ["solve", "--preset", "nonlinear-randcos2d", "--grid", "20", "--seed", seed,
             "--out", str(tmp_path)]
        )
    out, err = capsys.readouterr()
    assert code == EXIT_OK
    assert int(re.search(r"iterations=(\d+)", out).group(1)) > 0
    assert not any(issubclass(w.category, TrivialBranchWarning) for w in caught)
    assert "trivial" not in err


@pytest.mark.parametrize("fixed_eps", ["0", "-1", "2"])
def test_fixed_eps_out_of_range_exit_3(tmp_path, capsys, fixed_eps):
    code = main(["solve", "--preset", "linear-4x", "--fixed-eps", fixed_eps,
                 "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "fixed_eps" in capsys.readouterr().err


@pytest.mark.parametrize("command, csv", [("solve", "iterations.csv"),
                                          ("trace", "trace.csv")])
def test_solver_failure_mid_flow_exit_4(tmp_path, capsys, fail_payoff_solve,
                                        command, csv):
    fail_payoff_solve(4)
    code = main([command, "--preset", "linear-sin", "--grid", "200",
                 "--out", str(tmp_path)])
    assert code == EXIT_SOLVER
    assert "termination=solver_failed" in capsys.readouterr().out
    # the initial record and the two accepted steps are kept
    assert len(read_csv(tmp_path / csv)[1]) == 3


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# model from expressions\n"
        "kind = linear\n"
        "dim = 1\n"
        "n = 200\n"
        "P = 0.5\n"
        "f = 4*x\n"
        "max_outer = 60\n"
    )
    out = tmp_path / "run"
    code = main(["solve", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_OK
    header, rows = read_csv(out / "density.csv")
    assert len(rows) == 201
    # flag overrides the file value
    out2 = tmp_path / "run2"
    code = main(["solve", "--config", str(cfg), "--grid", "120", "--out", str(out2)])
    assert code == EXIT_OK
    _, rows = read_csv(out2 / "density.csv")
    assert len(rows) == 121


def test_environment_overrides(tmp_path, monkeypatch, capsys):
    outdir = tmp_path / "env_out"
    monkeypatch.setenv("MFGFLOW_OUT", str(outdir))
    code = main(["solve", "--preset", "linear-4x", "--grid", "150"])
    assert code == EXIT_OK
    assert (outdir / "density.csv").exists()


def test_bad_config_keys_exit_3(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("unknown_key = 1\n")
    assert main(["solve", "--config", str(cfg)]) == EXIT_CONFIG


def test_missing_model_exit_3(capsys):
    assert main(["solve"]) == EXIT_CONFIG


def test_bad_flag_exit_3(capsys):
    assert main(["solve", "--preset", "no-such-preset"]) == EXIT_CONFIG


def test_bad_expression_exit_3(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("kind = linear\ndim = 1\nP = 0.5\nf = __import__('os')\n")
    assert main(["solve", "--config", str(cfg)]) == EXIT_CONFIG


def test_nonfinite_coefficient_exit_3(tmp_path, capsys):
    cfg = tmp_path / "pole.cfg"
    cfg.write_text("kind = linear\ndim = 1\nP = 0.5\nf = 1/x\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "f must be finite" in capsys.readouterr().err


def test_nonpositive_capacity_exit_3(tmp_path, capsys):
    cfg = tmp_path / "barren.cfg"
    cfg.write_text("kind = nonlinear\ndim = 1\nK = -1\n")
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "K must be positive somewhere" in capsys.readouterr().err


@pytest.mark.parametrize("args, config, env", [
    (["solve", "--preset", "linear-4x", "--grid", "1"], None, {}),
    (["solve", "--preset", "linear-4x", "--grid", "-5"], None, {}),
    (["solve"], "kind = linear\ndim = 3\nP = 0.5\nf = 4*x\n", {}),
    (["solve"], "kind = linear\ndim = 1\nn = 1\nP = 0.5\nf = 4*x\n", {}),
    (["solve", "--preset", "linear-4x"], "mu = -1\n", {}),
    (["solve", "--preset", "linear-randcos2d", "--seed", "-1"], None, {}),
    (["stress", "--preset", "linear-4x", "--seed", "-1"], None, {}),
    (["stress", "--preset", "linear-4x"], None, {"MFGFLOW_SEED": "-1"}),
    (["stress", "--preset", "linear-4x", "--seeds", "-2"], None, {}),
    (["stress", "--preset", "linear-4x", "--seeds", "0"], None, {}),
    (["refine", "--preset", "linear-4x", "--levels", "0"], None, {}),
    (["refine", "--preset", "linear-4x", "--levels", "-1"], None, {}),
    (["solve", "--preset", "linear-4x", "--tau", "inf"], None, {}),
    (["solve", "--preset", "linear-4x", "--tau", "nan"], None, {}),
    (["solve"], "preset = nope\n", {}),
    (["solve", "--preset", "linear-4x"], "dump_eikonal = maybe\n", {}),
    (["solve", "--preset", "linear-4x"], "variant = sideways\n", {}),
])
def test_invalid_run_input_exit_3(tmp_path, capsys, monkeypatch, args, config, env):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        args = args + ["--config", str(tmp_path / "run.cfg")]
    assert main(args + ["--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "Traceback" not in err


def test_validate_takes_no_run_flags(capsys):
    assert main(["validate", "--preset", "linear-4x", "--grid", "5"]) == EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [
    ("refine", ["--fixed-eps", "0.5"]),
    ("refine", ["--eps-min", "1e-12"]),
    ("refine", ["--dump-eikonal"]),
    ("stress", ["--variant", "eikonal"]),
    ("stress", ["--dump-eikonal"]),
    ("trace", ["--dump-eikonal"]),
])
def test_run_command_refuses_flag_it_ignores(tmp_path, capsys, command, flag):
    args = [command, "--preset", "linear-4x", *flag, "--out", str(tmp_path)]
    assert main(args) == EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err


def test_validate_reads_no_configuration(monkeypatch, capsys):
    monkeypatch.setenv("MFGFLOW_SEED", "abc")
    assert main(["validate"]) == EXIT_OK


def test_config_variant_in_library_spelling(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = linear-4x\nn = 150\nvariant = best_response\n")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(["solve", "--preset", "linear-4x", "--grid", "150",
                 "--variant", "best-response", "--out", str(tmp_path / "b")]) == EXIT_OK
    for name in ("density.csv", "iterations.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_stress_command(tmp_path, capsys):
    code = main(
        ["stress", "--preset", "linear-4x", "--grid", "200", "--seeds", "2",
         "--seed", "5", "--out", str(tmp_path)]
    )
    assert code == EXIT_OK
    header, rows = read_csv(tmp_path / "stress.csv")
    assert header == ["seed", "variant", "iterations", "converged", "final_residual"]
    assert len(rows) == 4
    assert {r[0] for r in rows} == {"5", "6"}


def test_trace_command(tmp_path):
    code = main(
        ["trace", "--preset", "linear-4x", "--grid", "200", "--out", str(tmp_path)]
    )
    assert code == EXIT_OK
    header, rows = read_csv(tmp_path / "trace.csv")
    assert header == ["t", "phi"]
    phi = [float(r[1]) for r in rows]
    assert all(b < a for a, b in zip(phi, phi[1:]))


def test_refine_command(tmp_path):
    code = main(
        ["refine", "--preset", "linear-4x", "--grid", "200", "--levels", "2",
         "--out", str(tmp_path)]
    )
    assert code == EXIT_OK
    header, rows = read_csv(tmp_path / "refinement.csv")
    assert header == ["level", "epsilon", "sup_tv"]
    assert len(rows) == 2
    assert all(float(r[2]) >= 0 for r in rows)


def test_refine_shortfall_exit_2(tmp_path, capsys):
    # at eps 0.5 the 2D plateau cannot absorb the fixed step; no solver fails
    code = main(
        ["refine", "--preset", "linear-gauss2d", "--grid", "40", "--levels", "2",
         "--out", str(tmp_path)]
    )
    assert code == EXIT_NOT_CONVERGED
    assert "level 0 (eps=0.5) stopped: shortfall" in capsys.readouterr().err


def test_refine_solver_failure_exit_4(tmp_path, capsys, fail_payoff_solve):
    fail_payoff_solve(3)
    code = main(
        ["refine", "--preset", "linear-4x", "--grid", "200", "--levels", "2",
         "--out", str(tmp_path)]
    )
    assert code == EXIT_SOLVER
    assert "stopped: solver_failed" in capsys.readouterr().err


def test_seventeen_digit_floats(tmp_path):
    main(["solve", "--preset", "linear-4x", "--grid", "150", "--out", str(tmp_path)])
    _, rows = read_csv(tmp_path / "density.csv")
    # spot check a value with a long mantissa round-trips exactly
    roundtrip = f"{float(rows[1][2]):.17g}"
    assert roundtrip == rows[1][2]
