import pytest

from mfgflow.cli import (
    EXIT_CONFIG,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    main,
)


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


def test_solve_nonconvergence_exit_code(tmp_path, capsys):
    code = main(
        ["solve", "--preset", "linear-cos", "--grid", "200", "--fixed-eps", "1.0",
         "--max-outer", "10", "--out", str(tmp_path)]
    )
    assert code == EXIT_NOT_CONVERGED
    assert "converged=false" in capsys.readouterr().out


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


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
def test_nonfinite_coefficient_exit_3(tmp_path, capsys):
    cfg = tmp_path / "pole.cfg"
    cfg.write_text("kind = linear\ndim = 1\nP = 0.5\nf = 1/x\n")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "f must be finite" in capsys.readouterr().err


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


def test_seventeen_digit_floats(tmp_path):
    main(["solve", "--preset", "linear-4x", "--grid", "150", "--out", str(tmp_path)])
    _, rows = read_csv(tmp_path / "density.csv")
    # spot check a value with a long mantissa round-trips exactly
    roundtrip = f"{float(rows[1][2]):.17g}"
    assert roundtrip == rows[1][2]
