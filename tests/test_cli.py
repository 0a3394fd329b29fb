"""Command-line interface: subcommands, overrides, exit codes, artifacts."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gprclutter
from gprclutter.harness.cli import main
from gprclutter.harness.cmat import load_matrix


def test_check_derivatives_writes_tables(tmp_path, capsys):
    out = str(tmp_path / "results")
    assert main(["--out", out, "--scenario", "S1,S2", "check-derivatives"]) == 0
    csv_path = os.path.join(out, "derivative_check.csv")
    json_path = os.path.join(out, "derivative_check.json")
    assert os.path.exists(csv_path)
    doc = json.loads(open(json_path).read())
    assert [row["scenario"] for row in doc["rows"]] == ["S1", "S2"]
    assert doc["provenance"]["seed"] == 20260405
    assert "wrote" in capsys.readouterr().out


def test_scenario_filter_and_seed_override(tmp_path):
    out = str(tmp_path / "results")
    assert main(["--out", out, "--scenario", "S3", "--seed", "11", "check-derivatives"]) == 0
    doc = json.loads(open(os.path.join(out, "derivative_check.json")).read())
    assert [row["scenario"] for row in doc["rows"]] == ["S3"]
    assert doc["provenance"]["seed"] == 11


def test_unknown_scenario_is_a_config_error(tmp_path, capsys):
    out = str(tmp_path / "results")
    assert main(["--out", out, "--scenario", "S77", "check-derivatives"]) == 1
    assert "configuration error" in capsys.readouterr().err


def test_config_file_with_unknown_key_exits_1(tmp_path, capsys):
    config_path = tmp_path / "bad.yaml"
    config_path.write_text("bogus_key: 1\n")
    assert main(["--config", str(config_path), "check-derivatives"]) == 1
    assert "configuration error" in capsys.readouterr().err


def test_print_config_round_trips(tmp_path, capsys):
    assert main(["--print-config", "check-derivatives"]) == 0
    text = capsys.readouterr().out
    config_path = tmp_path / "echo.yaml"
    config_path.write_text(text)
    assert main(["--config", str(config_path), "--print-config", "check-derivatives"]) == 0
    assert capsys.readouterr().out == text


def test_print_config_needs_no_subcommand(capsys):
    assert main(["--print-config"]) == 0
    assert "scenarios:" in capsys.readouterr().out


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([])
    assert exit_info.value.code == 2
    assert "required: command" in capsys.readouterr().err


def test_cli_import_pulls_in_no_heavy_packages():
    # Keeps the import closure (and so the CLI's start-up time) to numpy
    # and PyYAML.
    src = os.path.dirname(os.path.dirname(gprclutter.__file__))
    heavy = ("scipy", "matplotlib", "numba", "pandas")
    code = (
        "import sys, gprclutter.harness.cli; "
        f"print(sorted(m for m in {heavy!r} if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_output_path_collision_exits_3(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    assert main(["--out", str(blocker), "--scenario", "S1", "check-derivatives"]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_build_forward_persists_matrix_and_sidecar(tmp_path):
    out = str(tmp_path / "results")
    assert main(["--out", out, "--scenario", "S2", "build-forward"]) == 0
    matrix = load_matrix(os.path.join(out, "forward_S2.cmat"))
    assert matrix.shape == (64, 2625)
    assert np.all(np.isfinite(matrix))
    sidecar = json.loads(open(os.path.join(out, "forward_S2.cmat.json")).read())
    assert sidecar["kernel"] == "homogeneous-dispersive-scalar"
    assert sidecar["n_cells"] == 525
    assert "row = n * M + m" in sidecar["row_order"]


def test_kernel_diff_cli(tmp_path):
    out = str(tmp_path / "results")
    assert main(["--out", out, "kernel-diff"]) == 0
    doc = json.loads(open(os.path.join(out, "kernel_diff.json")).read())
    pairs = {(r["from_scenario"], r["to_scenario"]): r["delta_a"] for r in doc["rows"]}
    assert pairs[("S1", "S1")] == 0.0


def test_rerun_reproduces_identical_bytes(tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    for out in (out_a, out_b):
        assert main(["--out", out, "--scenario", "S1", "scan-lx"]) == 0
    for name in ("lx_scan.csv", "lx_scan.json"):
        with open(os.path.join(out_a, name), "rb") as fa:
            with open(os.path.join(out_b, name), "rb") as fb:
                assert fa.read() == fb.read()


def test_boundary_subcommands(tmp_path):
    out = str(tmp_path / "results")
    assert main(["--out", out, "boundary-scale"]) == 0
    doc = json.loads(open(os.path.join(out, "boundary.json")).read())
    assert {r["boundary"] for r in doc["rows"]} == {"scale"}


def test_numerical_failures_exit_2_and_are_recorded(tmp_path, capsys):
    out = str(tmp_path / "results")
    config_path = tmp_path / "absurd.yaml"
    config_path.write_text(
        "scenarios: [S3]\n"
        "experiments:\n"
        "  amplitude_grid: [1.0e+9]\n"
        "  validity_sample_count: 4\n"
    )
    assert main(["--config", str(config_path), "--out", out, "scan-validity"]) == 2
    errors = json.loads(open(os.path.join(out, "validity_scan_errors.json")).read())
    assert "tau" in errors["S3"]
    assert "error in S3" in capsys.readouterr().err


def test_closure_dump_matrices(tmp_path):
    out = str(tmp_path / "results")
    config_path = tmp_path / "small.yaml"
    config_path.write_text("random_field:\n  sample_count: 64\nscenarios: [S1]\n")
    assert main(["--config", str(config_path), "--out", out,
                 "closure", "--dump-matrices"]) == 0
    rhat = load_matrix(os.path.join(out, "closure_S1_rhat_exact.cmat"))
    theory = load_matrix(os.path.join(out, "closure_S1_theory.cmat"))
    assert rhat.shape == theory.shape == (64, 64)
    assert np.allclose(theory, theory.conj().T)
