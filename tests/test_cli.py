"""Command-line interface: subcommands, overrides, exit codes, artifacts."""

import ctypes
import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import gprclutter
from gprclutter import (
    assemble_forward,
    build_covariance,
    build_default_geometry,
    clutter_covariance,
    get_scenario,
    montecarlo,
    spectral_summary,
)
from gprclutter.constitutive import ColeColeParams
from gprclutter.errors import GprClutterError
from gprclutter.harness import experiments
from gprclutter.harness.cli import main
from gprclutter.harness.cmat import load_matrix
from gprclutter.harness.config import load_config, parse_config
from conftest import clear_memos
from oracles import dense_entries


def _tiny_config(directory):
    """A config whose full report takes well under a second: 2 scenarios, 6x4 grid, L = 64."""
    path = directory / "tiny.yaml"
    path.write_text(
        "scenarios: [S1, S4]\n"
        "geometry: {n_x: 6, n_z: 4}\n"
        "random_field: {sample_count: 64, corr_length: 0.15}\n"
        "experiments: {validity_sample_count: 8}\n"
    )
    return str(path)


def _read_tree(out):
    return {name: open(os.path.join(out, name), "rb").read() for name in os.listdir(out)}


@pytest.fixture(scope="module")
def tiny_report(tmp_path_factory):
    """(config path, output directory) of one report run at the tiny config."""
    directory = tmp_path_factory.mktemp("tiny_report")
    config = _tiny_config(directory)
    out = str(directory / "results")
    assert main(["--config", config, "--out", out, "report"]) == 0
    return config, out


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


@pytest.mark.parametrize("source", ["flag", "file"])
def test_negative_seed_is_a_config_error(tmp_path, capsys, source):
    out = tmp_path / "results"
    if source == "flag":
        argv = ["--out", str(out), "--seed", "-1", "closure"]
    else:
        config_path = tmp_path / "seed.yaml"
        config_path.write_text("random_field: {seed: -1}\n")
        argv = ["--config", str(config_path), "--out", str(out), "closure"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "seed" in err
    assert not out.exists()


def test_non_finite_config_number_exits_1_and_writes_nothing(tmp_path, capsys):
    # Each input must stop the run before anything is written: a NaN kappa
    # once exited 0 with r_eff 1.0, an empty target grid once died in
    # scan-targets and report with a bare numpy ValueError, other empty
    # lists and a negative threshold exited 0 with empty or null tables,
    # a repeated scenario ran twice, a malformed target, a zero validity
    # sample count and an unknown kernel exited 2 with partial tables, and
    # a bare string was split into one-letter scenario ids. A string or list
    # field of the wrong type crashed with a bare TypeError or named no key,
    # a boolean was read as 1, a repeated weight preset ran twice, and
    # unknown keys of mixed types crashed while being sorted. An out-of-range
    # grid or field value (a negative correlation length, a descending
    # amplitude grid, rho_c >= 1, ...) exited 2 after the rows before it.
    cases = [
        ("experiments: {kappa_grid: [.nan]}\n", "boundary-scale", "kappa_grid"),
        ("experiments: {target_grid: []}\n", "scan-targets", "target_grid"),
        ("experiments: {target_grid: []}\n", "report", "target_grid"),
        ("scenarios: []\n", "check-derivatives", "scenarios"),
        ("experiments: {amplitude_grid: []}\n", "scan-validity", "amplitude_grid"),
        ("experiments: {delta_f_grid: []}\n", "scan-fda", "delta_f_grid"),
        ("experiments: {kappa_grid: []}\n", "boundary-scale", "kappa_grid"),
        ("experiments: {snr_grid_db: []}\n", "boundary-noise", "snr_grid_db"),
        ("experiments: {corr_length_grid: []}\n", "scan-lx", "corr_length_grid"),
        ("experiments: {rho_c_grid: []}\n", "scan-coupling", "rho_c_grid"),
        ("experiments: {weight_presets: []}\n", "scan-coupling", "weight_presets"),
        ("experiments: {boundary_scenarios: []}\n", "boundary-noise", "boundary_scenarios"),
        ("experiments: {kernel_diff_scenarios: []}\n", "kernel-diff", "kernel_diff_scenarios"),
        ("experiments: {validity_threshold: -1}\n", "scan-validity", "validity_threshold"),
        ("scenarios: [S1]\n", "--scenario S1,S1 check-derivatives", "scenarios"),
        ("experiments: {target: [0, 0.2]}\n", "scan-fda", "target"),
        ("experiments: {target: [0, 0, -0.2]}\n", "scan-fda", "target"),
        ("experiments: {target_grid: [[0, 0.2]]}\n", "scan-targets", "target_grid"),
        ("experiments: {validity_sample_count: 0}\n", "scan-validity", "validity_sample_count"),
        ("random_field: {kernel: matern}\n", "scan-lx", "kernel"),
        ("scenarios: S1\n", "check-derivatives", "scenarios"),
        ("experiments: {boundary_scenarios: S4}\n", "boundary-noise", "boundary_scenarios"),
        ("output_dir: 5\n", "check-derivatives", "output_dir must be a string"),
        ("scenarios: [[S1]]\n", "check-derivatives", "scenarios[0] must be a string"),
        ("experiments: {lx_scan_scenario: [S2]}\n", "scan-lx", "lx_scan_scenario must be"),
        ("experiments: {weight_presets: [[uniform]]}\n", "scan-coupling",
         "weight_presets[0] must be"),
        ("geometry: {n_tx: true}\n", "check-derivatives", "n_tx must be a number"),
        ("random_field: {seed: true}\n", "closure", "seed must be a number"),
        ("experiments: {target_grid: [[0, 0, true]]}\n", "scan-targets",
         "target_grid[0] must be numbers"),
        ("experiments: {weight_presets: [uniform, uniform]}\n", "scan-coupling",
         "weight_presets repeats"),
        ("experiments: {corr_length_grid: [0.1, -0.2]}\n", "scan-lx", "corr_length_grid[1]"),
        ("experiments: {amplitude_grid: [1.0, 0.5]}\n", "scan-validity", "amplitude_grid[1]"),
        ("experiments: {kappa_grid: [0.0]}\n", "boundary-scale", "kappa_grid[0]"),
        ("experiments: {rho_c_grid: [1.5]}\n", "scan-coupling", "rho_c_grid[0]"),
        ("experiments: {delta_f_grid: [-1.0e+6]}\n", "scan-fda", "delta_f_grid[0]"),
        ("random_field: {corr_length: -0.1}\n", "scan-lx", "corr_length must"),
        ("random_field: {rho_c: 1.0}\n", "scan-coupling", "rho_c must"),
        ("random_field: {amplitude: -1.0}\n", "boundary-scale", "amplitude must"),
        ("random_field: {weights: [1, -1, 1, 1, 1]}\n", "scan-targets", "weights[1]"),
        ("geometry: {1: 2, gain: 3}\n", "check-derivatives",
         "unknown keys in geometry block: [1, 'gain']"),
        (f"random_field: {{corr_length: {10**400}}}\n", "scan-lx", "corr_length must"),
        (f"random_field: {{sample_count: {10**400}}}\n", "closure", "sample_count must"),
    ]
    for index, (text, command, key) in enumerate(cases):
        out = tmp_path / f"results{index}"
        config_path = tmp_path / f"bad{index}.yaml"
        config_path.write_text(text)
        argv = ["--config", str(config_path), "--out", str(out), *command.split()]
        assert main(argv) == 1, text
        err = capsys.readouterr().err
        assert "configuration error" in err and key in err
        assert not out.exists()


def test_non_utf8_config_file_exits_1_and_writes_nothing(tmp_path, capsys):
    # It once escaped as a bare UnicodeDecodeError traceback.
    out = tmp_path / "results"
    config_path = tmp_path / "latin1.yaml"
    config_path.write_bytes("output_dir: r\u00e9sultats\n".encode("latin-1"))
    assert main(["--config", str(config_path), "--out", str(out), "check-derivatives"]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and str(config_path) in err
    assert not out.exists()


def test_seed_flag_beyond_float_precision_runs_exactly(capsys):
    # 2**53 + 1 once ran, and was recorded, as 2**53.
    assert main(["--seed", str(2**53 + 1), "--print-config"]) == 0
    assert parse_config(capsys.readouterr().out).random_field.seed == 2**53 + 1


@pytest.mark.parametrize("source", ["flag", "file"])
def test_seed_flag_and_file_read_1e3_as_1000(tmp_path, capsys, source):
    # The flag once refused 1e3 as a usage error (exit 2) that the file ran as 1000.
    if source == "flag":
        argv = ["--seed", "1e3", "--print-config"]
    else:
        config_path = tmp_path / "seed.yaml"
        config_path.write_text("random_field: {seed: 1e3}\n")
        argv = ["--config", str(config_path), "--print-config"]
    assert main(argv) == 0
    assert parse_config(capsys.readouterr().out).random_field.seed == 1000


def test_malformed_seed_flag_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "results"
    assert main(["--out", str(out), "--seed", "abc", "closure"]) == 1
    err = capsys.readouterr().err
    assert "configuration error: seed must be a number" in err
    assert not out.exists()


def test_report_plots_without_matplotlib_exits_1_and_writes_nothing(tmp_path, capsys,
                                                                   monkeypatch):
    # Once it ran every experiment, wrote no plot and exited 0.
    monkeypatch.setitem(sys.modules, "matplotlib", None)
    out = tmp_path / "results"
    assert main(["--out", str(out), "--scenario", "S1", "report", "--plots"]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "matplotlib" in err
    assert not out.exists()


#: Runs scan-fda at a small grid, drops S3's rows after its first delta_f as
#: a scan that failed there would, and prints what ``_plots`` asks each plot
#: for. matplotlib is replaced by recorders.
_PLOTS_SCRIPT = """
import json
from gprclutter.harness import cli, plots
from gprclutter.harness.config import ExperimentConfig
from gprclutter.harness.experiments import run_fda_scan
from gprclutter.scene import GeometryConfig

calls = []
plots.pyplot = lambda: None
plots.plot_eigen_spectra = lambda summaries, out_dir: calls.append(list(summaries)) or []
plots.plot_scan_curve = lambda curves, xlabel, ylabel, name, out_dir: calls.append(
    [name, [[label, list(xs), list(ys)] for label, (xs, ys) in curves.items()]]) or []
config = ExperimentConfig(scenarios=("S_syn", "S4", "S1", "S_balance", "S3", "S2"),
                          geometry=GeometryConfig(n_x=4, n_z=3))
fda = run_fda_scan(config)
fda.table.rows = [r for r in fda.table.rows if r["scenario"] != "S3" or r["delta_f_hz"] == 0.0]
cli._plots(config, {"scan-fda": fda}, {})
print(json.dumps(calls))
"""


def test_report_plots_follow_the_configured_order_whatever_the_hash_seed():
    src = os.path.dirname(os.path.dirname(gprclutter.__file__))
    outputs = [
        subprocess.run([sys.executable, "-c", _PLOTS_SCRIPT], check=True, capture_output=True,
                       text=True, env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)).stdout
        for seed in ("0", "1")
    ]
    assert outputs[0] == outputs[1]
    spectra, (name, curves) = json.loads(outputs[0])
    assert spectra == [] and name == "fda_scan"
    assert [label for label, _, _ in curves] == ["S_syn", "S4", "S1", "S_balance", "S3", "S2"]
    for label, xs, ys in curves:
        assert xs == ([0.0] if label == "S3" else [0.0, 20e6, 40e6])
        assert len(ys) == len(xs)


def test_overflowing_snr_is_recorded_per_scenario(tmp_path, capsys):
    out = tmp_path / "results"
    config_path = tmp_path / "snr.yaml"
    config_path.write_text("experiments: {snr_grid_db: [-4000]}\n")
    assert main(["--config", str(config_path), "--out", str(out), "boundary-noise"]) == 2
    errors = json.loads((out / "boundary_errors.json").read_text())
    assert set(errors) == {"S2", "S4"}
    assert all("snr_db -4000.0" in message for message in errors.values())
    assert "error in S2" in capsys.readouterr().err


def test_report_hashes_its_config_once(tiny_report, tmp_path, monkeypatch):
    from gprclutter.harness import config as config_mod

    emitted = []
    original = config_mod.config_to_dict

    def counting(config):
        emitted.append(config)
        return original(config)

    monkeypatch.setattr(config_mod, "config_to_dict", counting)
    config, _ = tiny_report
    out = str(tmp_path / "results")
    assert main(["--config", config, "--out", out, "report"]) == 0
    # One hash and one config.yaml, not one hash per experiment.
    assert len(emitted) == 2
    docs = [json.loads(open(os.path.join(out, name)).read())
            for name in os.listdir(out) if name.endswith(".json")]
    hashes = {doc["provenance"]["config_hash"] for doc in docs if "provenance" in doc}
    summary = json.loads(open(os.path.join(out, "summary.json")).read())
    assert hashes == {summary["config_hash"]}


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
    # A usage error exits 1, as a configuration error does: 2 is kept for
    # numerical or invariant failures.
    with pytest.raises(SystemExit) as exit_info:
        main([])
    assert exit_info.value.code == 1
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


def test_structural_jobs_never_load_openssl(tmp_path):
    # The digests use CPython's built-in SHA-256, so a structural job maps no
    # libcrypto; only numpy.random (the Monte Carlo jobs) still loads it.
    src = os.path.dirname(os.path.dirname(gprclutter.__file__))
    config = _tiny_config(tmp_path)
    out = str(tmp_path / "results")
    code = (
        "import sys\n"
        "from gprclutter.harness.cli import main\n"
        "for command in ('check-derivatives', 'kernel-diff'):\n"
        f"    assert main(['--config', {config!r}, '--out', {out!r}, command]) == 0\n"
        "print('_hashlib' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True)
    assert result.stdout.splitlines()[-1] == "False"


class _NoMallopt:
    """A C library without ``mallopt``, as on macOS or musl."""


def _cdll_raises(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [_cdll_raises, lambda name: _NoMallopt()],
                         ids=["cdll-raises", "no-mallopt"])
def test_main_runs_without_glibc_mallopt(tmp_path, monkeypatch, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    out = str(tmp_path / "results")
    assert main(["--out", out, "--scenario", "S1", "check-derivatives"]) == 0
    assert os.path.exists(os.path.join(out, "derivative_check.csv"))


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
    forward = assemble_forward(get_scenario("S2"), build_default_geometry())
    assert matrix.tobytes() == dense_entries(forward).tobytes()
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


def test_rerun_reproduces_identical_bytes(tmp_path, monkeypatch):
    config = _tiny_config(tmp_path)
    trees = []
    for run in ("a", "b"):
        (tmp_path / run).mkdir()
        monkeypatch.chdir(tmp_path / run)
        # A relative --out, so that both config.yaml files name the same directory.
        assert main(["--config", config, "--out", "results", "report"]) == 0
        trees.append(_read_tree("results"))
    assert trees[0] == trees[1]
    assert {"summary.json", "baseline_summaries.json", "config.yaml", "boundary.json",
            "closure_reports.json", "validity_scan_reports.json"} <= set(trees[0])


def test_report_boundary_table_holds_scale_then_noise_rows(tiny_report, tmp_path):
    config, out = tiny_report
    rows = {}
    for command in ("boundary-scale", "boundary-noise"):
        single = str(tmp_path / command)
        assert main(["--config", config, "--out", single, command]) == 0
        rows[command] = json.loads(open(os.path.join(single, "boundary.json")).read())["rows"]
    report_rows = json.loads(open(os.path.join(out, "boundary.json")).read())["rows"]
    assert report_rows == rows["boundary-scale"] + rows["boundary-noise"]
    summary = json.loads(open(os.path.join(out, "summary.json")).read())
    assert summary["experiments"]["boundary"] == {"rows": len(report_rows), "errors": {}}
    assert not [name for name in summary["experiments"] if name.startswith("boundary-")]


def test_report_baseline_summaries_are_the_configured_spectra(tiny_report):
    config_path, out = tiny_report
    config = load_config(config_path)
    geometry = build_default_geometry(config.geometry)
    rf = config.random_field
    expected = {}
    for sid in config.scenarios:
        scenario = get_scenario(sid)
        cov = build_covariance(scenario, geometry.cell_centers, rf.corr_length, rf.rho_c,
                               rf.weights, rf.amplitude, kernel=rf.kernel)
        theory = clutter_covariance(assemble_forward(scenario, geometry), cov)
        expected[sid] = spectral_summary(theory).to_dict()
    baseline = json.loads(open(os.path.join(out, "baseline_summaries.json")).read())
    assert baseline == json.loads(json.dumps(expected))


def test_failing_scenario_is_recorded_and_report_finishes(tmp_path, capsys, monkeypatch):
    # Every field covariance is built with a negative correlation length,
    # which build_covariance refuses per scenario. The configuration refuses
    # one when it loads, so the value is passed past it.
    original = experiments.build_covariance

    def negative_length(*args, **kwargs):
        return original(*args, **dict(kwargs, corr_length=-1.0))

    monkeypatch.setattr(experiments, "build_covariance", negative_length)
    out = str(tmp_path / "results")
    config = _tiny_config(tmp_path)
    assert main(["--config", config, "--out", out, "report"]) == 2
    summary = json.loads(open(os.path.join(out, "summary.json")).read())
    assert set(summary["experiments"]["closure"]["errors"]) == {"S1", "S4"}
    assert "corr" in summary["experiments"]["closure"]["errors"]["S1"]
    errors = json.loads(open(os.path.join(out, "closure_errors.json")).read())
    assert errors == summary["experiments"]["closure"]["errors"]
    assert summary["experiments"]["check-derivatives"]["errors"] == {}
    assert json.loads(open(os.path.join(out, "baseline_summaries.json")).read()) == {}
    assert os.path.exists(os.path.join(out, "config.yaml"))
    assert "configuration error" not in capsys.readouterr().err


#: Per subcommand: the table it writes and the experiment layer that fails
#: for one scenario. "report" runs run_boundary(which="both").
_FAILING_LAYERS = {
    "check-derivatives": ("derivative_check", "finite_difference_check"),
    "scan-validity": ("validity_scan", "validity_scan"),
    "kernel-diff": ("kernel_diff", "background_wavenumber"),
    "closure": ("closure", "assemble_forward"),
    "scan-fda": ("fda_scan", "steering_vector"),
    "scan-lx": ("lx_scan", "assemble_forward"),
    "scan-coupling": ("coupling_scan", "steering_vector"),
    "scan-targets": ("target_scan", "assemble_forward"),
    "boundary-scale": ("boundary", "steering_vector"),
    "boundary-noise": ("boundary", "assemble_forward"),
    "report": ("boundary", "steering_vector"),
}


@pytest.mark.parametrize("command", _FAILING_LAYERS)
def test_every_experiment_records_a_failing_scenario_and_goes_on(tmp_path, monkeypatch,
                                                                 command):
    # S4 comes first in every experiment and its layer fails: the error is
    # recorded under its id, S1 still writes its rows, and the run exits 2.
    table, layer = _FAILING_LAYERS[command]
    background = get_scenario("S4").background
    original = getattr(experiments, layer)

    def failing(*args, **kwargs):
        # S4 is passed as its scenario, as a forward's scenario or as its background.
        if any(getattr(getattr(arg, "scenario", arg), "id", None) == "S4"
               or isinstance(arg, ColeColeParams) and arg == background for arg in args):
            raise GprClutterError(f"{layer} failed")
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, layer, failing)
    config = tmp_path / "failing.yaml"
    config.write_text(
        "scenarios: [S4, S1]\n"
        "geometry: {n_tx: 2, n_rx: 2, n_x: 3, n_z: 2}\n"
        "random_field: {sample_count: 16}\n"
        "experiments: {validity_sample_count: 4, lx_scan_scenario: S4, coupling_scenario: S4,\n"
        "              boundary_scenarios: [S4, S1], kernel_diff_scenarios: [S4, S1]}\n"
    )
    out = tmp_path / "results"
    assert main(["--config", str(config), "--out", str(out), command]) == 2
    assert json.loads((out / f"{table}_errors.json").read_text()) == {"S4": f"{layer} failed"}
    rows = json.loads((out / f"{table}.json").read_text())["rows"]
    key = "from_scenario" if table == "kernel_diff" else "scenario"
    # scan-lx and scan-coupling run their one scenario only.
    others = set() if command in ("scan-lx", "scan-coupling") else {"S1"}
    assert {row[key] for row in rows} == others


def test_report_without_a_free_space_reference_writes_every_file(tmp_path, capsys):
    # Cells 0.5 um below the receivers: no forward assembles, the free-space
    # reference included. report once stopped at kernel-diff with exit 2.
    out = tmp_path / "results"
    config_path = tmp_path / "shallow.yaml"
    config_path.write_text(
        "scenarios: [S1]\ngeometry: {n_x: 3, n_z: 2, dz: 1.0e-6, n_tx: 2, n_rx: 2}\n")
    assert main(["--config", str(config_path), "--out", str(out), "report"]) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["experiments"]) == {
        "check-derivatives", "scan-validity", "kernel-diff", "scan-fda", "closure", "scan-lx",
        "scan-coupling", "scan-targets", "boundary"}
    assert "free_space" in summary["experiments"]["kernel-diff"]["errors"]
    for table in ("derivative_check", "validity_scan", "kernel_diff", "fda_scan", "closure",
                  "lx_scan", "coupling_scan", "target_scan", "boundary"):
        assert (out / f"{table}.csv").exists() and (out / f"{table}.json").exists(), table
    assert (out / "config.yaml").exists() and (out / "baseline_summaries.json").exists()


@pytest.mark.parametrize("command", ["kernel-diff", "report"])
def test_a_start_medium_of_zero_norm_is_recorded_and_the_run_goes_on(tmp_path, command):
    # Cells 2 km deep: S4's kernels underflow to 0, so a discrepancy measured
    # against its operator is undefined. kernel-diff once died of a
    # ZeroDivisionError, and report stopped before writing summary.json.
    config_path = tmp_path / "deep.yaml"
    config_path.write_text("geometry: {n_x: 3, n_z: 2, dz: 2000}\n"
                           "experiments: {kernel_diff_scenarios: [S4, S1]}\n")
    out = tmp_path / "results"
    assert main(["--config", str(config_path), "--out", str(out), command]) == 2
    assert json.loads((out / "kernel_diff_errors.json").read_text()) == {
        "S4": "reference forward operator has zero norm: its relative discrepancy is undefined"}
    rows = json.loads((out / "kernel_diff.json").read_text())["rows"]
    assert [(row["from_scenario"], row["to_scenario"]) for row in rows] == [
        ("S1", "S4"), ("S1", "S1"), ("S1", "free_space")]
    # Toward an operator of zero kernels the discrepancy is exactly 1.
    assert rows[0]["delta_a"] == 1.0
    if command == "report":
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["experiments"]) == 9
        for table in ("derivative_check", "validity_scan", "kernel_diff", "fda_scan", "closure",
                      "lx_scan", "coupling_scan", "target_scan", "boundary"):
            assert (out / f"{table}.csv").exists() and (out / f"{table}.json").exists(), table


def test_a_covariance_that_underflows_is_refused_as_underflow(tmp_path):
    # Cells 400 m deep: S4's kernels are nonzero, the largest about 1e-250,
    # but their Gram underflows to zero. scan-fda once recorded S4 as
    # "covariance is identically zero"; the refusal names the underflow and
    # the largest kernel magnitude, and the other scenarios go on.
    config_path = tmp_path / "deep.yaml"
    config_path.write_text("geometry: {n_x: 6, n_z: 4, dz: 400}\n")
    out = tmp_path / "results"
    assert main(["--config", str(config_path), "--out", str(out), "scan-fda"]) == 2
    # The scan's first increment, 0 Hz, is the first to refuse S4.
    config = load_config(str(config_path))
    geometry = build_default_geometry(dataclasses.replace(
        config.geometry, delta_f=config.experiments.delta_f_grid[0]))
    largest = float(np.abs(assemble_forward(get_scenario("S4"), geometry).kernels).max())
    assert 0.0 < largest < 1e-200
    assert json.loads((out / "fda_scan_errors.json").read_text()) == {
        "S4": "covariance underflows to zero: the kernel Gram is below the float range, "
              f"with a largest kernel magnitude of {largest!r}"}
    rows = json.loads((out / "fda_scan.json").read_text())["rows"]
    assert {row["scenario"] for row in rows} == {"S1", "S2", "S3", "S_syn", "S_balance"}


COVARIANCE_COMMANDS = ("scan-fda", "closure", "scan-lx", "scan-coupling", "scan-targets",
                       "boundary-scale", "boundary-noise")


@pytest.mark.parametrize(("reproducer", "clean", "message"), [
    ("amplitude_overflow.yaml", ("scan-validity",),
     "covariance overflows: the weighted kernel Gram times the amplitude squared exceeds "
     "the float range, at amplitude 1e+160"),
    ("gram_overflow.yaml", ("check-derivatives", "scan-validity", "kernel-diff"),
     "covariance overflows: the kernel Gram exceeds the float range, "
     "with a largest kernel magnitude of 2."),
], ids=["amplitude", "kernel-gram"])
def test_a_covariance_beyond_the_float_range_is_refused_as_overflow(
        tmp_path, reproducer, clean, message):
    # The two float-range reproducers. The amplitude's square once escaped
    # as a bare OverflowError (exit 1). The Gram's overflow escaped as a
    # RuntimeWarning under warnings as errors (exit 1), and otherwise read
    # "theoretical covariance has non-finite entries". Every experiment that
    # forms a theoretical covariance now records the overflow by name and
    # exits 2, with no warning; the others, which form none, still exit 0.
    config_path = os.path.join(os.path.dirname(__file__), reproducer)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.simplefilter("error", RuntimeWarning)
        for command in COVARIANCE_COMMANDS + clean:
            out = tmp_path / command
            code = main(["--config", config_path, "--out", str(out), command])
            errors = {}
            for path in out.glob("*_errors.json"):
                errors.update(json.loads(path.read_text()))
            if command in clean:
                assert (code, errors) == (0, {}), command
            else:
                assert code == 2 and errors, command
                assert all(m.startswith(message) for m in errors.values()), errors
    assert caught == []


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
    assert "samples 0..3" in errors["S3"]
    assert re.search(r"index \(\d+, \d+, \d+\)", errors["S3"]), errors["S3"]
    assert "error in S3" in capsys.readouterr().err


EDGE_CONFIG = os.path.join(os.path.dirname(__file__), "domain_edge.yaml")


def test_an_exact_contrast_that_is_not_finite_is_recorded_per_scenario(tmp_path):
    out = tmp_path / "all"
    assert main(["--config", EDGE_CONFIG, "--out", str(out), "scan-validity"]) == 2
    errors = json.loads((out / "validity_scan_errors.json").read_text())
    assert sorted(errors) == ["S1", "S2", "S3", "S_balance"]
    config = load_config(EDGE_CONFIG)
    omegas = [repr(2.0 * np.pi * f)
              for f in build_default_geometry(config.geometry).frequencies.tolist()]
    for message in errors.values():
        found = re.fullmatch(r"samples 0\.\.5: exact contrast overflow at omega=(\S+), "
                             r"index \((\d+), (\d+), (\d+)\); offending parameter 'alpha'",
                             message)
        assert found, message
        omega, sample, frequency, cell = found.groups()
        assert int(sample) < config.experiments.validity_sample_count
        assert omega == omegas[int(frequency)] and int(cell) < config.geometry.n_z
    for path in out.iterdir():
        assert "NaN" not in path.read_text(), path.name
    solo = tmp_path / "solo"
    assert main(["--config", EDGE_CONFIG, "--out", str(solo), "--scenario", "S4,S_syn",
                 "scan-validity"]) == 0
    assert (json.loads((out / "validity_scan.json").read_text())["rows"]
            == json.loads((solo / "validity_scan.json").read_text())["rows"])
    reports, alone = (json.loads((path / "validity_scan_reports.json").read_text())
                      for path in (out, solo))
    assert {sid: reports[sid] for sid in ("S4", "S_syn")} == {
        sid: alone[sid] for sid in ("S4", "S_syn")}


@pytest.mark.parametrize(("command", "table"), [
    ("closure", "closure"), ("scan-validity", "validity_scan"),
], ids=["closure", "scan-validity"])
def test_a_zero_weight_is_named_in_each_sampling_scenario_error(tmp_path, command, table):
    # Weights [0, 1, 1, 1, 1] load and leave the structural experiments
    # running, but the parameter factor is singular: both sampling
    # subcommands record, per scenario, the channel of zero variance.
    config_path = tmp_path / "zero.yaml"
    config_path.write_text(
        "scenarios: [S1, S4]\n"
        "geometry: {n_tx: 2, n_rx: 2, n_x: 3, n_z: 2}\n"
        "random_field: {sample_count: 16, weights: [0, 1, 1, 1, 1]}\n"
        "experiments: {validity_sample_count: 4}\n"
    )
    out = tmp_path / "results"
    assert main(["--config", str(config_path), "--out", str(out), command]) == 2
    message = "parameter factor is not positive definite: zero variance in channel(s) 'eps_inf'"
    assert json.loads((out / f"{table}_errors.json").read_text()) == {
        "S1": message, "S4": message}


def test_closure_with_one_sample_exits_2_and_is_recorded(tmp_path):
    out = str(tmp_path / "results")
    config_path = tmp_path / "one.yaml"
    config_path.write_text("random_field: {sample_count: 1}\nscenarios: [S1]\n")
    assert main(["--config", str(config_path), "--out", out, "closure"]) == 2
    errors = json.loads(open(os.path.join(out, "closure_errors.json")).read())
    assert errors == {"S1": "closure needs at least two snapshots per mode"}


@pytest.mark.parametrize(("channel", "value", "message"), [
    (2, -1e-12, "perturbed tau at index (51, 0, 2)"),
    # S1's omega tau is about 6e-4: (omega tau)^(1 - 400) overflows at every frequency.
    (3, 400.0, "exact contrast overflow at omega=628318530.7179586, index (51, 0, 2); "
               "offending parameter 'alpha'"),
], ids=["tau_floor", "overflow"])
def test_closure_failure_in_a_later_block_drops_only_its_scenario(
    tmp_path, monkeypatch, channel, value, message
):
    # S1 and S4 share one streamed draw of 150 samples in ceil(150 / 64) = 3
    # balanced blocks of 50. S1's exact contrast fails in its second block, at the tau floor or by
    # overflow: its error keeps the ensemble numbering, and S4's row and
    # matrices are those of a run without S1.
    config_path = tmp_path / "two.yaml"
    config_path.write_text(
        "scenarios: [S1, S4]\n"
        "geometry: {n_tx: 2, n_rx: 2, n_x: 3, n_z: 2}\n"
        "random_field: {sample_count: 150}\n"
    )
    solo = str(tmp_path / "solo")
    assert main(["--config", str(config_path), "--out", solo, "--scenario", "S4",
                 "closure", "--dump-matrices"]) == 0

    failing = get_scenario("S1").background
    original = montecarlo.exact_contrast_field
    chunks = []

    def flaky(background, delta, omega):
        if background == failing:
            chunks.append(delta.shape[2])  # delta is (5, 1, samples, cells)
            if len(chunks) == 2:
                delta = delta.copy()
                delta[channel, 0, 1, 2] = value  # sample 1 of the chunk, cell 2
        return original(background, delta, omega)

    monkeypatch.setattr(montecarlo, "exact_contrast_field", flaky)
    out = str(tmp_path / "shared")
    assert main(["--config", str(config_path), "--out", out,
                 "closure", "--dump-matrices"]) == 2
    assert chunks == [50, 50]
    errors = json.loads(open(os.path.join(out, "closure_errors.json")).read())
    assert list(errors) == ["S1"]
    assert errors["S1"].startswith(f"samples 50..99: {message}")
    rows = json.loads(open(os.path.join(out, "closure.json")).read())["rows"]
    assert rows == json.loads(open(os.path.join(solo, "closure.json")).read())["rows"]
    matrices = sorted(name for name in os.listdir(out) if name.endswith(".cmat"))
    assert matrices == sorted(name for name in os.listdir(solo) if name.endswith(".cmat"))
    assert all(name.startswith("closure_S4_") for name in matrices) and len(matrices) == 3
    for name in matrices:
        assert (open(os.path.join(out, name), "rb").read()
                == open(os.path.join(solo, name), "rb").read())


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


@pytest.mark.parametrize("order", [("failing", "clean"), ("clean", "failing")])
def test_rerun_leaves_no_stale_sidecar(tmp_path, order):
    # A failing closure writes closure_errors.json and no reports, a clean
    # one the reverse; a rerun into the same directory keeps only its own.
    configs = {"failing": "random_field: {sample_count: 1}\nscenarios: [S1]\n",
               "clean": "random_field: {sample_count: 16}\nscenarios: [S1]\n"
                        "geometry: {n_x: 3, n_z: 2}\n"}
    out = str(tmp_path / "results")
    for name in order:
        path = tmp_path / f"{name}.yaml"
        path.write_text(configs[name])
        assert main(["--config", str(path), "--out", out, "closure"]) == (
            2 if name == "failing" else 0)
    names = set(os.listdir(out))
    if order[-1] == "clean":
        assert names == {"closure.csv", "closure.json", "closure_reports.json"}
    else:
        assert names == {"closure.csv", "closure.json", "closure_errors.json"}


@pytest.mark.parametrize("order", [("S1", "S4"), ("S4", "S1")])
def test_rerun_leaves_no_stale_matrix(tmp_path, order):
    # closure --dump-matrices on S1 writes S1's three matrices, closure on
    # S4 none; a rerun into the same directory keeps only the matrices it
    # wrote. A file that only shares the table's prefix is not the table's.
    out = tmp_path / "results"
    out.mkdir()
    (out / "closure_notes.txt").write_text("not a table file\n")
    for sid in order:
        path = tmp_path / f"{sid}.yaml"
        path.write_text(f"scenarios: [{sid}]\ngeometry: {{n_x: 3, n_z: 2}}\n"
                        "random_field: {sample_count: 16}\n")
        dump = ["--dump-matrices"] if sid == "S1" else []
        assert main(["--config", str(path), "--out", str(out), "closure", *dump]) == 0
    names = {"closure.csv", "closure.json", "closure_reports.json", "closure_notes.txt"}
    if order[-1] == "S1":
        names |= {f"closure_S1_{kind}.cmat" for kind in ("theory", "rhat_linear", "rhat_exact")}
    assert set(os.listdir(out)) == names


_STRUCTURAL = ("check-derivatives", "kernel-diff", "scan-fda", "scan-lx", "scan-coupling",
               "scan-targets", "boundary-scale", "boundary-noise")

#: Configurations that share scenarios and differ in the correlation length,
#: the spatial kernel (a dense C), the geometry or only the seed, run one
#: after another in one process.
_MEMO_CONFIGS = {
    "base": ("scenarios: [S1, S4]\ngeometry: {n_x: 6, n_z: 5}\n", "3"),
    "corr": ("scenarios: [S1, S4]\ngeometry: {n_x: 6, n_z: 5}\n"
             "random_field: {corr_length: 0.08}\n", "3"),
    "dense": ("scenarios: [S1, S4]\ngeometry: {n_x: 6, n_z: 5}\n"
              "random_field: {kernel: exponential}\n", "3"),
    "grid": ("scenarios: [S1, S4]\ngeometry: {n_x: 5, n_z: 5}\n", "3"),
    "seed": ("scenarios: [S1, S4]\ngeometry: {n_x: 6, n_z: 5}\n", "11"),
}


def test_shared_baselines_leave_every_output_unchanged(tmp_path):
    paths = {}
    for name, (text, _) in _MEMO_CONFIGS.items():
        paths[name] = tmp_path / f"{name}.yaml"
        paths[name].write_text(text)

    def run(name, command, out):
        seed = _MEMO_CONFIGS[name][1]
        assert main(["--config", str(paths[name]), "--seed", seed, "--out", str(out),
                     command]) == 0
        return _read_tree(out)

    shared = {(name, command): run(name, command, tmp_path / "shared" / name / command)
              for name in _MEMO_CONFIGS for command in _STRUCTURAL}
    for (name, command), tree in shared.items():
        clear_memos()
        assert run(name, command, tmp_path / "alone" / name / command) == tree, (name, command)


def _counted_layers(monkeypatch, layers) -> list:
    """The names of the ``experiments`` layers called, one entry per call."""
    calls = []
    for layer in layers:
        original = getattr(experiments, layer)

        def counting(*args, _layer=layer, _original=original, **kwargs):
            calls.append(_layer)
            return _original(*args, **kwargs)

        monkeypatch.setattr(experiments, layer, counting)
    return calls


def test_structural_passes_after_scan_fda_assemble_nothing(tmp_path, monkeypatch):
    calls = _counted_layers(
        monkeypatch, ("assemble_forward", "clutter_covariance", "build_default_geometry"))
    config = tmp_path / "small.yaml"
    config.write_text("scenarios: [S1, S4]\ngeometry: {n_x: 6, n_z: 5}\n"
                      "experiments: {boundary_scenarios: [S4, S1]}\n")
    assert main(["--config", str(config), "--out", str(tmp_path / "fda"), "scan-fda"]) == 0
    # Two scenarios at three delta_f values over three geometries.
    assert (calls.count("assemble_forward"), calls.count("clutter_covariance"),
            calls.count("build_default_geometry")) == (6, 6, 3)
    calls.clear()
    for command in ("scan-targets", "boundary-scale", "boundary-noise"):
        assert main(["--config", str(config), "--seed", "5", "--out",
                     str(tmp_path / command), command]) == 0
    assert calls == []


def test_report_builds_each_operator_only_where_an_experiment_needs_it(tmp_path, monkeypatch):
    layers = ("assemble_forward", "clutter_covariance", "build_default_geometry",
              "steering_vector")
    calls = _counted_layers(monkeypatch, layers)
    config = tmp_path / "small.yaml"
    config.write_text("scenarios: [S1, S4]\ngeometry: {n_x: 6, n_z: 5}\n"
                      "random_field: {sample_count: 16}\n"
                      "experiments: {validity_sample_count: 4, boundary_scenarios: [S4, S1]}\n")
    assert main(["--config", str(config), "--out", str(tmp_path / "out"), "report"]) == 0
    # Operators: scan-validity 2, scan-fda 2 x 3 delta_f, closure 2, scan-lx 1
    # and scan-coupling 1; scan-targets and boundary read scan-fda's baselines.
    # Clutter covariances: scan-fda 6, closure 2, scan-lx 4 lengths. Steering
    # vectors: scan-fda 6, scan-lx 1, scan-coupling 1, scan-targets 2 x 5
    # targets, boundary 2. Geometries: one per delta_f.
    assert tuple(calls.count(layer) for layer in layers) == (12, 12, 3, 20)
