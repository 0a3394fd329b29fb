"""Experiment implementations: tables, trends, failure policy."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

import gprclutter
import gprclutter.harness
from gprclutter import (
    GeometryConfig,
    assemble_forward,
    build_covariance,
    build_default_geometry,
    get_scenario,
    clutter_covariance,
    forward_discrepancy,
    montecarlo,
    randfield,
    scenario_registry,
    spectral_summary,
    steering_vector,
    target_overlap,
)
from gprclutter.harness import experiments
from gprclutter.harness.config import ExperimentConfig, ExperimentSettings, RandomFieldConfig
from gprclutter.harness.experiments import (
    MetricTable,
    free_space_scenario,
    preset_weights,
    run_boundary,
    run_closure,
    run_coupling_scan,
    run_derivative_check,
    run_fda_scan,
    run_kernel_diff,
    run_lx_scan,
    run_target_scan,
    run_validity_scan,
)
from gprclutter import constitutive
from gprclutter import forward as forward_module
from gprclutter import scene
from gprclutter.harness.cli import main
from gprclutter.constitutive import PARAMETER_NAMES
from gprclutter.errors import AssemblyError
from gprclutter.montecarlo import SAMPLE_BLOCK
from conftest import clear_memos, closure_covariances
from oracles import finite_difference_errors

#: The golden gate's bound on a finite-difference error: rounding noise.
DERIVATIVE_ERROR_ATOL = 2.2e-8


def _config(**kwargs):
    return ExperimentConfig(**kwargs)


@pytest.mark.parametrize("package", [gprclutter, gprclutter.harness],
                         ids=["gprclutter", "harness"])
def test_every_exported_name_resolves(package):
    assert [name for name in package.__all__ if not hasattr(package, name)] == []


def _rows_by(table, **filters):
    rows = table.rows
    for key, value in filters.items():
        rows = [r for r in rows if r[key] == value]
    return rows


def test_metric_table_enforces_row_invariants():
    table = MetricTable("demo", ("eta_0.9", "gamma_0.9", "p_0.9", "p_0.95"), {})
    table.add_row(**{"eta_0.9": 0.25, "gamma_0.9": 0.75, "p_0.9": 2, "p_0.95": 3})
    with pytest.raises(ValueError, match="gamma"):
        table.add_row(**{"eta_0.9": 0.25, "gamma_0.9": 0.70, "p_0.9": 2, "p_0.95": 3})
    with pytest.raises(ValueError, match="p_0.95"):
        table.add_row(**{"eta_0.9": 0.25, "gamma_0.9": 0.75, "p_0.9": 3, "p_0.95": 2})
    with pytest.raises(ValueError, match="columns"):
        table.add_row(unexpected=1.0)


def test_metric_table_serialization():
    table = MetricTable("demo", ("a", "b"), {"seed": 1})
    table.add_row(a=1.5, b=None)
    csv_text = table.to_csv_text()
    assert csv_text.splitlines()[0] == "a,b"
    assert csv_text.splitlines()[1] == "1.5,"
    doc = json.loads(table.to_json_text())
    assert doc["rows"] == [{"a": 1.5, "b": None}]
    assert doc["provenance"] == {"seed": 1}


def test_derivative_check_passes_and_the_bug_hook_flips_it(tmp_path, monkeypatch):
    config = _config()
    result = run_derivative_check(config)
    assert result.ok
    assert len(result.table.rows) == 6
    assert all(row["passed"] for row in result.table.rows)
    assert all(row["max_rel_error"] < 1e-5 for row in result.table.rows)
    s1_row = _rows_by(result.table, scenario="S1")[0]
    assert s1_row["max_rel_error"] < 1e-9
    assert main(["--out", str(tmp_path / "exact"), "check-derivatives"]) == 0
    assert not (tmp_path / "exact" / "derivative_check_errors.json").exists()

    # Analytic sensitivities 0.1% off: every scenario fails, keeps its row
    # and is recorded with its worst channel and frequency, and the run exits 2.
    exact = constitutive.sensitivity_components
    monkeypatch.setattr(constitutive, "sensitivity_components",
                        lambda *args: exact(*args) * (1.0 + 1e-3))
    broken = run_derivative_check(config)
    assert [row["scenario"] for row in broken.table.rows] == list(config.scenarios)
    assert all(not row["passed"] for row in broken.table.rows)
    out = tmp_path / "biased"
    assert main(["--out", str(out), "check-derivatives"]) == 2
    errors = json.loads((out / "derivative_check_errors.json").read_text())
    assert errors == broken.errors
    assert sorted(errors) == sorted(config.scenarios)
    for row in broken.table.rows:
        assert (f"{row['worst_channel']!r} at {row['worst_frequency_hz']!r} Hz has relative "
                f"error {row['max_rel_error']!r}") in errors[row["scenario"]]


def test_derivative_check_agrees_with_per_frequency_scalar_checks():
    # One broadcast check per scenario against one scalar check per
    # frequency, each worst entry taken as a scan in frequency order keeping
    # ties would: the values agree to rounding, their places exactly.
    config = _config()
    frequencies = build_default_geometry(config.geometry).frequencies
    result = run_derivative_check(config)
    assert [row["scenario"] for row in result.table.rows] == list(config.scenarios)
    for row in result.table.rows:
        worst, channel, frequency = 0.0, "", 0.0
        for f in frequencies:
            errors = finite_difference_errors(get_scenario(row["scenario"]).background,
                                              2.0 * np.pi * f)
            q = int(np.argmax(errors))
            if errors[q] >= worst:
                worst, channel, frequency = float(errors[q]), PARAMETER_NAMES[q], float(f)
        assert abs(row["max_rel_error"] - worst) <= DERIVATIVE_ERROR_ATOL
        assert (row["worst_channel"], row["worst_frequency_hz"]) == (channel, frequency)


def test_fda_scan_builds_one_distance_table_per_geometry(monkeypatch):
    # Three delta_f values, two scenarios: three antenna-cell tables, not
    # one per forward operator. The steering vectors' one-point tables are
    # the other calls.
    sizes = []
    original = scene.distance_table

    def counting(geometry, points):
        sizes.append(len(points))
        return original(geometry, points)

    monkeypatch.setattr(scene, "distance_table", counting)
    monkeypatch.setattr(forward_module, "distance_table", counting)
    config = _config(scenarios=("S1", "S4"), geometry=GeometryConfig(n_x=6, n_z=5))
    result = run_fda_scan(config)
    assert result.ok and len(result.table.rows) == 6
    assert sizes.count(30) == 3
    assert sizes.count(1) == 6 and len(sizes) == 9


def test_validity_scan_recommends_full_amplitude_everywhere(default_validity_scan):
    config = _config()
    result = default_validity_scan[0]
    assert result.ok
    assert set(result.reports) == set(config.scenarios)
    for row in result.table.rows:
        assert row["recommended_s_mu"] == 4.0
        assert row["worst_p95_contrast"] < 0.05
        assert row["worst_p95_snapshot"] < 0.05
    # Lossiest physical scene shows the largest snapshot nonlinearity.
    worst = {r["scenario"]: r["worst_p95_snapshot"] for r in result.table.rows}
    assert worst["S4"] > worst["S1"]
    assert worst["S4"] > worst["S2"]


def test_validity_scan_collects_per_scenario_failures():
    # An absurd amplitude drives perturbed tau through its floor in every
    # scenario; each failure is recorded and the batch keeps going instead
    # of aborting on the first one.
    settings = dataclasses.replace(
        ExperimentSettings(), amplitude_grid=(1e9,), validity_sample_count=4)
    config = _config(scenarios=("S1", "S3"), experiments=settings)
    result = run_validity_scan(config)
    assert not result.ok
    assert set(result.errors) == {"S1", "S3"}
    assert all("tau" in message for message in result.errors.values())


def test_validity_scan_threshold_tightening_shrinks_recommendation():
    settings = dataclasses.replace(
        ExperimentSettings(), validity_threshold=1e-6, validity_sample_count=20)
    config = _config(scenarios=("S4",), experiments=settings)
    result = run_validity_scan(config)
    assert result.ok
    recommended = result.reports["S4"].recommended_s_mu
    assert recommended is None or recommended < 4.0


def test_fda_scan_changes_structure_and_overlap():
    config = _config(scenarios=("S1", "S2", "S3", "S4"))
    result = run_fda_scan(config)
    assert result.ok
    for sid in config.scenarios:
        rows = {r["delta_f_hz"]: r for r in _rows_by(result.table, scenario=sid)}
        assert set(rows) == {0.0, 20e6, 40e6}
        low, high = rows[0.0], rows[40e6]
        assert low["eta_0.9"] > high["eta_0.9"]
        r_eff_change = abs(high["r_eff"] - low["r_eff"]) / low["r_eff"]
        eta_change = abs(high["eta_0.9"] - low["eta_0.9"]) / max(low["eta_0.9"], 1e-30)
        assert max(r_eff_change, eta_change) > 0.05


def test_fda_scan_is_invariant_to_global_amplitude_scaling():
    base = run_fda_scan(_config(scenarios=("S2",)))
    scaled = run_fda_scan(_config(
        scenarios=("S2",),
        random_field=dataclasses.replace(RandomFieldConfig(), amplitude=2.0),
    ))
    for row_base, row_scaled in zip(base.table.rows, scaled.table.rows):
        assert row_scaled["r_eff"] == row_base["r_eff"]
        assert row_scaled["p_0.9"] == row_base["p_0.9"]
        assert row_scaled["eta_0.9"] == row_base["eta_0.9"]
        assert row_scaled["trace"] == pytest.approx(4.0 * row_base["trace"], rel=1e-12)


def test_closure_run_reports_small_discrepancies():
    # Reduced sample count keeps this quick; the acceptance suite runs the
    # pinned full-size configuration.
    config = _config(
        scenarios=("S4",),
        random_field=dataclasses.replace(RandomFieldConfig(), sample_count=400),
    )
    result = run_closure(config, keep_matrices=True)
    assert result.ok
    row = result.table.rows[0]
    report = result.reports["S4"]
    assert row["eps_cov_lin"] == report.eps_cov_lin
    assert 0.0 < report.eps_cov_exact < 0.3
    assert abs(report.eps_cov_lin - report.eps_cov_exact) < 1e-2
    assert report.sample_count == 400
    assert set(result.matrices) == {
        "closure_S4_theory", "closure_S4_rhat_linear", "closure_S4_rhat_exact",
    }
    for matrix in result.matrices.values():
        assert matrix.shape == (64, 64)


@pytest.mark.parametrize("block, tiles", [
    (None, [(0, 50), (50, 50), (100, 50)]),
    (40, [(0, 38), (38, 38), (76, 37), (113, 37)]),
], ids=["default-budget", "binding-budget"])
def test_closure_draws_each_sample_once_per_run(monkeypatch, block, tiles):
    # The linear and exact ensembles of every scenario share one draw per
    # run, streamed in balanced blocks of at most SAMPLE_BLOCK samples, or
    # fewer under a binding byte budget, that cover 0..L-1 exactly once:
    # L = 150 is ceil(150 / 64) = 3 blocks of 50, or ceil(150 / 40) = 4
    # blocks of 38, 38, 37 and 37.
    ranges = []
    original = randfield.standard_normal_draws

    def counting(dim, count, seed, *, start=0):
        ranges.append((start, count))
        return original(dim, count, seed, start=start)

    monkeypatch.setattr(randfield, "standard_normal_draws", counting)
    monkeypatch.setattr(montecarlo, "standard_normal_draws", counting)
    assert SAMPLE_BLOCK == 64
    if block is not None:
        # 3 x 2 cells: 30 entries of 8 bytes per sample.
        monkeypatch.setattr(montecarlo, "SAMPLE_BLOCK_BYTES", block * 8 * 30)
    for sample_count, blocks in ((16, [(0, 16)]), (150, tiles)):
        ranges.clear()
        config = _config(
            scenarios=("S1", "S4"),
            geometry=GeometryConfig(n_tx=2, n_rx=2, n_x=3, n_z=2),
            random_field=dataclasses.replace(RandomFieldConfig(), sample_count=sample_count),
        )
        result = run_closure(config)
        assert result.ok
        # The run's blocks tile 0..L-1 once for both scenarios: no sample
        # drawn twice or skipped.
        assert ranges == blocks


@pytest.mark.parametrize("block", [None, 40], ids=["default-budget", "binding-budget"])
def test_shared_closure_stream_equals_the_per_scenario_path(monkeypatch, block):
    # run_closure streams S1 and S4 from one draw; each scenario's sample
    # covariances are bit for bit those of its own closure_covariances run.
    if block is not None:
        # 3 x 2 cells: 30 entries of 8 bytes per sample.
        monkeypatch.setattr(montecarlo, "SAMPLE_BLOCK_BYTES", block * 8 * 30)
    config = _config(
        scenarios=("S1", "S4"),
        geometry=GeometryConfig(n_tx=2, n_rx=2, n_x=3, n_z=2),
        random_field=dataclasses.replace(RandomFieldConfig(), sample_count=150),
    )
    result = run_closure(config, keep_matrices=True)
    assert result.ok
    rf = config.random_field
    geometry = build_default_geometry(config.geometry)
    for sid in config.scenarios:
        scenario = get_scenario(sid)
        forward = assemble_forward(scenario, geometry)
        cov = build_covariance(scenario, geometry, rf.corr_length, rf.rho_c,
                               rf.weights, rf.amplitude, rf.kernel)
        solo = closure_covariances(forward, cov, rf.sample_count, rf.seed)
        for name, rhat in zip(("rhat_linear", "rhat_exact"), solo):
            assert result.matrices[f"closure_{sid}_{name}"].tobytes() == rhat.tobytes()


def test_exponential_kernel_runs_equal_their_one_scenario_runs():
    # The exponential kernel does not separate, so every scenario samples
    # through the dense Cholesky root, and closure mixes one dense root for
    # all three. Each scenario's rows and report equal its own run's.
    config = _config(
        scenarios=("S1", "S4", "S_syn"),
        geometry=GeometryConfig(n_tx=2, n_rx=2, n_x=4, n_z=3),
        random_field=dataclasses.replace(RandomFieldConfig(), kernel="exponential",
                                         sample_count=150),
        experiments=dataclasses.replace(ExperimentSettings(), validity_sample_count=8),
    )
    geometry = build_default_geometry(config.geometry)
    rf = config.random_field
    cov = build_covariance(get_scenario("S1"), geometry, rf.corr_length, rf.rho_c,
                           rf.weights, rf.amplitude, rf.kernel)
    assert len(cov.spatial.factors) == 1
    for run in (run_closure, run_validity_scan):
        shared = run(config)
        assert shared.ok and list(shared.reports) == list(config.scenarios)
        for sid in config.scenarios:
            solo = run(dataclasses.replace(config, scenarios=(sid,)))
            assert _rows_by(shared.table, scenario=sid) == solo.table.rows
            assert shared.reports[sid] == solo.reports[sid]


def test_one_spatial_correlation_and_root_serve_each_run(monkeypatch):
    # With the exponential kernel C is dense. Each run builds it once for
    # its three scenarios and factors it at most once: closure and the
    # validity scan sample through its Cholesky root, scan-fda does not.
    config = _config(
        scenarios=("S1", "S4", "S_syn"),
        geometry=GeometryConfig(n_tx=2, n_rx=2, n_x=4, n_z=3),
        random_field=dataclasses.replace(RandomFieldConfig(), kernel="exponential",
                                         sample_count=16),
        experiments=dataclasses.replace(ExperimentSettings(), validity_sample_count=4),
    )
    n_cells = build_default_geometry(config.geometry).n_cells
    builds, factorizations = [], []
    build, cholesky = randfield.build_spatial_factor, np.linalg.cholesky

    def counting_build(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    def counting_cholesky(matrix):
        if matrix.shape == (n_cells, n_cells):
            factorizations.append(matrix)
        return cholesky(matrix)

    monkeypatch.setattr(randfield, "build_spatial_factor", counting_build)
    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    for run, roots in ((run_closure, 1), (run_validity_scan, 1), (run_fda_scan, 0)):
        clear_memos()
        builds.clear()
        factorizations.clear()
        result = run(config)
        assert result.ok and len(result.table.rows) >= 3
        assert (len(builds), len(factorizations)) == (1, roots), run.__name__


def test_lx_scan_concentrates_the_spectrum():
    result = run_lx_scan(_config())
    assert result.ok
    r_eff = result.table.column("r_eff")
    p09 = result.table.column("p_0.9")
    assert all(a > b for a, b in zip(r_eff, r_eff[1:]))
    assert all(a >= b for a, b in zip(p09, p09[1:]))


def test_lx_scan_delta_limit_maximizes_effective_rank():
    settings = dataclasses.replace(
        ExperimentSettings(), corr_length_grid=(1e-6, 0.05, 0.10, 0.20, 0.40))
    result = run_lx_scan(_config(experiments=settings))
    r_eff = result.table.column("r_eff")
    assert r_eff[0] == max(r_eff)


def test_coupling_scan_is_a_secondary_effect():
    result = run_coupling_scan(_config())
    assert result.ok
    rho_rows = {r["rho_c"]: r for r in result.table.rows if r["weight_preset"] is None}
    base = rho_rows[0.0]["r_eff"]
    spread = max(abs(r["r_eff"] - base) / base for r in rho_rows.values())
    assert spread < 0.05
    preset_rows = [r for r in result.table.rows if r["weight_preset"] is not None]
    assert len(preset_rows) == 4
    r_effs = [r["r_eff"] for r in preset_rows]
    assert (max(r_effs) - min(r_effs)) / min(r_effs) < 0.05
    p09s = {r["p_0.9"] for r in preset_rows}
    assert len(p09s) == 1


@pytest.mark.parametrize("sid", ["S_balance", "S4"])
def test_coupling_scan_rows_equal_per_configuration_covariances(sid):
    # The scan weights one Gram per scenario; each row must equal the one a
    # full clutter covariance of its configuration gives, bit for bit.
    config = _config(
        geometry=GeometryConfig(n_x=12, n_z=10),
        random_field=RandomFieldConfig(amplitude=0.7),
        experiments=ExperimentSettings(coupling_scenario=sid),
    )
    result = run_coupling_scan(config)
    assert result.ok
    rf, exp = config.random_field, config.experiments
    scenario, geometry = get_scenario(sid), build_default_geometry(config.geometry)
    forward = assemble_forward(scenario, geometry)
    steering = steering_vector(geometry, scenario, exp.target)
    settings = [(rho_c, rf.weights) for rho_c in exp.rho_c_grid]
    settings += [(rf.rho_c, preset_weights(preset)) for preset in exp.weight_presets]
    assert len(result.table.rows) == len(settings)
    for row, (rho_c, weights) in zip(result.table.rows, settings):
        cov = build_covariance(scenario, geometry, corr_length=rf.corr_length,
                               rho_c=rho_c, weights=weights, amplitude=rf.amplitude)
        summary = spectral_summary(clutter_covariance(forward, cov))
        eta, gamma = target_overlap(summary, steering, summary.p_rho[0.9])
        expected = {"r_eff": summary.r_eff, "p_0.9": summary.p_rho[0.9],
                    "p_0.95": summary.p_rho[0.95], "eta_0.9": eta, "gamma_0.9": gamma,
                    "trace": summary.trace}
        assert {key: row[key] for key in expected} == expected


def test_preset_weights_definition():
    assert np.array_equal(preset_weights("uniform"), np.ones(5))
    assert np.array_equal(preset_weights("permittivity"), [2, 1, 1, 1, 1])
    assert np.array_equal(preset_weights("relaxation"), [1, 1, 2, 1, 1])
    assert np.array_equal(preset_weights("conductivity"), [1, 1, 1, 1, 2])


def test_target_scan_aggregates_match_recomputation():
    config = _config(scenarios=("S2", "S4"))
    result = run_target_scan(config)
    assert result.ok
    for sid in config.scenarios:
        targets = _rows_by(result.table, scenario=sid, kind="target")
        summary = _rows_by(result.table, scenario=sid, kind="summary")[0]
        etas = np.array([r["eta_0.9"] for r in targets])
        assert len(etas) == 5
        assert summary["mean_eta"] == pytest.approx(etas.mean(), rel=1e-12)
        assert summary["std_eta"] == pytest.approx(etas.std(), rel=1e-12)
        assert summary["min_eta"] == pytest.approx(etas.min(), rel=1e-12)
        assert summary["max_eta"] == pytest.approx(etas.max(), rel=1e-12)
        assert summary["min_eta"] <= summary["mean_eta"] <= summary["max_eta"]
        assert summary["std_eta"] >= 0.0
        assert summary["max_eta"] - summary["min_eta"] > 0.0


def test_boundary_scaling_rows_are_pure_power():
    result = run_boundary(_config(), which="scale")
    assert result.ok
    for sid in ("S2", "S4"):
        rows = {r["kappa"]: r for r in _rows_by(result.table, scenario=sid)}
        reference = rows[1.0]
        for kappa, row in rows.items():
            assert row["r_eff"] == reference["r_eff"]
            assert row["p_0.9"] == reference["p_0.9"]
            assert row["eta_0.9"] == reference["eta_0.9"]
            assert abs(row["trace"] - kappa * reference["trace"]) <= 1e-12 * row["trace"]


def test_boundary_noise_rows_inflate_then_recover():
    result = run_boundary(_config(), which="noise")
    assert result.ok
    for sid in ("S2", "S4"):
        rows = _rows_by(result.table, scenario=sid)
        clean = [r for r in rows if r["snr_db"] is None][0]
        at_0db = [r for r in rows if r["snr_db"] == 0.0][0]
        at_20db = [r for r in rows if r["snr_db"] == 20.0][0]
        assert at_0db["r_eff"] > 3.0 * clean["r_eff"]
        assert at_0db["p_0.9"] >= 0.7 * 64
        assert abs(at_20db["r_eff"] - clean["r_eff"]) / clean["r_eff"] < 0.25
        assert abs(at_20db["eta_0.9"] - clean["eta_0.9"]) < 0.02


def test_kernel_diff_table():
    result = run_kernel_diff(_config())
    assert result.ok
    rows = {(r["from_scenario"], r["to_scenario"]): r["delta_a"] for r in result.table.rows}
    for sid in ("S1", "S2", "S3"):
        assert rows[(sid, sid)] == 0.0
    cross = [v for (a, b), v in rows.items() if a != b and b != "free_space"]
    assert all(v > 0.1 for v in cross)
    assert rows[("S2", "S3")] == max(cross)
    assert rows[("S2", "S3")] > rows[("S1", "S3")] > rows[("S1", "S2")]
    for sid in ("S1", "S2", "S3"):
        assert rows[(sid, "free_space")] > 0.0


def test_kernel_diff_equals_the_discrepancy_of_assembled_operators():
    # Every pair of the registry media and free space, bit for bit.
    _assert_kernel_diff_equals_assembled_operators(GeometryConfig(n_x=6, n_z=5))


def test_kernel_diff_of_kernels_whose_squares_underflow_is_defined():
    # Cells 400 m deep: S4's kernels are nonzero but below 1e-200, and
    # their blocks' power-of-two exponents differ from transmit to transmit.
    # No medium is refused as of zero norm, and the streamed sums equal
    # forward_discrepancy's, bit for bit.
    _assert_kernel_diff_equals_assembled_operators(GeometryConfig(n_x=3, n_z=2, dz=400))


def _assert_kernel_diff_equals_assembled_operators(geometry_config):
    media = tuple(scenario_registry())
    config = _config(geometry=geometry_config,
                     experiments=ExperimentSettings(kernel_diff_scenarios=media))
    result = run_kernel_diff(config)
    assert result.ok and len(result.table.rows) == len(media) * (len(media) + 1)
    geometry = build_default_geometry(config.geometry)
    forwards = {sid: assemble_forward(get_scenario(sid), geometry) for sid in media}
    forwards["free_space"] = assemble_forward(free_space_scenario(), geometry)
    for row in result.table.rows:
        assert row["delta_a"] == forward_discrepancy(
            forwards[row["to_scenario"]], forwards[row["from_scenario"]]), row


def test_kernel_diff_holds_less_than_one_operator():
    # The media are formed one transmit block at a time. Assembling them
    # once held four operators and a difference array, about five; keeping
    # one kernel generator per medium alive across the walk, about 1.7.
    config = _config(geometry=GeometryConfig(n_x=24, n_z=18))
    first = run_kernel_diff(config)  # builds the geometry and its distance table
    operator_bytes = 64 * config.geometry.n_x * config.geometry.n_z * 16
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = run_kernel_diff(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < operator_bytes
    assert result.table.rows == first.table.rows


def test_kernel_diff_drops_a_medium_whose_later_block_fails(monkeypatch):
    # S2's wavenumber at the second frequency is poisoned: the error is the
    # one assemble_forward raises for the same input, and the other pairs
    # keep their values.
    config = _config(geometry=GeometryConfig(n_x=6, n_z=5))
    clean = {(r["from_scenario"], r["to_scenario"]): r["delta_a"]
             for r in run_kernel_diff(config).table.rows}
    original = forward_module.background_wavenumber
    medium = get_scenario("S2").background

    def poisoned(background, omega):
        k = original(background, omega)
        if background == medium:
            k[1] = complex(np.nan, 0.0)
        return k

    monkeypatch.setattr(experiments, "background_wavenumber", poisoned)
    monkeypatch.setattr(forward_module, "background_wavenumber", poisoned)
    with pytest.raises(AssemblyError) as info:
        assemble_forward(get_scenario("S2"), build_default_geometry(config.geometry))
    assert str(info.value) == "non-finite forward kernel at (m=0, n=1, p=0)"
    result = run_kernel_diff(config)
    assert result.errors == {"S2": str(info.value)}
    rows = {(r["from_scenario"], r["to_scenario"]): r["delta_a"] for r in result.table.rows}
    assert rows == {(a, b): clean[a, b] for a in ("S1", "S3") for b in ("S1", "S3", "free_space")}


def test_free_space_scenario_is_valid():
    scenario = free_space_scenario()
    assert scenario.background.eps_inf == 1.0
    assert scenario.background.sigma == 0.0


def test_experiments_reproduce_bit_identical_outputs():
    config = _config(scenarios=("S3",))
    first = run_fda_scan(config)
    second = run_fda_scan(config)
    assert first.table.to_json_text() == second.table.to_json_text()
    assert first.table.to_csv_text() == second.table.to_csv_text()


def test_baseline_memo_keeps_at_most_its_bound():
    # Two fields over six scenarios are twelve baselines; the least recently
    # used go, so the second field's six stay and the first field's first does not.
    geometry = GeometryConfig(n_x=4, n_z=3)
    first, second = (_config(geometry=geometry, random_field=RandomFieldConfig(corr_length=c))
                     for c in (0.1, 0.2))
    assert len(second.scenarios) == 6
    for config in (first, second):
        assert run_target_scan(config).ok
    memo = experiments._shared_baseline
    assert memo.cache_info() == (0, 12, experiments.BASELINE_MEMO_SIZE,
                                 experiments.BASELINE_MEMO_SIZE)
    assert run_target_scan(second).ok
    assert memo.cache_info().hits == 6
    experiments._baseline(first, first.scenarios[0])
    assert (memo.cache_info().hits, memo.cache_info().misses) == (6, 13)


def test_closure_after_scan_fda_forms_no_theoretical_covariance(monkeypatch):
    # Closure takes each scenario's theory and spectrum from scan-fda's
    # baselines: it forms neither again, and its table and matrices keep the
    # bytes of a closure run alone.
    config = _config(scenarios=("S1", "S4"), geometry=GeometryConfig(n_x=6, n_z=5),
                     random_field=RandomFieldConfig(sample_count=16))
    alone = run_closure(config, keep_matrices=True)
    clear_memos()
    assert run_fda_scan(config).ok

    def never(*args, **kwargs):
        raise AssertionError("formed a theoretical covariance or its spectrum")

    monkeypatch.setattr(experiments, "clutter_covariance", never)
    monkeypatch.setattr(montecarlo, "spectral_summary", lambda cov: (
        never() if cov.provenance == "theoretical" else spectral_summary(cov)))
    shared = run_closure(config, keep_matrices=True)
    assert shared.ok and shared.table.to_json_text() == alone.table.to_json_text()
    assert shared.matrices.keys() == alone.matrices.keys()
    assert all(shared.matrices[name].tobytes() == matrix.tobytes()
               for name, matrix in alone.matrices.items())
