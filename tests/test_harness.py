"""Experiment implementations: tables, trends, failure policy."""

import dataclasses
import json

import numpy as np
import pytest

from gprclutter import (
    GeometryConfig,
    assemble_forward,
    build_covariance,
    build_default_geometry,
    get_scenario,
    randfield,
)
from gprclutter.forward import ForwardMatrix
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
from gprclutter.montecarlo import SNAPSHOT_MODES, snapshots_from_perturbations, validity_scan


def _config(**kwargs):
    return ExperimentConfig(**kwargs)


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


def test_derivative_check_passes_and_the_bug_hook_flips_it():
    config = _config()
    result = run_derivative_check(config)
    assert result.ok
    assert len(result.table.rows) == 6
    assert all(row["passed"] for row in result.table.rows)
    assert all(row["max_rel_error"] < 1e-5 for row in result.table.rows)
    s1_row = _rows_by(result.table, scenario="S1")[0]
    assert s1_row["max_rel_error"] < 1e-9

    broken = run_derivative_check(config, inject_error=True)
    assert all(not row["passed"] for row in broken.table.rows)


def test_validity_scan_recommends_full_amplitude_everywhere():
    config = _config()
    result = run_validity_scan(config)
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


def test_closure_draws_each_sample_once_per_scenario(monkeypatch):
    # The linear and exact ensembles share one draw per scenario.
    rows = []
    original = randfield.standard_normal_draws

    def counting(dim, count, seed):
        rows.append(count)
        return original(dim, count, seed)

    monkeypatch.setattr(randfield, "standard_normal_draws", counting)
    config = _config(
        scenarios=("S1", "S4"),
        geometry=GeometryConfig(n_tx=2, n_rx=2, n_x=3, n_z=2),
        random_field=dataclasses.replace(RandomFieldConfig(), sample_count=16),
    )
    result = run_closure(config)
    assert result.ok
    assert rows == [16, 16]


def test_monte_carlo_paths_never_read_the_dense_operator(monkeypatch):
    # Snapshots of both modes, the validity scan and closure apply the
    # operator through its factors K and Psi only.
    reads = []
    dense = ForwardMatrix.entries

    def counted(forward):
        reads.append(forward.scenario_id)
        return dense.func(forward)

    monkeypatch.setattr(ForwardMatrix, "entries", property(counted))
    config = _config(
        scenarios=("S1", "S4"),
        geometry=GeometryConfig(n_tx=2, n_rx=2, n_x=4, n_z=3),
        random_field=dataclasses.replace(RandomFieldConfig(), sample_count=16),
        experiments=dataclasses.replace(ExperimentSettings(), validity_sample_count=8),
    )
    scenario = get_scenario("S4")
    geometry = build_default_geometry(config.geometry)
    forward = assemble_forward(scenario, geometry)
    cov = build_covariance(scenario, geometry.cell_centers, 0.15, 0.3, np.ones(5), 1.0)
    samples = randfield.sample_perturbations(cov, 8, seed=3)
    for mode in SNAPSHOT_MODES:
        snapshots_from_perturbations(forward, scenario, geometry, samples, mode)
    validity_scan(forward, scenario, geometry, cov, sample_count=8, seed=3)
    assert run_validity_scan(config).ok
    assert run_closure(config).ok
    assert reads == []
    forward.entries  # the counter sees a read
    assert reads == ["S4"]


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
