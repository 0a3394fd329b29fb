"""Snapshot synthesis, covariance closure, validity scan."""

import math

import numpy as np
import pytest

from gprclutter import (
    GeometryConfig,
    assemble_forward,
    build_default_geometry,
    clutter_covariance,
    exact_contrast,
    get_scenario,
    green_kernel,
    montecarlo,
)
from gprclutter.errors import ConfigError, DomainError, UndefinedSpectrumError
from gprclutter.montecarlo import (
    closure_from_covariances,
    closure_report,
    convergence_ratio,
    nearest_rank_percentile,
    sample_covariance,
    simulate_snapshots,
    snapshots_from_perturbations,
    validity_scan,
)
from gprclutter.randfield import (
    PerturbationCovariance,
    build_param_factor,
    build_spatial_factor,
    sample_perturbations,
)
from gprclutter.spectra import ClutterCovariance


def _setup(sid="S_syn", n_x=3, n_z=2, amplitude=1.0, corr_length=0.1):
    geometry = build_default_geometry(GeometryConfig(n_tx=2, n_rx=2, n_x=n_x, n_z=n_z))
    scenario = get_scenario(sid)
    forward = assemble_forward(scenario, geometry)
    cov = PerturbationCovariance(
        param_factor=build_param_factor(scenario, np.ones(5), 0.3),
        spatial_factor=build_spatial_factor(geometry.cell_centers, corr_length),
        amplitude=amplitude,
        corr_length=corr_length,
    )
    return geometry, scenario, forward, cov


def test_zero_amplitude_gives_zero_snapshots():
    geometry, scenario, forward, cov = _setup(amplitude=0.0)
    for mode in ("linear", "exact"):
        snaps = simulate_snapshots(forward, scenario, geometry, cov, 5, 1, mode)
        assert np.all(snaps == 0.0)


def test_eps_inf_only_perturbations_are_linearized_exactly():
    # The permittivity is affine in eps_inf, so both modes must agree.
    geometry, scenario, forward, _ = _setup()
    rng = np.random.default_rng(2)
    samples = np.zeros((8, forward.shape[1]))
    samples[:, :geometry.n_cells] = 0.05 * rng.standard_normal((8, geometry.n_cells))
    lin = snapshots_from_perturbations(forward, scenario, geometry, samples, "linear")
    exact = snapshots_from_perturbations(forward, scenario, geometry, samples, "exact")
    assert np.linalg.norm(exact - lin) / np.linalg.norm(exact) < 1e-12


def test_exact_mode_matches_hand_rolled_loop():
    # Brute-force oracle: loop over cells and channels with scalar calls.
    geometry, scenario, forward, cov = _setup(sid="S4", n_x=2, n_z=1)
    samples = sample_perturbations(cov, 1, seed=5)
    fast = snapshots_from_perturbations(forward, scenario, geometry, samples, "exact")[0]
    n_cells = geometry.n_cells
    slow = np.zeros(forward.shape[0], dtype=complex)
    per_cell = samples[0].reshape(5, n_cells)
    for n in range(geometry.n_tx):
        omega = 2 * math.pi * geometry.frequencies[n]
        for m in range(geometry.n_rx):
            row = n * geometry.n_rx + m
            for p in range(n_cells):
                cell = geometry.cell_centers[p]
                xi = exact_contrast(scenario.background, per_cell[:, p], omega)
                g_r = green_kernel(geometry.rx_positions[m], cell, omega, scenario.background)
                g_t = green_kernel(cell, geometry.tx_positions[n], omega, scenario.background)
                slow[row] += g_r * xi * g_t * geometry.cell_volume
    assert np.linalg.norm(fast - slow) / np.linalg.norm(slow) < 1e-12


def test_snapshot_mode_validation():
    geometry, scenario, forward, cov = _setup()
    with pytest.raises(ConfigError):
        simulate_snapshots(forward, scenario, geometry, cov, 2, 0, "hybrid")
    with pytest.raises(ConfigError):
        snapshots_from_perturbations(forward, scenario, geometry, np.zeros((2, 7)), "linear")


def test_sample_covariance_is_zero_mean_form():
    snaps = np.array([[1.0 + 0j, 0.0], [0.0, 2.0 + 0j]])
    cov = sample_covariance(snaps)
    assert np.allclose(cov, np.diag([0.5, 2.0]))


def test_closure_with_theory_fed_back_is_exact():
    # L -> infinity surrogate: the sample covariance equals the theory.
    _, _, forward, cov = _setup()
    theory = clutter_covariance(forward, cov)
    report = closure_from_covariances(theory, theory.matrix, theory.matrix, 1000)
    assert report.eps_cov_lin == 0.0
    assert report.eps_cov_exact == 0.0
    assert report.eps_lambda == 0.0
    assert report.eps_sub == pytest.approx(0.0, abs=1e-12)


def test_closure_rejects_degenerate_inputs():
    _, _, forward, cov = _setup()
    theory = clutter_covariance(forward, cov)
    zero = ClutterCovariance(matrix=np.zeros_like(theory.matrix), provenance="theoretical")
    snaps = np.zeros((5, theory.size), dtype=complex)
    with pytest.raises(UndefinedSpectrumError):
        closure_report(zero, snaps, snaps)
    with pytest.raises(ConfigError):
        closure_report(theory, snaps[:1], snaps)


def test_closure_error_shrinks_like_root_sample_count():
    geometry = build_default_geometry(GeometryConfig(n_tx=6, n_rx=6, n_x=6, n_z=4))
    scenario = get_scenario("S_syn")
    forward = assemble_forward(scenario, geometry)
    cov = PerturbationCovariance(
        param_factor=build_param_factor(scenario, np.ones(5), 0.3),
        spatial_factor=build_spatial_factor(geometry.cell_centers, 0.05),
        amplitude=1.0,
        corr_length=0.05,
    )
    theory = clutter_covariance(forward, cov)
    snaps = simulate_snapshots(forward, scenario, geometry, cov, 2000, 20260405, "linear")
    # Quadrupling the sample count should roughly halve the error. The
    # estimator spreads wider on this small instance than at full scale
    # (where the acceptance suite pins the [1.4, 2.9] band), so allow slack.
    assert 1.2 <= convergence_ratio(theory, snaps, block_count=4) <= 3.2


def test_closure_reports_are_deterministic():
    geometry, scenario, forward, cov = _setup()
    theory = clutter_covariance(forward, cov)

    def run():
        lin = simulate_snapshots(forward, scenario, geometry, cov, 64, 3, "linear")
        exact = simulate_snapshots(forward, scenario, geometry, cov, 64, 3, "exact")
        return closure_report(theory, lin, exact)

    assert run() == run()


def test_nearest_rank_percentile():
    values = np.arange(1.0, 101.0)
    assert nearest_rank_percentile(values, 0.95) == 95.0
    assert nearest_rank_percentile(values, 1.0) == 100.0
    assert nearest_rank_percentile(np.array([3.0]), 0.95) == 3.0
    with pytest.raises(ConfigError):
        nearest_rank_percentile(np.array([]), 0.95)


def test_validity_scan_monotone_and_recommending():
    geometry, scenario, forward, cov = _setup(sid="S4")
    report = validity_scan(forward, scenario, geometry, cov,
                           sample_count=50, seed=20260405)
    assert report.recommended_s_mu == 4.0
    contrast = np.array(report.p95_contrast_error)
    snapshot = np.array(report.p95_snapshot_error)
    # monotone up to Monte Carlo slack
    assert np.all(contrast[1:] * 1.5 >= contrast[:-1])
    assert np.all(snapshot[1:] * 1.5 >= snapshot[:-1])
    assert contrast[0] < contrast[-1]
    assert snapshot[0] < snapshot[-1]
    # first-order model: p95 snapshot error grows about linearly with s_mu
    slope = np.polyfit(np.log(report.amplitude_grid), np.log(snapshot), 1)[0]
    assert 0.7 <= slope <= 1.5


def test_validity_scan_with_tiny_threshold_recommends_nothing():
    geometry, scenario, forward, cov = _setup(sid="S4")
    report = validity_scan(forward, scenario, geometry, cov,
                           sample_count=20, threshold=1e-9, seed=1)
    assert report.recommended_s_mu is None


def test_validity_scan_grid_validation():
    geometry, scenario, forward, cov = _setup()
    with pytest.raises(ConfigError):
        validity_scan(forward, scenario, geometry, cov, amplitude_grid=())
    with pytest.raises(ConfigError):
        validity_scan(forward, scenario, geometry, cov, amplitude_grid=(1.0, 0.5))
    with pytest.raises(ConfigError):
        validity_scan(forward, scenario, geometry, cov, amplitude_grid=(-1.0, 1.0))


def test_exact_mode_domain_violation_names_the_cell():
    geometry, scenario, forward, _ = _setup(sid="S3", n_x=2, n_z=1)
    samples = np.zeros((1, forward.shape[1]))
    tau_block = slice(2 * geometry.n_cells, 3 * geometry.n_cells)
    samples[0, tau_block] = -scenario.background.tau  # drives tau to zero
    with pytest.raises(DomainError, match="tau"):
        snapshots_from_perturbations(forward, scenario, geometry, samples, "exact")


def test_exact_synthesis_is_invariant_to_the_chunk_budget(monkeypatch):
    geometry, scenario, forward, cov = _setup(sid="S4", n_x=4, n_z=3)
    samples = sample_perturbations(cov, 12, seed=8)

    def run():
        snaps = snapshots_from_perturbations(forward, scenario, geometry, samples, "exact")
        report = validity_scan(forward, scenario, geometry, cov, sample_count=12, seed=8)
        return snaps, report

    snaps, report = run()
    monkeypatch.setattr(montecarlo, "EXACT_CHUNK_VALUES", 1)  # one sample per chunk
    snaps_rows, report_rows = run()
    assert np.max(np.abs(snaps_rows - snaps)) <= 1e-13 * np.max(np.abs(snaps))
    assert np.allclose(report_rows.p95_contrast_error, report.p95_contrast_error,
                       rtol=1e-13, atol=0.0)
    # The snapshot error divides a difference of nearly equal snapshots, so
    # the GEMM's row-count-dependent rounding shows in it magnified; an
    # absolute bound on this dimensionless error still catches any row
    # misplaced between chunks.
    assert np.allclose(report_rows.p95_snapshot_error, report.p95_snapshot_error,
                       rtol=0.0, atol=1e-13)
    assert report_rows.recommended_s_mu == report.recommended_s_mu
