"""Acceptance suite: one test per criterion, each printing a verdict line.

Heavy artifacts (forward operators, theoretical covariances, Monte Carlo
ensembles) are shared through module-scoped fixtures so the whole suite
stays inside the desk-scale runtime budget.
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    closure_covariances,
    closure_statistic,
    default_covariance,
    record_acceptance,
)
from oracles import (
    dense_entries,
    materialize_full,
    modal_decomposition,
    pseudo_covariance,
    sample_perturbations_dense,
)

from gprclutter import (
    GeometryConfig,
    add_noise_floor,
    assemble_forward,
    build_default_geometry,
    build_param_factor,
    build_spatial_factor,
    clutter_covariance,
    finite_difference_check,
    scale_covariance,
    scenario_registry,
    spectral_summary,
    steering_vector,
    target_overlap,
)
from gprclutter.montecarlo import (
    closure_from_covariances,
    snapshots_from_perturbations,
)
from gprclutter.randfield import PerturbationCovariance, SpatialCorrelation, sample_perturbations

SEED = 20260405
PHYSICAL = ("S1", "S2", "S3", "S4")
REPRESENTATIVE_TARGET = (0.0, 0.0, 0.2625)
#: Band on the closure statistic T (E T = 1): its spread over seeds 1-300 on
#: S1-S4, 0.454-2.266, widened by 1.25 on each side and rounded outward.
T_BAND = (0.35, 2.85)


def _verdict(number: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {number:2d} [{name}]: {'PASS' if ok else 'FAIL'} - {detail}"
    record_acceptance(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def registry():
    return scenario_registry()


@pytest.fixture(scope="module")
def geometry():
    return build_default_geometry()


@pytest.fixture(scope="module")
def default_covariances(registry, geometry):
    """The covariances the CLI builds: build_covariance at the default settings."""
    return {sid: default_covariance(scenario, geometry) for sid, scenario in registry.items()}


def _dense_covariance(scenario, cell_centers):
    """The default covariance with a dense spatial factor, sampled through its Cholesky root."""
    return PerturbationCovariance(
        param_factor=build_param_factor(scenario, np.ones(5), 0.3),
        spatial=SpatialCorrelation(build_spatial_factor(cell_centers, 0.15)),
        amplitude=1.0,
    )


@pytest.fixture(scope="module")
def forwards(registry, geometry):
    return {sid: assemble_forward(scenario, geometry) for sid, scenario in registry.items()}


@pytest.fixture(scope="module")
def theories(forwards, default_covariances):
    return {
        sid: clutter_covariance(forwards[sid], default_covariances[sid])
        for sid in forwards
    }


@pytest.fixture(scope="module")
def summaries(theories):
    return {sid: spectral_summary(theory) for sid, theory in theories.items()}


@pytest.fixture(scope="module")
def closure_results(registry, geometry, forwards, default_covariances, theories, summaries):
    """Closure reports, and the inputs of the statistic T, per physical scenario."""
    started = time.perf_counter()
    reports, statistic_inputs = {}, {}
    for sid in PHYSICAL:
        forward, scenario, cov = forwards[sid], registry[sid], default_covariances[sid]
        # The streamed closure that `gprclutter closure` runs.
        reports[sid] = closure_from_covariances(
            theories[sid],
            summaries[sid],
            *closure_covariances(forward, cov, 2000, SEED),
            sample_count=2000,
        )
        snaps_linear = snapshots_from_perturbations(
            forward, sample_perturbations(cov, 2000, SEED), "linear")
        statistic_inputs[sid] = (theories[sid].matrix, pseudo_covariance(forward, cov),
                                 snaps_linear)
    return reports, statistic_inputs, time.perf_counter() - started


def test_criterion_1_derivative_validation(registry, geometry):
    started = time.perf_counter()
    worst = 0.0
    for scenario in registry.values():
        for freq in geometry.frequencies:
            errors = finite_difference_check(scenario.background, 2 * math.pi * freq)
            worst = max(worst, float(errors.max()))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-5 and elapsed < 5.0
    _verdict(1, "derivative validation", ok,
             f"max rel error {worst:.2e} < 1e-5, runtime {elapsed:.2f}s < 5s")


def test_criterion_2_validity_scan(registry, default_validity_scan):
    # The CLI's scan-validity at the default configuration: seed SEED, 200
    # samples, threshold 0.05, every scenario.
    result, elapsed = default_validity_scan
    reports = result.reports
    assert result.table.provenance["seed"] == SEED
    assert all((r.sample_count, r.threshold) == (200, 0.05) for r in reports.values())
    worst_p95 = 0.0
    recommended_ok = True
    slopes = []
    for report in reports.values():
        worst_p95 = max(worst_p95, max(report.p95_contrast_error),
                        max(report.p95_snapshot_error))
        recommended_ok &= report.recommended_s_mu == 4.0
        slopes.append(np.polyfit(np.log(report.amplitude_grid),
                                 np.log(report.p95_snapshot_error), 1)[0])
    slopes_ok = all(0.7 <= s <= 1.5 for s in slopes)
    ok = (result.ok and set(reports) == set(registry) and worst_p95 < 0.05
          and recommended_ok and slopes_ok and elapsed < 120.0)
    _verdict(2, "validity scan", ok,
             f"worst p95 {worst_p95:.3f} < 0.05, recommended 4.0 everywhere: "
             f"{recommended_ok}, slopes {min(slopes):.2f}..{max(slopes):.2f} in "
             f"[0.7, 1.5], runtime {elapsed:.1f}s < 120s")


def test_criterion_3_covariance_closure(closure_results):
    reports, statistic_inputs, elapsed = closure_results
    eps_ok = all(
        0.005 <= r.eps_cov_lin <= 0.15 and 0.005 <= r.eps_cov_exact <= 0.15
        for r in reports.values()
    )
    gap = max(abs(r.eps_cov_lin - r.eps_cov_exact) for r in reports.values())
    statistics = [closure_statistic(*inputs) for inputs in statistic_inputs.values()]
    t_ok = all(T_BAND[0] <= t <= T_BAND[1] for t in statistics)
    ok = eps_ok and gap < 1e-2 and t_ok and elapsed < 300.0
    eps_range = (min(r.eps_cov_exact for r in reports.values()),
                 max(r.eps_cov_exact for r in reports.values()))
    _verdict(3, "covariance closure", ok,
             f"eps_cov in [{eps_range[0]:.4f}, {eps_range[1]:.4f}] within "
             f"[0.005, 0.15], max |lin-exact| {gap:.1e} < 1e-2, T "
             f"{min(statistics):.2f}..{max(statistics):.2f} in "
             f"[{T_BAND[0]}, {T_BAND[1]}], runtime {elapsed:.0f}s < 300s")


def test_criterion_3_statistic_rejects_a_misscaled_theory(closure_results):
    # A theory 1.3 times too large or 0.8 times too small, R and R~ both
    # scaled, leaves the band at SEED: T is 3.8-4.1 and 3.4-3.7 on S1-S4,
    # against 0.98-1.18 for the true theory.
    _, statistic_inputs, _ = closure_results
    for theory, pseudo, snaps_linear in statistic_inputs.values():
        for scale in (1.3, 0.8):
            t = closure_statistic(scale * theory, scale * pseudo, snaps_linear)
            assert t > T_BAND[1], (scale, t)


def test_criterion_4_exact_algebraic_identities(registry, geometry, forwards,
                                                default_covariances):
    forward = forwards["S2"]
    cov = default_covariances["S2"]
    entries = dense_entries(forward)
    dense = entries @ materialize_full(cov) @ entries.conj().T
    dense_norm = np.linalg.norm(dense)
    block_err = np.linalg.norm(
        clutter_covariance(forward, cov).matrix - dense) / dense_norm
    modal_err = np.linalg.norm(
        modal_decomposition(forward, cov).reconstruction - dense) / dense_norm

    # 12-cell subgrid (4 x 3 patch of the default grid) with a dense spatial
    # factor: the check compares the Kronecker Cholesky sampler with the
    # Cholesky factor of the materialized R_mu. Agreement between the two
    # factorization routes is floating-point-limited and degrades with the
    # spatial factor's conditioning; the patch keeps it benign.
    n_x, n_z = geometry.grid_dims
    patch = geometry.cell_centers.reshape(n_x, n_z, 3)[:4, :3].reshape(-1, 3)
    small = _dense_covariance(registry["S_syn"], patch)
    kron_samples = sample_perturbations(small, 32, seed=SEED)
    dense_samples = sample_perturbations_dense(small, 32, seed=SEED)
    sampler_err = (np.linalg.norm(kron_samples - dense_samples)
                   / np.linalg.norm(kron_samples))

    ok = block_err < 1e-10 and modal_err < 1e-10 and sampler_err < 1e-10
    _verdict(4, "exact algebraic identities", ok,
             f"block {block_err:.1e} and modal {modal_err:.1e} < 1e-10 at 5P=2625, "
             f"kron-vs-dense sampler {sampler_err:.1e} at P=12")


def test_criterion_5_structural_invariants(registry, geometry, forwards,
                                           theories, summaries):
    herm_ok = psd_ok = bounds_ok = overlap_ok = True
    size = geometry.n_tx * geometry.n_rx
    for sid, theory in theories.items():
        matrix = theory.matrix
        herm_ok &= bool(
            np.abs(matrix - matrix.conj().T).max() <= 1e-12 * np.abs(matrix).max())
        summary = summaries[sid]
        psd_ok &= bool(summary.eigenvalues.min() >= -1e-10 * summary.eigenvalues.max())
        bounds_ok &= 1.0 <= summary.r_eff <= size
        bounds_ok &= summary.p_rho[0.95] >= summary.p_rho[0.9]
        steering = steering_vector(geometry, registry[sid], REPRESENTATIVE_TARGET)
        eta, gamma = target_overlap(summary, steering, summary.p_rho[0.9])
        overlap_ok &= abs(gamma - (1.0 - eta)) <= 1e-12

    # Rank-one B and C (all ones, no nugget) give a rank-one clutter
    # covariance; build_covariance builds no such C, so it is given dense.
    direction = np.array([1.0, 0.4, 0.0, 0.1, 0.2])
    rank_one = PerturbationCovariance(
        param_factor=np.outer(direction, direction),
        spatial=SpatialCorrelation(np.ones((geometry.n_cells, geometry.n_cells))),
        amplitude=1.0,
    )
    eig = np.linalg.eigvalsh(clutter_covariance(forwards["S2"], rank_one).matrix)
    rank_one_ok = eig[-2] <= 1e-10 * eig[-1]

    ok = herm_ok and psd_ok and bounds_ok and overlap_ok and rank_one_ok
    _verdict(5, "structural invariants", ok,
             f"hermitian {herm_ok}, psd {psd_ok}, metric bounds {bounds_ok}, "
             f"gamma=1-eta {overlap_ok}, rank-1 propagation {rank_one_ok}")


def test_criterion_6_scaling_boundary(registry, geometry, theories, summaries):
    ok = True
    details = []
    for sid in ("S2", "S4"):
        base_summary = summaries[sid]
        steering = steering_vector(geometry, registry[sid], REPRESENTATIVE_TARGET)
        base_eta, _ = target_overlap(base_summary, steering, base_summary.p_rho[0.9])
        for kappa in (0.25, 1.0, 4.0):
            scaled = spectral_summary(scale_covariance(theories[sid], kappa))
            eta, _ = target_overlap(scaled, steering, scaled.p_rho[0.9])
            ok &= scaled.r_eff == base_summary.r_eff
            ok &= scaled.p_rho == base_summary.p_rho
            ok &= eta == base_eta
            ok &= abs(scaled.trace - kappa * base_summary.trace) <= 1e-12 * scaled.trace
        details.append(f"{sid} bit-identical over kappa, trace linear")
    _verdict(6, "scaling boundary", ok, "; ".join(details))


def test_criterion_7_noise_boundary(registry, geometry, theories, summaries):
    ok = True
    details = []
    size = geometry.n_tx * geometry.n_rx
    for sid in ("S2", "S4"):
        clean = summaries[sid]
        steering = steering_vector(geometry, registry[sid], REPRESENTATIVE_TARGET)
        eta_clean, _ = target_overlap(clean, steering, clean.p_rho[0.9])

        loud = spectral_summary(add_noise_floor(theories[sid], 0.0))
        ok &= loud.r_eff > 3.0 * clean.r_eff
        ok &= loud.p_rho[0.9] >= 0.7 * size

        quiet = spectral_summary(add_noise_floor(theories[sid], 20.0))
        eta_quiet, _ = target_overlap(quiet, steering, quiet.p_rho[0.9])
        ok &= abs(quiet.r_eff - clean.r_eff) / clean.r_eff < 0.25
        ok &= abs(eta_quiet - eta_clean) < 0.02
        details.append(
            f"{sid}: 0dB r_eff {loud.r_eff:.1f} > 3x{clean.r_eff:.2f}, "
            f"p09 {loud.p_rho[0.9]} >= {0.7 * size:.0f}; 20dB r_eff drift "
            f"{abs(quiet.r_eff - clean.r_eff) / clean.r_eff:.3f}, eta drift "
            f"{abs(eta_quiet - eta_clean):.1e}")
    _verdict(7, "noise boundary", ok, "; ".join(details))


def test_criterion_8_correlation_length_trend(registry, geometry, forwards):
    scenario = registry["S2"]
    r_effs, p09s = [], []
    for corr_length in (0.05, 0.10, 0.20, 0.40):
        cov = default_covariance(scenario, geometry, corr_length=corr_length)
        summary = spectral_summary(clutter_covariance(forwards["S2"], cov))
        r_effs.append(summary.r_eff)
        p09s.append(summary.p_rho[0.9])
    decreasing = all(a > b for a, b in zip(r_effs, r_effs[1:]))
    nonincreasing = all(a >= b for a, b in zip(p09s, p09s[1:]))
    ok = decreasing and nonincreasing
    _verdict(8, "correlation-length trend", ok,
             f"r_eff {['%.2f' % r for r in r_effs]} strictly decreasing: {decreasing}, "
             f"p09 {p09s} nonincreasing: {nonincreasing}")


def test_criterion_9_coupling_is_secondary(registry, geometry, forwards):
    scenario = registry["S_balance"]
    forward = forwards["S_balance"]

    def r_eff_of(weights, rho_c):
        cov = default_covariance(scenario, geometry, weights=weights, rho_c=rho_c)
        return spectral_summary(clutter_covariance(forward, cov)).r_eff

    uncoupled = r_eff_of(np.ones(5), 0.0)
    coupled = r_eff_of(np.ones(5), 0.9)
    rho_change = abs(coupled - uncoupled) / uncoupled

    presets = {
        "uniform": np.ones(5),
        "permittivity": np.array([2.0, 1, 1, 1, 1]),
        "relaxation": np.array([1, 1, 2.0, 1, 1]),
        "conductivity": np.array([1, 1, 1, 1, 2.0]),
    }
    values = [r_eff_of(weights, 0.3) for weights in presets.values()]
    weight_spread = (max(values) - min(values)) / min(values)

    ok = rho_change < 0.05 and weight_spread < 0.05
    _verdict(9, "coupling is secondary", ok,
             f"rho 0 -> 0.9 changes r_eff by {rho_change:.2e} < 5%, weight presets "
             f"spread {weight_spread:.2e} < 5%")


def test_criterion_10_fda_sensitivity(registry):
    ok = True
    details = []
    for sid in PHYSICAL:
        scenario = registry[sid]
        metrics = {}
        for delta_f in (0.0, 40e6):
            geometry = build_default_geometry(GeometryConfig(delta_f=delta_f))
            forward = assemble_forward(scenario, geometry)
            cov = default_covariance(scenario, geometry)
            summary = spectral_summary(clutter_covariance(forward, cov))
            steering = steering_vector(geometry, scenario, REPRESENTATIVE_TARGET)
            eta, _ = target_overlap(summary, steering, summary.p_rho[0.9])
            metrics[delta_f] = (summary.r_eff, eta)
        r0, eta0 = metrics[0.0]
        r40, eta40 = metrics[40e6]
        change = max(abs(r40 - r0) / r0, abs(eta40 - eta0) / max(eta0, 1e-30))
        ok &= change > 0.05
        ok &= eta40 < eta0
        details.append(f"{sid}: change {change:.2f}, eta {eta0:.3f} -> {eta40:.3f}")
    _verdict(10, "FDA sensitivity", ok, "; ".join(details))
