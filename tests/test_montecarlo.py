"""Snapshot synthesis, covariance closure, validity scan."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gprclutter import (
    GeometryConfig,
    assemble_forward,
    build_default_geometry,
    clutter_covariance,
    exact_contrast,
    get_scenario,
    montecarlo,
    scenario_registry,
)
from gprclutter.constitutive import DENOMINATOR_FLOOR, exact_contrast_field
from gprclutter.errors import ConfigError, DomainError, TauFloorError, UndefinedSpectrumError
from gprclutter.montecarlo import (
    SNAPSHOT_MODES,
    NearestRankSelector,
    closure_covariances,
    closure_from_covariances,
    nearest_rank_percentile,
    sample_covariance,
    shared_closure_covariances,
    snapshots_from_perturbations,
    validity_scan,
)
from gprclutter.randfield import (
    PerturbationCovariance,
    build_covariance,
    build_param_factor,
    build_spatial_factor,
    sample_perturbations,
)
from gprclutter.spectra import ClutterCovariance
from conftest import closure_statistic
from oracles import green_kernel, pseudo_covariance


def _setup(sid="S_syn", n_x=3, n_z=2, amplitude=1.0, corr_length=0.1):
    geometry = build_default_geometry(GeometryConfig(n_tx=2, n_rx=2, n_x=n_x, n_z=n_z))
    scenario = get_scenario(sid)
    forward = assemble_forward(scenario, geometry)
    cov = PerturbationCovariance(
        param_factor=build_param_factor(scenario, np.ones(5), 0.3),
        spatial_factor=build_spatial_factor(geometry.cell_centers, corr_length),
        amplitude=amplitude,
    )
    return geometry, scenario, forward, cov


def test_zero_amplitude_gives_zero_snapshots():
    geometry, scenario, forward, cov = _setup(amplitude=0.0)
    samples = sample_perturbations(cov, 5, 1)
    for mode in SNAPSHOT_MODES:
        snaps = snapshots_from_perturbations(forward, scenario, geometry, samples, mode)
        assert np.all(snaps == 0.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n_tx=st.integers(1, 3),
    n_rx=st.integers(1, 3),
    n_x=st.integers(1, 4),
    n_z=st.integers(1, 4),
    scenario_id=st.sampled_from(sorted(scenario_registry())),
    # "separable" is C_x (x) C_z + nugget; the kernel names are dense P x P factors.
    structure=st.sampled_from(("separable", "squared_exponential", "exponential")),
    rho_c=st.floats(0.0, 0.95),
    corr_length=st.floats(0.02, 0.5),
    log_amplitude=st.floats(-3.0, 3.0),
    count=st.integers(1, 40),
    seed=st.integers(0, 2**32),
)
def test_linear_snapshots_match_the_dense_operator(
    n_tx, n_rx, n_x, n_z, scenario_id, structure, rho_c, corr_length, log_amplitude, count,
    seed,
):
    geometry = build_default_geometry(GeometryConfig(n_tx=n_tx, n_rx=n_rx, n_x=n_x, n_z=n_z))
    scenario = get_scenario(scenario_id)
    amplitude = 10.0**log_amplitude
    if structure == "separable":
        cov = build_covariance(scenario, geometry.cell_centers, corr_length, rho_c,
                               np.ones(5), amplitude)
        assert cov.spatial_axes is not None
    else:
        cov = PerturbationCovariance(
            param_factor=build_param_factor(scenario, np.ones(5), rho_c),
            spatial_factor=build_spatial_factor(geometry.cell_centers, corr_length, structure),
            amplitude=amplitude,
        )
    forward = assemble_forward(scenario, geometry)
    samples = sample_perturbations(cov, count, seed)
    linear = snapshots_from_perturbations(forward, scenario, geometry, samples, "linear")
    oracle = samples @ forward.entries.T
    assert np.linalg.norm(linear - oracle) <= 1e-14 * np.linalg.norm(oracle)


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
    samples = sample_perturbations(cov, 2, 0)
    with pytest.raises(ConfigError, match="unknown snapshot mode"):
        snapshots_from_perturbations(forward, scenario, geometry, samples, "hybrid")
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


def test_closure_rejects_degenerate_inputs(monkeypatch):
    geometry, scenario, forward, cov = _setup()
    theory = clutter_covariance(forward, cov)
    zero = ClutterCovariance(matrix=np.zeros_like(theory.matrix), provenance="theoretical")
    sampled = np.zeros_like(theory.matrix)
    with pytest.raises(UndefinedSpectrumError):
        closure_from_covariances(zero, sampled, sampled, sample_count=5)

    def never(*args, **kwargs):
        raise AssertionError("drew samples")

    monkeypatch.setattr(montecarlo, "standard_normal_draws", never)
    with pytest.raises(ConfigError, match="at least two"):
        closure_covariances(forward, scenario, geometry, cov, 1, 0)


def test_monte_carlo_paths_refuse_a_forward_of_another_geometry():
    # A forward assembled at the default delta_f, used with a delta_f = 0
    # geometry of the same shapes, would give exact snapshots at frequencies
    # its kernels were not built for.
    config = GeometryConfig(n_tx=2, n_rx=2, n_x=3, n_z=2)
    assembled_on = build_default_geometry(config)
    geometry = build_default_geometry(dataclasses.replace(config, delta_f=0.0))
    scenario = get_scenario("S4")
    forward = assemble_forward(scenario, assembled_on)
    cov = build_covariance(scenario, geometry.cell_centers, 0.15, 0.3, np.ones(5), 1.0)
    samples = sample_perturbations(cov, 4, 1)
    names_both = f"{assembled_on.fingerprint()}, used with geometry {geometry.fingerprint()}"
    for mode in SNAPSHOT_MODES:
        with pytest.raises(ConfigError, match=names_both):
            snapshots_from_perturbations(forward, scenario, geometry, samples, mode)
    with pytest.raises(ConfigError, match=names_both):
        validity_scan(forward, scenario, geometry, cov, sample_count=4)
    with pytest.raises(ConfigError, match=names_both):
        closure_covariances(forward, scenario, geometry, cov, 4, 0)
    # In a shared stream only the mismatched model drops out.
    matched = assemble_forward(scenario, geometry)
    kept, dropped = shared_closure_covariances(
        [(matched, scenario, cov), (forward, scenario, cov)], geometry, 4, 0)
    assert isinstance(dropped, ConfigError) and names_both in str(dropped)
    solo = closure_covariances(matched, scenario, geometry, cov, 4, 0)
    assert [a.tobytes() for a in kept] == [a.tobytes() for a in solo]
    # A covariance over another cell count is refused too.
    other = build_covariance(scenario, assembled_on.cell_centers[:4], 0.15, 0.3, np.ones(5), 1.0)
    with pytest.raises(ConfigError, match="covariance of dimension 20, not 5 x 6 cells"):
        closure_covariances(matched, scenario, geometry, other, 4, 0)


def test_monte_carlo_paths_refuse_a_forward_of_another_background():
    # A forward assembled for S1 and used with S4 once gave this validity
    # scan p95 contrast errors of about 76, and no error.
    geometry = build_default_geometry(GeometryConfig(n_tx=2, n_rx=2, n_x=4, n_z=3))
    s1, s4 = get_scenario("S1"), get_scenario("S4")
    forward = assemble_forward(s1, geometry)
    cov = build_covariance(s4, geometry.cell_centers, 0.15, 0.3, np.ones(5), 1.0)
    names_both = rf"background {re.escape(str(s1.background))}, used with scenario S4 " \
        rf"of background {re.escape(str(s4.background))}"
    with pytest.raises(ConfigError, match=names_both):
        validity_scan(forward, s4, geometry, cov, sample_count=4)
    for mode in SNAPSHOT_MODES:
        with pytest.raises(ConfigError, match=names_both):
            snapshots_from_perturbations(forward, s4, geometry, sample_perturbations(cov, 2, 1),
                                         mode)
    kept, dropped = shared_closure_covariances(
        [(assemble_forward(s4, geometry), s4, cov), (forward, s4, cov)], geometry, 4, 0)
    assert isinstance(kept, tuple) and isinstance(dropped, ConfigError)


def test_closure_error_shrinks_like_root_sample_count():
    geometry = build_default_geometry(GeometryConfig(n_tx=6, n_rx=6, n_x=6, n_z=4))
    scenario = get_scenario("S_syn")
    forward = assemble_forward(scenario, geometry)
    cov = PerturbationCovariance(
        param_factor=build_param_factor(scenario, np.ones(5), 0.3),
        spatial_factor=build_spatial_factor(geometry.cell_centers, 0.05),
        amplitude=1.0,
    )
    theory = clutter_covariance(forward, cov).matrix
    samples = sample_perturbations(cov, 2000, 20260405)
    snaps = snapshots_from_perturbations(forward, scenario, geometry, samples, "linear")
    # The squared error of 125-snapshot sample covariances has mean
    # ((tr R)^2 + ||R~||^2) / 125, so T has mean 1. The band is T's spread
    # over seeds 1-300 here, 0.595-1.688, widened by 1.25 on each side and
    # rounded outward, as for acceptance criterion 3.
    t = closure_statistic(theory, pseudo_covariance(forward, cov), snaps)
    assert 0.45 <= t <= 2.15


def test_closure_reports_are_deterministic():
    geometry, scenario, forward, cov = _setup()
    theory = clutter_covariance(forward, cov)

    def run():
        rhats = closure_covariances(forward, scenario, geometry, cov, 64, 3)
        return closure_from_covariances(theory, *rhats, sample_count=64)

    assert run() == run()


def test_nearest_rank_percentile():
    values = np.arange(1.0, 101.0)
    assert nearest_rank_percentile(values, 0.95) == 95.0
    assert nearest_rank_percentile(values, 1.0) == 100.0
    assert nearest_rank_percentile(np.array([3.0]), 0.95) == 3.0
    with pytest.raises(ConfigError):
        nearest_rank_percentile(np.array([]), 0.95)


_SELECTOR_VALUES = st.one_of(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=400),
    # Many ties.
    st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=400),
    # Constant arrays, size 1 among them.
    st.tuples(st.floats(-1e6, 1e6), st.integers(1, 400)).map(lambda t: [t[0]] * t[1]),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    values=_SELECTOR_VALUES,
    q=st.floats(0.0, 1.0, exclude_min=True),
    cuts=st.lists(st.integers(0, 400), max_size=10),
)
def test_streaming_selector_equals_a_sorted_nearest_rank(values, q, cuts):
    values = np.asarray(values)
    expected = np.sort(values)[max(math.ceil(q * values.size), 1) - 1]
    selector = NearestRankSelector(values.size, q)
    for chunk in np.split(values, sorted(c % (values.size + 1) for c in cuts)):
        selector.add(chunk)
    assert selector.value() == expected
    assert nearest_rank_percentile(values, q) == expected


def test_streaming_selector_checks_its_count_and_level():
    selector = NearestRankSelector(3, 0.95)
    selector.add([1.0, 2.0])
    with pytest.raises(ConfigError, match="announced"):
        selector.value()
    with pytest.raises(ConfigError, match="announced"):
        selector.add([3.0, 4.0])
    for q in (-0.1, 1.5, math.nan):
        with pytest.raises(ConfigError, match="level"):
            NearestRankSelector(3, q)
    with pytest.raises(ConfigError, match="empty"):
        NearestRankSelector(0, 0.95)


def test_validity_scan_never_holds_the_contrast_error_pool():
    # 16 frequencies make the L N P contrast errors (8 L N P bytes as floats)
    # outweigh the (L, 5P) base samples (40 L P bytes). The errors stream
    # into the selector chunk by chunk, so the traced peak stays below the
    # pool that holding them all would take.
    geometry = build_default_geometry(GeometryConfig(n_tx=16, n_rx=2))
    scenario = get_scenario("S4")
    forward = assemble_forward(scenario, geometry)
    cov = build_covariance(scenario, geometry.cell_centers, 0.15, 0.3, np.ones(5), 1.0)
    count = 400
    pool = 8 * count * geometry.frequencies.size * geometry.n_cells
    tracemalloc.start()
    try:
        validity_scan(forward, scenario, geometry, cov, amplitude_grid=(0.5,),
                      sample_count=count, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert geometry.frequencies.size == 16
    assert peak < pool


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


@pytest.mark.parametrize("block", [None, 10], ids=["default-budget", "binding-budget"])
def test_streamed_closure_covariances_match_the_full_snapshot_arrays(monkeypatch, block):
    # L = 150 streams as blocks of 64, 64 and 22 samples, or with a byte
    # budget of 10 samples as 15 blocks of 10.
    geometry, scenario, forward, cov = _setup(sid="S4", n_x=4, n_z=3)
    if block is not None:
        monkeypatch.setattr(montecarlo, "SAMPLE_BLOCK_BYTES", block * 8 * cov.dim)
    samples = sample_perturbations(cov, 150, seed=11)
    streamed = closure_covariances(forward, scenario, geometry, cov, 150, 11)
    for mode, rhat in zip(SNAPSHOT_MODES, streamed):
        snapshots = snapshots_from_perturbations(forward, scenario, geometry, samples, mode)
        full = sample_covariance(snapshots)
        assert np.array_equal(rhat, rhat.conj().T)
        assert np.linalg.norm(rhat - full) <= 1e-13 * np.linalg.norm(full)


def _validity_reference(forward, scenario, geometry, cov, grid, count, seed):
    """p95 contrast and snapshot errors from full (L, 5P) and (L, N, P) arrays."""
    base = sample_perturbations(cov.with_amplitude(1.0), count, seed)
    per_channel = base.reshape(count, 5, geometry.n_cells)
    omegas = 2.0 * np.pi * geometry.frequencies
    linear = np.matmul(forward.sensitivities.T, per_channel)
    y_lin = snapshots_from_perturbations(forward, scenario, geometry, base, "linear")
    p95_contrast, p95_snapshot = [], []
    for s in grid:
        delta = (s * per_channel).transpose(1, 0, 2)[:, :, None, :]
        exact = exact_contrast_field(scenario.background, delta, omegas[:, None])
        err = np.abs(exact - s * linear) / np.maximum(np.abs(exact), DENOMINATOR_FLOOR)
        p95_contrast.append(nearest_rank_percentile(err, 0.95))
        y_exact = snapshots_from_perturbations(forward, scenario, geometry, s * base, "exact")
        rel = np.linalg.norm(y_exact - s * y_lin, axis=1) / np.maximum(
            np.linalg.norm(y_exact, axis=1), DENOMINATOR_FLOOR)
        p95_snapshot.append(nearest_rank_percentile(rel, 0.95))
    return p95_contrast, p95_snapshot


@pytest.mark.parametrize("sid", ["S1", "S4"])
def test_streamed_validity_scan_matches_a_full_array_reference(sid):
    geometry, scenario, forward, cov = _setup(sid=sid, n_x=4, n_z=3)
    report = validity_scan(forward, scenario, geometry, cov, sample_count=150, seed=4)
    contrast, snapshot = _validity_reference(
        forward, scenario, geometry, cov, report.amplitude_grid, 150, 4)
    assert np.allclose(report.p95_contrast_error, contrast, rtol=1e-12, atol=0.0)
    # Snapshot errors divide differences of nearly equal snapshots (see the
    # chunk-budget test): bound them absolutely.
    assert np.allclose(report.p95_snapshot_error, snapshot, rtol=0.0, atol=1e-13)


def _tau_floor_hit(monkeypatch, scenario, geometry, sample, cell):
    """Streamed draws in 15-sample exact chunks, with tau of one sample at one cell at 0."""
    monkeypatch.setattr(
        montecarlo, "EXACT_CHUNK_VALUES", 15 * geometry.frequencies.size * geometry.n_cells)
    draw, mix, sample_all = (
        montecarlo.standard_normal_draws, montecarlo._mix, montecarlo.sample_perturbations)
    starts = []

    def hit(samples, start):
        if start <= sample < start + samples.shape[0]:
            samples[sample - start, 2 * geometry.n_cells + cell] = -scenario.background.tau
        return samples

    def drawing(dim, count, seed, *, start=0):
        starts.append(start)
        return draw(dim, count, seed, start=start)

    # Closure mixes each drawn block itself; the scan draws whole samples.
    monkeypatch.setattr(montecarlo, "standard_normal_draws", drawing)
    monkeypatch.setattr(montecarlo, "_mix", lambda cov, normals: hit(mix(cov, normals), starts[-1]))
    monkeypatch.setattr(montecarlo, "sample_perturbations",
                        lambda cov, count, seed, *, start=0:
                        hit(sample_all(cov, count, seed, start=start), start))


@pytest.mark.parametrize(
    ("count", "sample", "closure_rows", "scan_rows"),
    [(40, 17, "15..29", "15..29"), (100, 70, "64..78", "60..74")],
)
def test_tau_floor_error_names_the_ensemble_sample(
    monkeypatch, count, sample, closure_rows, scan_rows
):
    # Closure chunks each 64-sample block; the scan chunks the whole base.
    geometry, scenario, forward, cov = _setup(sid="S4", n_x=4, n_z=3)
    _tau_floor_hit(monkeypatch, scenario, geometry, sample, 9)
    with pytest.raises(TauFloorError) as closure_error:
        closure_covariances(forward, scenario, geometry, cov, count, 3)
    with pytest.raises(TauFloorError) as scan_error:
        validity_scan(forward, scenario, geometry, cov, amplitude_grid=(1.0,),
                      sample_count=count, seed=3)
    for error, rows in ((closure_error.value, closure_rows), (scan_error.value, scan_rows)):
        assert error.index == (sample, 0, 9)
        assert str(error).startswith(f"samples {rows}: perturbed tau at index ({sample}, 0, 9)")
