"""Clutter covariance algebra and spectral diagnostics."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gprclutter import (
    GeometryConfig,
    add_noise_floor,
    assemble_forward,
    build_default_geometry,
    build_param_factor,
    build_spatial_factor,
    clutter_covariance,
    get_scenario,
    scenario_registry,
    scale_covariance,
    spectral_summary,
    steering_vector,
    target_overlap,
)
from gprclutter.errors import (
    ConfigError,
    InvariantError,
    UndefinedSpectrumError,
)
from gprclutter.montecarlo import validity_scan
from gprclutter.randfield import (
    SPATIAL_KERNELS,
    PerturbationCovariance,
    SpatialCorrelation,
    build_covariance,
    sample_perturbations,
)
from gprclutter import spectra
from gprclutter.spectra import ClutterCovariance, kernel_gram
from gprclutter.forward import ForwardMatrix, SteeringVector
from oracles import (
    dense_entries,
    dense_spatial_factor,
    jacobi_eigh,
    materialize_full,
    modal_decomposition,
    spatial_eigenpairs,
)


def _toy_setup(n_x=2, n_z=1, rho_c=0.3, amplitude=1.0, corr_length=0.1):
    geometry = build_default_geometry(GeometryConfig(n_tx=2, n_rx=2, n_x=n_x, n_z=n_z))
    scenario = get_scenario("S_syn")
    forward = assemble_forward(scenario, geometry)
    cov = PerturbationCovariance(
        param_factor=build_param_factor(scenario, np.ones(5), rho_c),
        spatial=SpatialCorrelation(build_spatial_factor(geometry.cell_centers, corr_length)),
        amplitude=amplitude,
    )
    return geometry, scenario, forward, cov


def _summary_of(matrix, provenance="theoretical"):
    return spectral_summary(ClutterCovariance(matrix=matrix, provenance=provenance))


def test_zero_amplitude_gives_zero_covariance():
    _, _, forward, cov = _toy_setup(amplitude=0.0)
    result = clutter_covariance(forward, cov)
    assert np.all(result.matrix == 0.0)


def test_blockwise_covariance_matches_dense_oracle():
    # Dense oracle: A (kron form of R_mu) A^H on a materializable instance.
    _, _, forward, cov = _toy_setup(amplitude=1.3)
    fast = clutter_covariance(forward, cov).matrix
    entries = dense_entries(forward)
    dense = entries @ materialize_full(cov) @ entries.conj().T
    assert np.linalg.norm(fast - dense) / np.linalg.norm(dense) < 1e-12


def _assert_matches_dense_oracle(forward, cov, rtol=1e-12):
    # Dense oracle: A (kron form of R_mu) A^H with the assembled operator.
    entries = dense_entries(forward)
    dense = entries @ materialize_full(cov) @ entries.conj().T
    bound = rtol * np.linalg.norm(dense)
    assert np.linalg.norm(clutter_covariance(forward, cov).matrix - dense) <= bound
    assert np.linalg.norm(modal_decomposition(forward, cov).reconstruction - dense) <= bound


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n_tx=st.integers(1, 3),
    n_rx=st.integers(1, 3),
    n_x=st.integers(1, 4),
    n_z=st.integers(1, 4),
    scenario_id=st.sampled_from(sorted(scenario_registry())),
    rho_c=st.floats(0.0, 0.95),
    # Tiny weights make subnormal entries of B, down to underflow.
    weights=st.lists(st.just(0.0) | st.floats(1e-160, 1e-3) | st.floats(1e-3, 3.0),
                     min_size=5, max_size=5),
    corr_length=st.floats(0.02, 0.5),
    kernel=st.sampled_from(SPATIAL_KERNELS),
    log_amplitude=st.floats(-3.0, 3.0),
)
def test_factored_covariance_matches_dense_oracle(
    n_tx, n_rx, n_x, n_z, scenario_id, rho_c, weights, corr_length, kernel, log_amplitude
):
    geometry = build_default_geometry(GeometryConfig(n_tx=n_tx, n_rx=n_rx, n_x=n_x, n_z=n_z))
    scenario = get_scenario(scenario_id)
    cov = build_covariance(scenario, geometry.cell_centers, corr_length, rho_c, weights,
                           amplitude=10.0**log_amplitude, kernel=kernel)
    _assert_matches_dense_oracle(assemble_forward(scenario, geometry), cov)


def test_factored_covariance_matches_dense_oracle_at_default_size(geometry, make_covariance):
    # 8x8 array, 25x21 grid: 5P = 2625, the default size.
    scenario = get_scenario("S4")
    _assert_matches_dense_oracle(
        assemble_forward(scenario, geometry), make_covariance(scenario, geometry))


def test_structural_path_never_assembles_the_dense_operator(geometry, make_covariance):
    scenario = get_scenario("S4")
    forward = assemble_forward(scenario, geometry)
    cov = make_covariance(scenario, geometry)
    summary = spectral_summary(clutter_covariance(forward, cov))
    steering = steering_vector(geometry, scenario, (0.0, 0.0, 0.2625))
    target_overlap(summary, steering, summary.p_rho[0.9])
    assert not hasattr(ForwardMatrix, "entries")
    assert not hasattr(forward, "entries")


def _within(value, reference, rtol=1e-12):
    return np.linalg.norm(value - reference) <= rtol * np.linalg.norm(reference)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n_x=st.integers(1, 6),
    n_z=st.integers(1, 6),
    dx=st.floats(0.005, 0.3),
    dz=st.floats(0.005, 0.3),
    log_corr_length=st.floats(-3.0, 1.0),
    rho_c=st.floats(0.0, 0.95),
    weights=st.lists(st.just(0.0) | st.floats(1e-3, 3.0), min_size=5, max_size=5),
    log_amplitude=st.floats(-3.0, 3.0),
)
def test_separable_covariance_matches_dense_factor(
    n_x, n_z, dx, dz, log_corr_length, rho_c, weights, log_amplitude
):
    geometry = build_default_geometry(
        GeometryConfig(n_tx=2, n_rx=2, n_x=n_x, n_z=n_z, dx=dx, dz=dz))
    scenario = get_scenario("S4")
    corr_length = 10.0**log_corr_length
    separable = build_covariance(scenario, geometry.cell_centers, corr_length, rho_c,
                                 weights, amplitude=10.0**log_amplitude)
    assert len(separable.spatial.factors) == 2
    dense_factor = build_spatial_factor(geometry.cell_centers, corr_length)
    dense = PerturbationCovariance(
        param_factor=separable.param_factor, spatial=SpatialCorrelation(dense_factor),
        amplitude=separable.amplitude)
    forward = assemble_forward(scenario, geometry)
    assert np.abs(dense_spatial_factor(separable) - dense_factor).max() <= 1e-15
    assert _within(clutter_covariance(forward, separable).matrix,
                   clutter_covariance(forward, dense).matrix)
    assert _within(modal_decomposition(forward, separable).reconstruction,
                   modal_decomposition(forward, dense).reconstruction)
    # The sampler's eigen root S = U diag(sqrt(lam)) squares to the dense factor.
    lam, vectors = spatial_eigenpairs(separable)
    root = vectors * np.sqrt(lam)
    assert np.abs(root @ root.T - dense_factor).max() <= 1e-12 * np.abs(dense_factor).max()


def test_default_geometry_never_forms_the_dense_spatial_factor(
    geometry, make_covariance, monkeypatch
):
    cholesky = np.linalg.cholesky

    def refuse(matrix):
        assert matrix.shape[-1] <= 5, "a P x P spatial matrix was factored"
        return cholesky(matrix)

    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    scenario = get_scenario("S4")
    forward = assemble_forward(scenario, geometry)
    cov = make_covariance(scenario, geometry)
    assert [f.shape for f in cov.spatial.factors] == [(25, 25), (21, 21)]
    runs = (
        lambda: clutter_covariance(forward, cov),
        lambda: sample_perturbations(cov, 3, seed=0),
        lambda: validity_scan(forward, cov, amplitude_grid=(0.5, 1.0),
                              sample_count=3, seed=0),
    )
    for run in runs:
        # Each path's traced peak stays below one P x P float matrix.
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * geometry.n_cells**2


def test_kernel_gram_holds_less_than_one_operator(make_covariance):
    # K C K^H is formed in tiles over quarters of K's rows. Full-size K C and
    # conj(K) copies once grew the traced peak by three operators' bytes.
    geometry = build_default_geometry(GeometryConfig(n_x=24, n_z=18))
    scenario = get_scenario("S2")
    forward = assemble_forward(scenario, geometry)
    cov = make_covariance(scenario, geometry)
    kernels = forward.kernels
    direct = spectra._kernel_product(cov.spatial.product, kernels) @ kernels.conj().T
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        gram = kernel_gram(forward, cov)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < kernels.nbytes
    assert np.linalg.norm(gram - direct) <= 1e-14 * np.linalg.norm(direct)


def test_channel_block_sum_equals_direct_product():
    # The explicit five-by-five block sum is a second route to the same matrix.
    _, _, forward, cov = _toy_setup(n_x=3, rho_c=0.6)
    n_cells = forward.n_cells
    entries = dense_entries(forward)
    slow = np.zeros((forward.shape[0], forward.shape[0]), dtype=complex)
    for q in range(5):
        a_q = entries[:, q * n_cells:(q + 1) * n_cells]
        for qp in range(5):
            a_qp = entries[:, qp * n_cells:(qp + 1) * n_cells]
            block = cov.param_factor[q, qp] * cov.spatial.factors[0]
            slow += a_q @ block @ a_qp.conj().T
    slow *= cov.amplitude**2
    fast = clutter_covariance(forward, cov).matrix
    assert np.linalg.norm(fast - slow) / np.linalg.norm(slow) < 1e-12


def test_dimension_mismatch_rejected():
    _, _, forward, _ = _toy_setup()
    _, _, _, other_cov = _toy_setup(n_x=3)
    with pytest.raises(ConfigError):
        clutter_covariance(forward, other_cov)


def test_modal_reconstruction_matches_covariance():
    _, _, forward, cov = _toy_setup(n_x=3, n_z=2)
    modal = modal_decomposition(forward, cov)
    direct = clutter_covariance(forward, cov).matrix
    err = np.linalg.norm(modal.reconstruction - direct) / np.linalg.norm(direct)
    assert err < 1e-10
    assert np.all(modal.mode_weights >= 0.0)
    assert np.all(np.diff(modal.mode_weights) <= 0.0)


def test_rank_one_perturbation_covariance_gives_rank_one_clutter():
    geometry, scenario, forward, _ = _toy_setup(n_x=2)
    direction = np.array([1.0, 0.5, 0.0, 0.0, 0.2])
    cov = PerturbationCovariance(
        param_factor=np.outer(direction, direction),
        spatial=SpatialCorrelation(np.ones((geometry.n_cells, geometry.n_cells))),
        amplitude=1.0,
    )
    modal = modal_decomposition(forward, cov)
    assert modal.mode_weights[0] > 0.0
    assert modal.mode_weights[1] <= 1e-12 * modal.mode_weights[0]
    result = clutter_covariance(forward, cov)
    eigenvalues = np.linalg.eigvalsh(result.matrix)[::-1]
    assert eigenvalues[1] <= 1e-10 * eigenvalues[0]
    lam = modal.mode_weights[0]
    b = modal.modes[:, 0]
    rank_one = lam * np.outer(b, b.conj())
    assert np.linalg.norm(rank_one - result.matrix) / np.linalg.norm(result.matrix) < 1e-10


def test_jacobi_matches_lapack_on_benign_matrices():
    rng = np.random.default_rng(17)
    for _ in range(20):
        raw = rng.standard_normal((5, 5))
        matrix = raw @ raw.T + 0.1 * np.eye(5)
        lam, vec = jacobi_eigh(matrix)
        assert np.allclose(np.sort(lam), np.linalg.eigvalsh(matrix), rtol=1e-12)
        assert np.allclose(vec @ vec.T, np.eye(5), atol=1e-13)
        rebuilt = (vec * lam) @ vec.T
        assert np.allclose(rebuilt, matrix, rtol=0.0,
                           atol=1e-14 * np.abs(matrix).max())


def test_jacobi_keeps_relative_accuracy_on_graded_matrices():
    # The reconstruction error of entry (i, j) must scale with
    # sqrt(a_ii a_jj), not with the largest eigenvalue; this is the
    # property the modal decomposition depends on.
    rng = np.random.default_rng(23)
    scales = np.array([1.0, 1e-4, 1e-8, 1e-12, 1e-16])
    for _ in range(10):
        rho = np.full((5, 5), rng.uniform(0.0, 0.9))
        np.fill_diagonal(rho, 1.0)
        matrix = scales[:, None] * rho * scales[None, :]
        lam, vec = jacobi_eigh(matrix)
        rebuilt = (vec * lam) @ vec.T
        grading = np.sqrt(np.outer(np.diag(matrix), np.diag(matrix)))
        assert np.all(np.abs(rebuilt - matrix) <= 1e-13 * grading)


def test_jacobi_rotates_subnormal_couplings_without_overflow():
    # A weight of 1e-160 leaves a subnormal diagonal entry in B, so the
    # skip threshold of its row underflows to zero and the rotations shrink
    # its couplings until (a_jj - a_ii) / (2 a_ij) would overflow. Numeric
    # warnings are errors in this suite.
    matrix = build_param_factor(get_scenario("S4"), [1e-160, 1, 1, 1, 1], 0.3)
    assert 0.0 < matrix[0, 0] < np.finfo(float).tiny
    lam, vec = jacobi_eigh(matrix)
    assert np.allclose(vec @ vec.T, np.eye(5), atol=1e-13)
    rebuilt = (vec * lam) @ vec.T
    # sqrt(a_ii a_jj) underflows in the subnormal row: bound by the entry there.
    grading = np.sqrt(np.outer(np.diag(matrix), np.diag(matrix)))
    assert np.all(np.abs(rebuilt - matrix) <= 1e-13 * np.maximum(grading, np.abs(matrix)))


def test_flat_spectrum_summary():
    summary = _summary_of(np.eye(64, dtype=complex))
    assert summary.r_eff == pytest.approx(64.0, rel=1e-9)
    assert summary.p_rho[0.9] == 58  # ceil(0.9 * 64)
    assert summary.p_rho[0.95] == 61
    assert summary.trace == pytest.approx(64.0)
    assert abs(summary.normalized_eigenvalues.sum() - 1.0) <= 1e-12


def test_rank_one_summary():
    v = np.ones(8) / math.sqrt(8)
    summary = _summary_of(np.outer(v, v.conj()))
    assert summary.r_eff == pytest.approx(1.0, abs=1e-9)
    assert summary.p_rho[0.9] == 1
    assert summary.p_rho[0.95] == 1


def test_three_mode_summary_matches_hand_entropy():
    # Hand oracle: entropy of {0.7, 0.2, 0.1}.
    entropy = -(0.7 * math.log(0.7) + 0.2 * math.log(0.2) + 0.1 * math.log(0.1))
    expected_r_eff = math.exp(entropy)
    assert expected_r_eff == pytest.approx(2.2296, abs=5e-4)
    summary = _summary_of(np.diag([0.7, 0.2, 0.1]).astype(complex))
    assert summary.r_eff == pytest.approx(expected_r_eff, rel=1e-12)
    assert summary.p_rho[0.9] == 2
    assert summary.p_rho[0.95] == 3


def test_eigenvalues_descending_and_metrics_bounded():
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    matrix = raw @ raw.conj().T / 16
    summary = _summary_of(matrix)
    assert np.all(np.diff(summary.eigenvalues) <= 0.0)
    assert 1.0 <= summary.r_eff <= 16.0
    assert summary.p_rho[0.95] >= summary.p_rho[0.9]


def test_non_hermitian_input_rejected():
    matrix = np.eye(4, dtype=complex)
    matrix[0, 1] = 1e-3
    with pytest.raises(InvariantError):
        _summary_of(matrix)


def test_indefinite_input_rejected():
    with pytest.raises(InvariantError):
        _summary_of(np.diag([1.0, -1e-3]).astype(complex))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_input_rejected(bad):
    # eigh of a NaN matrix would otherwise give r_eff 1.0 without complaint.
    matrix = np.eye(4, dtype=complex)
    matrix[2, 2] = bad
    with pytest.raises(InvariantError, match="non-finite"):
        _summary_of(matrix)


def test_zero_covariance_has_no_spectrum():
    with pytest.raises(UndefinedSpectrumError):
        _summary_of(np.zeros((4, 4), dtype=complex))


def test_overlap_with_own_eigenvectors(geometry):
    scenario = get_scenario("S2")
    forward = assemble_forward(scenario, geometry)
    cov = PerturbationCovariance(
        param_factor=build_param_factor(scenario, np.ones(5), 0.3),
        spatial=SpatialCorrelation(build_spatial_factor(geometry.cell_centers, 0.15)),
        amplitude=1.0,
    )
    summary = spectral_summary(clutter_covariance(forward, cov))

    class _Probe:
        pass

    probe = _Probe()
    probe.values = summary.eigenvectors[:, 0]
    eta, gamma = target_overlap(summary, probe, 1)
    assert eta == pytest.approx(1.0, abs=1e-12)
    assert gamma == pytest.approx(0.0, abs=1e-12)

    probe.values = summary.eigenvectors[:, 5]
    eta, _ = target_overlap(summary, probe, 3)
    assert eta == pytest.approx(0.0, abs=1e-12)

    steering = steering_vector(geometry, scenario, (0.0, 0.0, 0.2625))
    eta, gamma = target_overlap(summary, steering, summary.eigenvectors.shape[0])
    assert eta == pytest.approx(1.0, abs=1e-12)
    assert gamma == pytest.approx(0.0, abs=1e-12)


def test_overlap_with_the_whole_space_never_exceeds_one():
    # With p = MN the basis spans every probe: eta is 1 up to rounding, and
    # rounding must not lift it above 1 (gamma below 0).
    rng = np.random.default_rng(5)
    for size in (2, 3, 4, 6):
        root = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        summary = _summary_of(root @ root.conj().T)
        for _ in range(50):
            probe = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            eta, gamma = target_overlap(summary, SteeringVector(probe / np.linalg.norm(probe)),
                                        size)
            assert eta <= 1.0 and gamma >= 0.0
            assert eta == pytest.approx(1.0, abs=1e-12)


def test_scaling_preserves_normalized_metrics_bitwise():
    _, _, forward, cov = _toy_setup(n_x=3, n_z=2)
    base = clutter_covariance(forward, cov)
    summary = spectral_summary(base)
    for kappa in (0.25, 4.0):
        scaled = spectral_summary(scale_covariance(base, kappa))
        assert scaled.r_eff == summary.r_eff
        assert scaled.p_rho == summary.p_rho
        assert np.array_equal(scaled.normalized_eigenvalues, summary.normalized_eigenvalues)
        assert abs(scaled.trace - kappa * summary.trace) <= 1e-12 * scaled.trace


def test_degenerate_eigenvectors_are_the_same_for_equal_input(make_covariance):
    # At delta_f = 0 every transmit frequency is equal, so the S2 spectrum is
    # degenerate and eigh alone leaves each eigenvector's phase arbitrary.
    geometry = build_default_geometry(GeometryConfig(delta_f=0.0))
    scenario = get_scenario("S2")

    def summary():
        forward = assemble_forward(scenario, geometry)
        return spectral_summary(clutter_covariance(forward, make_covariance(scenario, geometry)))

    first = summary()
    distinct = np.unique(np.round(first.eigenvalues / first.eigenvalues[0], 9))
    assert distinct.size < first.eigenvalues.size
    assert np.array_equal(summary().eigenvectors, first.eigenvectors)


#: Every scenario at the default frequency increment, and S2's degenerate spectrum.
_SPECTRUM_CASES = [(sid, 20e6) for sid in sorted(scenario_registry())] + [("S2", 0.0)]


def _case_covariance(make_covariance, sid, delta_f):
    geometry = build_default_geometry(GeometryConfig(n_x=12, n_z=10, delta_f=delta_f))
    scenario = get_scenario(sid)
    cov = clutter_covariance(assemble_forward(scenario, geometry),
                             make_covariance(scenario, geometry))
    return geometry, scenario, cov


@pytest.mark.parametrize("sid, delta_f", _SPECTRUM_CASES)
def test_eigenvalues_are_eighs_reversed_bit_for_bit(make_covariance, sid, delta_f):
    _, _, cov = _case_covariance(make_covariance, sid, delta_f)
    expected = np.clip(np.linalg.eigh(cov.matrix)[0][::-1], 0.0, None)
    assert spectral_summary(cov).eigenvalues.tobytes() == expected.tobytes()


@pytest.mark.parametrize("sid, delta_f", _SPECTRUM_CASES)
def test_overlap_and_projector_ignore_eigenvector_phases(make_covariance, sid, delta_f):
    # Every output reads the eigenvectors through |U_p^H a|^2 and U_p U_p^H:
    # a unit phase on each column moves neither beyond rounding.
    geometry, scenario, cov = _case_covariance(make_covariance, sid, delta_f)
    summary = spectral_summary(cov)
    vectors = summary.eigenvectors
    phases = np.exp(2j * np.pi * np.random.default_rng(32).random(vectors.shape[1]))
    rotated = dataclasses.replace(summary, eigenvectors=vectors * phases)
    steering = steering_vector(geometry, scenario, (0.0, 0.0, 0.2625))
    for p in sorted({1, *summary.p_rho.values(), vectors.shape[1]}):
        eta, _ = target_overlap(summary, steering, p)
        eta_rotated, _ = target_overlap(rotated, steering, p)
        assert abs(eta_rotated - eta) <= 1e-15
        basis, basis_rotated = vectors[:, :p], rotated.eigenvectors[:, :p]
        projector = basis @ basis.conj().T
        assert np.abs(basis_rotated @ basis_rotated.conj().T - projector).max() <= 1e-15


def test_scaling_composes():
    _, _, forward, cov = _toy_setup()
    base = clutter_covariance(forward, cov)
    twice = scale_covariance(scale_covariance(base, 2.0), 2.0)
    once = scale_covariance(base, 4.0)
    assert np.array_equal(twice.matrix, once.matrix)
    assert np.array_equal(scale_covariance(base, 1.0).matrix, base.matrix)
    for kappa in (0.0, -1.0, math.nan):
        with pytest.raises(ConfigError, match="scale factor"):
            scale_covariance(base, kappa)


def test_noise_floor_vanishes_at_extreme_snr():
    _, _, forward, cov = _toy_setup(n_x=3)
    base = clutter_covariance(forward, cov)
    clean = spectral_summary(base)
    noisy = spectral_summary(add_noise_floor(base, 1e9))
    assert noisy.r_eff == pytest.approx(clean.r_eff, abs=1e-9)
    assert np.allclose(noisy.eigenvalues, clean.eigenvalues, rtol=1e-9)


def test_noise_floor_shift_identity():
    # Shift oracle: eigenvalues move by sigma^2, eigenvectors stay.
    rng = np.random.default_rng(8)
    raw = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    matrix = raw @ raw.conj().T / 6
    base = ClutterCovariance(matrix=matrix, provenance="theoretical")
    snr_db = 10.0
    sigma_sq = base.trace / (6 * 10.0)
    noisy = add_noise_floor(base, snr_db)
    s_base, s_noisy = _summary_of(matrix), spectral_summary(noisy)
    assert np.allclose(s_noisy.eigenvalues, s_base.eigenvalues + sigma_sq, rtol=1e-12)
    overlaps = np.abs(np.sum(s_noisy.eigenvectors.conj() * s_base.eigenvectors, axis=0))
    assert np.allclose(overlaps, 1.0, atol=1e-9)


def test_low_snr_inflates_low_rank_spectrum():
    # Direct-evaluation oracle: 3 equal modes plus a 0 dB floor over 64
    # channels pushes the effective rank above 20.
    eigenvalues = np.zeros(64)
    eigenvalues[:3] = 1.0 / 3.0
    base = ClutterCovariance(matrix=np.diag(eigenvalues).astype(complex),
                             provenance="theoretical")
    noisy = spectral_summary(add_noise_floor(base, 0.0))
    assert spectral_summary(base).r_eff == pytest.approx(3.0, rel=1e-9)
    assert noisy.r_eff > 20.0
    shifted = eigenvalues + 1.0 / 64.0
    nu = shifted / shifted.sum()
    oracle = math.exp(-(nu * np.log(nu)).sum())
    assert noisy.r_eff == pytest.approx(oracle, rel=1e-9)


@pytest.mark.parametrize("snr_db", [-4000.0, math.nan])
def test_noise_floor_overflow_is_a_config_error(snr_db):
    # 10^400 overflows a float: the error names snr_db instead of escaping
    # as a bare OverflowError.
    base = ClutterCovariance(matrix=np.eye(4, dtype=complex), provenance="theoretical")
    with pytest.raises(ConfigError, match="snr_db"):
        add_noise_floor(base, snr_db)


def test_noise_floor_needs_positive_trace():
    base = ClutterCovariance(matrix=np.zeros((4, 4), dtype=complex),
                             provenance="theoretical")
    with pytest.raises(UndefinedSpectrumError):
        add_noise_floor(base, 20.0)


def test_covariance_type_checks():
    with pytest.raises(ConfigError):
        ClutterCovariance(matrix=np.eye(3, dtype=complex), provenance="guesswork")
    with pytest.raises(InvariantError):
        ClutterCovariance(matrix=np.zeros((2, 3), dtype=complex), provenance="theoretical")


def test_summary_serializes_to_json_document():
    import json

    summary = _summary_of(np.diag([0.7, 0.2, 0.1]).astype(complex))
    doc = json.loads(json.dumps(summary.to_dict()))
    assert doc["provenance"] == "theoretical"
    assert doc["r_eff"] == pytest.approx(summary.r_eff, rel=1e-15)
    assert doc["p_rho"] == {"0.9": 2, "0.95": 3}
    assert doc["eigenvalues"] == [0.7, 0.2, 0.1]
    assert sum(doc["normalized_eigenvalues"]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("name", ["eigenvalues", "normalized_eigenvalues", "eigenvectors"])
def test_summary_arrays_are_read_only(name):
    # Experiments share one baseline summary: none of them may change it.
    summary = _summary_of(np.diag([0.7, 0.2, 0.1]).astype(complex))
    array = getattr(summary, name)
    with pytest.raises(ValueError, match="read-only"):
        array[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        array *= 2.0


def test_summary_levels_are_read_only_and_copied():
    levels = {0.9: 2}
    summary = spectral_summary(
        ClutterCovariance(matrix=np.diag([0.7, 0.2, 0.1]).astype(complex),
                          provenance="theoretical"))
    with pytest.raises(TypeError):
        summary.p_rho[0.9] = 1
    eigenvalues = np.array([1.0, 0.0])
    made = type(summary)(eigenvalues=eigenvalues, normalized_eigenvalues=eigenvalues,
                         r_eff=1.0, p_rho=levels, trace=1.0,
                         eigenvectors=np.eye(2, dtype=complex), provenance="theoretical")
    levels[0.9] = 5
    eigenvalues[0] = 3.0
    assert made.p_rho == {0.9: 2} and made.eigenvalues[0] == 1.0


_ARRAY_RECORDS = {
    # A registry scenario is one instance: a copy holds equal values.
    "Scenario": lambda: dataclasses.replace(get_scenario("S_syn")),
    "SceneGeometry": lambda: _toy_setup()[0],
    "ForwardMatrix": lambda: _toy_setup()[2],
    "SteeringVector": lambda: steering_vector(*_toy_setup()[:2], (0.0, 0.0, 0.2)),
    "ClutterCovariance": lambda: clutter_covariance(*_toy_setup()[2:]),
    "SpectralSummary": lambda: spectral_summary(clutter_covariance(*_toy_setup()[2:])),
    "ModalDecomposition": lambda: modal_decomposition(*_toy_setup()[2:]),
}


@pytest.mark.parametrize("make", _ARRAY_RECORDS.values(), ids=_ARRAY_RECORDS.keys())
def test_array_records_compare_by_identity(make):
    # Records holding arrays compare by identity; equal values never raise.
    a, b = make(), make()
    assert (a == a) is True
    assert (a == b) is False
