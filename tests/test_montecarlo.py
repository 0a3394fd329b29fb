"""Snapshot synthesis, covariance closure, validity scan."""

import dataclasses
import math
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
    get_scenario,
    montecarlo,
    randfield,
    scenario_registry,
    steering_vector,
)
from gprclutter.constitutive import DENOMINATOR_FLOOR, exact_contrast_field
from gprclutter.errors import (
    ConfigError,
    DomainError,
    NonFiniteError,
    NonPositiveDefiniteError,
    TauFloorError,
    UndefinedSpectrumError,
)
from gprclutter.montecarlo import (
    SNAPSHOT_MODES,
    NearestRankSelector,
    closure_from_covariances,
    nearest_rank_percentile,
    sample_covariance,
    shared_closure_covariances,
    snapshots_from_perturbations,
    validity_scan,
)
from gprclutter.randfield import (
    PerturbationCovariance,
    SpatialCorrelation,
    build_covariance,
    build_param_factor,
    build_spatial_factor,
    row_slices,
    sample_perturbations,
    spatial_correlation,
)
from gprclutter.spectra import ClutterCovariance
from conftest import closure_covariances, closure_statistic
from oracles import dense_entries, exact_contrast, green_kernel, pseudo_covariance


def _setup(sid="S_syn", n_x=3, n_z=2, amplitude=1.0, corr_length=0.1):
    geometry = build_default_geometry(GeometryConfig(n_tx=2, n_rx=2, n_x=n_x, n_z=n_z))
    scenario = get_scenario(sid)
    forward = assemble_forward(scenario, geometry)
    cov = PerturbationCovariance(
        param_factor=build_param_factor(scenario, np.ones(5), 0.3),
        spatial=SpatialCorrelation(build_spatial_factor(geometry.cell_centers, corr_length)),
        amplitude=amplitude,
    )
    return geometry, scenario, forward, cov


def test_zero_amplitude_gives_zero_snapshots():
    geometry, scenario, forward, cov = _setup(amplitude=0.0)
    samples = sample_perturbations(cov, 5, 1)
    for mode in SNAPSHOT_MODES:
        snaps = snapshots_from_perturbations(forward, samples, mode)
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
        assert len(cov.spatial.factors) == 2
    else:
        cov = PerturbationCovariance(
            param_factor=build_param_factor(scenario, np.ones(5), rho_c),
            spatial=SpatialCorrelation(
                build_spatial_factor(geometry.cell_centers, corr_length, structure)),
            amplitude=amplitude,
        )
    forward = assemble_forward(scenario, geometry)
    samples = sample_perturbations(cov, count, seed)
    linear = snapshots_from_perturbations(forward, samples, "linear")
    oracle = samples @ dense_entries(forward).T
    assert np.linalg.norm(linear - oracle) <= 1e-14 * np.linalg.norm(oracle)


def test_eps_inf_only_perturbations_are_linearized_exactly():
    # The permittivity is affine in eps_inf, so both modes must agree.
    geometry, scenario, forward, _ = _setup()
    rng = np.random.default_rng(2)
    samples = np.zeros((8, forward.shape[1]))
    samples[:, :geometry.n_cells] = 0.05 * rng.standard_normal((8, geometry.n_cells))
    lin = snapshots_from_perturbations(forward, samples, "linear")
    exact = snapshots_from_perturbations(forward, samples, "exact")
    assert np.linalg.norm(exact - lin) / np.linalg.norm(exact) < 1e-12


@pytest.mark.parametrize("delta_f", [GeometryConfig().delta_f, 0.0],
                         ids=["default-delta_f", "zero-delta_f"])
def test_exact_mode_matches_hand_rolled_loop(delta_f):
    # Brute-force oracle: loop over cells and channels with scalar calls,
    # the contrast through the complex-power core, at the frequencies of the
    # forward's own geometry. At delta_f = 0 both transmits share f0, so
    # exact snapshots evaluated at any other frequencies miss it.
    _, scenario, _, cov = _setup(sid="S4", n_x=2, n_z=1)
    forward = assemble_forward(scenario, build_default_geometry(
        GeometryConfig(n_tx=2, n_rx=2, n_x=2, n_z=1, delta_f=delta_f)))
    geometry = forward.geometry
    samples = sample_perturbations(cov, 1, seed=5)
    fast = snapshots_from_perturbations(forward, samples, "exact")[0]
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
        snapshots_from_perturbations(forward, samples, "hybrid")
    with pytest.raises(ConfigError):
        snapshots_from_perturbations(forward, np.zeros((2, 7)), "linear")


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


@pytest.mark.parametrize("sid", ["S1", "S4", "S_syn"])
def test_closure_of_covariances_whose_squares_underflow_keeps_its_values(sid):
    # Scaled by 2^-900, every entry's square underflows in double precision
    # and the theory once read as zero. Each norm of closure is scaled by a
    # power of two first, so both eps_cov keep their bits. eigh rescales a
    # matrix this small by a factor that is not a power of two, so the
    # spectra move by rounding: eps_lambda and eps_sub by at most 2.1e-14.
    geometry, scenario, forward, cov = _setup(sid)
    theory = clutter_covariance(forward, cov)
    rhats = closure_covariances(forward, cov, 64, 3)
    tiny = ClutterCovariance(matrix=theory.matrix * 2.0**-900, provenance=theory.provenance)
    assert np.linalg.norm(tiny.matrix) == 0.0
    report = closure_from_covariances(theory, *rhats, sample_count=64)
    scaled = closure_from_covariances(tiny, *(r * 2.0**-900 for r in rhats), sample_count=64)
    assert scaled == dataclasses.replace(
        report, eps_lambda=scaled.eps_lambda, eps_sub=scaled.eps_sub)
    assert scaled.eps_lambda == pytest.approx(report.eps_lambda, rel=1e-12)
    assert scaled.eps_sub == pytest.approx(report.eps_sub, rel=1e-12)


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
        closure_covariances(forward, cov, 1, 0)
    # A covariance over another cell count is refused before the first draw.
    other = build_covariance(scenario, geometry.cell_centers[:4], 0.15, 0.3, np.ones(5), 1.0)
    with pytest.raises(ConfigError, match="covariance of dimension 20, not 5 x 6 cells"):
        closure_covariances(forward, other, 4, 0)


def test_closure_error_shrinks_like_root_sample_count():
    geometry = build_default_geometry(GeometryConfig(n_tx=6, n_rx=6, n_x=6, n_z=4))
    scenario = get_scenario("S_syn")
    forward = assemble_forward(scenario, geometry)
    cov = PerturbationCovariance(
        param_factor=build_param_factor(scenario, np.ones(5), 0.3),
        spatial=SpatialCorrelation(build_spatial_factor(geometry.cell_centers, 0.05)),
        amplitude=1.0,
    )
    theory = clutter_covariance(forward, cov).matrix
    samples = sample_perturbations(cov, 2000, 20260405)
    snaps = snapshots_from_perturbations(forward, samples, "linear")
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
        rhats = closure_covariances(forward, cov, 64, 3)
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
        validity_scan(forward, cov, amplitude_grid=(0.5,),
                      sample_count=count, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert geometry.frequencies.size == 16
    assert peak < pool


def test_validity_scan_holds_its_samples_one_block_at_a_time():
    # From L to 4L samples the scan's own state grows by the selector's
    # candidate buffer (twice while a merge concatenates it) and by the L
    # snapshot errors per amplitude. Samples and snapshots are held one block
    # at a time, so the traced peak grows by at most those plus one block;
    # holding the (L, 5P) samples would add 3L x 5P floats.
    geometry, scenario, forward, cov = _setup(sid="S4", n_x=8, n_z=6)
    count, grid = 100, (0.5,)
    values_per_sample = geometry.frequencies.size * geometry.n_cells

    def peak(samples):
        tracemalloc.start()
        try:
            validity_scan(forward, cov, amplitude_grid=grid,
                          sample_count=samples, seed=5)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def buffer_bytes(samples):
        return NearestRankSelector(samples * values_per_sample, 0.95)._buffer.nbytes

    peak(count)  # first-call allocations
    growth = peak(4 * count) - peak(count)
    own = 2 * (buffer_bytes(4 * count) - buffer_bytes(count)) + 8 * len(grid) * 3 * count
    block = 8 * montecarlo.SAMPLE_BLOCK * cov.dim
    assert growth < own + block
    assert growth < 8 * 3 * count * cov.dim


def _grid_models(sids, amplitudes=None):
    """The default 8 x 8 array over a 24 x 18 grid, and one (forward, cov) per id."""
    geometry = build_default_geometry(GeometryConfig(n_x=24, n_z=18))
    models = []
    for sid, amplitude in zip(sids, amplitudes or [1.0] * len(sids)):
        scenario = get_scenario(sid)
        cov = build_covariance(scenario, geometry.cell_centers, 0.15, 0.3, np.ones(5), amplitude)
        models.append((assemble_forward(scenario, geometry), cov))
    return geometry, models


def _chunk_rows(geometry):
    return montecarlo.EXACT_CHUNK_VALUES // (geometry.frequencies.size * geometry.n_cells)


def _traced_peak(run):
    """The traced peak of run() above the memory traced when it starts."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("s4_amplitude", [1.0, 1e4], ids=["both-run", "s4-dropped"])
def test_closure_holds_one_block_and_one_chunk_at_a_time(monkeypatch, s4_amplitude):
    # P = 432 cells: 130 samples in ceil(130 / 64) = 3 balanced blocks of
    # 44, 43 and 43 samples, the first of 0.73 MiB, and exact chunks of at
    # most 18 samples, 0.95 MiB of complex contrast. At its peak closure
    # holds the block's normals and one model's samples (two blocks) and,
    # evaluating one chunk, the contrast being written and the kernel's real
    # and imaginary parts (two chunks), plus the chunk's perturbed states,
    # snapshots and the MN x MN sums: less than a third chunk. A model's
    # samples alive while the next one mixes, the previous chunk's contrast,
    # a fifth chunk-sized kernel temporary or a scaled copy of unit-scale
    # perturbations each exceed that. When a later block is drawn nothing of
    # the one before is alive: less than one mode's snapshots of it. That
    # holds too when S4, at a tau-floor amplitude, drops out in the first
    # block: its kept error pins none of its arrays.
    geometry, models = _grid_models(("S_syn", "S4"), (1.0, s4_amplitude))
    draw, at_draw = montecarlo.standard_normal_draws, []

    def drawing(*args, **kwargs):
        at_draw.append(tracemalloc.get_traced_memory()[0])
        return draw(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "standard_normal_draws", drawing)
    shared_closure_covariances(models, 2, 3)  # first-call allocations
    at_draw.clear()
    outcomes = []
    peak = _traced_peak(
        lambda: outcomes.extend(shared_closure_covariances(models, 130, 3)))
    assert isinstance(outcomes[1], TauFloorError) == (s4_amplitude > 1.0)
    dim = models[0][1].dim
    size = 44
    block = 8 * dim * size
    chunk = 16 * _chunk_rows(geometry) * geometry.frequencies.size * geometry.n_cells
    assert peak < 2 * block + 3 * chunk
    assert len(at_draw) == 3
    assert max(at_draw[1:]) - at_draw[0] < 16 * size * models[0][0].shape[0]


def test_exact_synthesis_holds_one_chunk_contrast_at_a_time():
    # From one chunk to four the traced peak grows by the three chunks'
    # snapshots alone: no name keeps a chunk's contrast, so none is alive
    # while the next chunk is evaluated.
    geometry, [(forward, cov)] = _grid_models(("S4",))
    rows = _chunk_rows(geometry)
    samples = sample_perturbations(cov, 4 * rows, seed=5)

    def peak(count):
        def run():
            snapshots_from_perturbations(forward, samples[:count], "exact")
        run()  # first-call allocations
        return _traced_peak(run)

    chunk = 16 * rows * geometry.frequencies.size * geometry.n_cells
    snapshots = 16 * 3 * rows * forward.shape[0]
    assert peak(4 * rows) - peak(rows) < snapshots + chunk / 4


def test_validity_scan_holds_one_chunk_contrast_at_a_time_across_amplitudes():
    # One exact chunk of samples: from one amplitude to four the traced peak
    # grows by three more selectors' candidate buffers and snapshot errors
    # alone. Neither the walk nor the scan keeps an amplitude's contrast
    # while the next one is evaluated; either would add most of a chunk.
    geometry, [(forward, cov)] = _grid_models(("S4",))
    rows = _chunk_rows(geometry)
    values = rows * geometry.frequencies.size * geometry.n_cells

    def peak(grid):
        def run():
            validity_scan(forward, cov, amplitude_grid=grid,
                          sample_count=rows, seed=5)
        run()  # first-call allocations
        return _traced_peak(run)

    own = 3 * (NearestRankSelector(values, 0.95)._buffer.nbytes + 8 * rows)
    assert peak((0.25, 0.5, 1.0, 2.0)) - peak((0.5,)) < own + 16 * values / 4


def test_validity_scan_releases_each_block_before_the_next_draw(monkeypatch):
    # L = 130 is three blocks. When a later block is drawn the scan holds
    # what it held at the first draw (its selectors and snapshot errors)
    # and nothing of the block before: less than that block's linear
    # snapshots, let alone its (64, 5P) base samples.
    geometry, [(forward, cov)] = _grid_models(("S4",))
    draw, at_draw = montecarlo.sample_perturbations, []

    def drawing(*args, **kwargs):
        at_draw.append(tracemalloc.get_traced_memory()[0])
        return draw(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "sample_perturbations", drawing)

    def run():
        validity_scan(forward, cov, amplitude_grid=(0.5, 1.0),
                      sample_count=130, seed=5)

    run()  # first-call allocations
    at_draw.clear()
    _traced_peak(run)
    y_lin = 16 * montecarlo.SAMPLE_BLOCK * forward.shape[0]
    assert len(at_draw) == 3
    assert max(at_draw[1:]) - at_draw[0] < y_lin


def test_validity_scan_monotone_and_recommending():
    geometry, scenario, forward, cov = _setup(sid="S4")
    report = validity_scan(forward, cov, sample_count=50, seed=20260405)
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
    report = validity_scan(forward, cov, sample_count=20, threshold=1e-9, seed=1)
    assert report.recommended_s_mu is None


def test_snapshot_errors_of_tiny_and_of_zero_snapshots():
    # Kernels scaled by 2^-800 give snapshots near 1e-250, whose squares
    # underflow; the snapshot errors once read about 0. They keep their bits.
    # Zero kernels give zero snapshots, whose snapshot error is 0.
    geometry, scenario, forward, cov = _setup(sid="S4")
    reports = [validity_scan(dataclasses.replace(forward, kernels=forward.kernels * factor),
                             cov, sample_count=20, seed=1)
               for factor in (1.0, 2.0**-800, 0.0)]
    assert min(reports[0].p95_snapshot_error) > 0.0
    assert reports[1].p95_snapshot_error == reports[0].p95_snapshot_error
    assert reports[2].p95_snapshot_error == (0.0,) * len(reports[2].amplitude_grid)
    assert reports[2].p95_contrast_error == reports[0].p95_contrast_error


def test_validity_scan_grid_validation():
    geometry, scenario, forward, cov = _setup()
    with pytest.raises(ConfigError):
        validity_scan(forward, cov, amplitude_grid=())
    with pytest.raises(ConfigError):
        validity_scan(forward, cov, amplitude_grid=(1.0, 0.5))
    with pytest.raises(ConfigError):
        validity_scan(forward, cov, amplitude_grid=(-1.0, 1.0))


# Each call takes _setup()'s (geometry, scenario, forward, cov) and one bad value.
_NAMED_INPUTS = {
    "amplitude": lambda g, s, f, c, bad: build_covariance(
        s, g.cell_centers, 0.1, 0.3, np.ones(5), bad),
    "weights": lambda g, s, f, c, bad: build_param_factor(s, [1.0, 1.0, bad, 1.0, 1.0], 0.3),
    "threshold": lambda g, s, f, c, bad: validity_scan(f, c, sample_count=2,
                                                      threshold=bad),
    "amplitude_grid": lambda g, s, f, c, bad: validity_scan(f, c, sample_count=2,
                                                           amplitude_grid=(0.5, bad)),
    "target": lambda g, s, f, c, bad: steering_vector(g, s, (0.0, 0.0, bad)),
}


@pytest.mark.parametrize("name, bad", [
    (name, bad) for name in _NAMED_INPUTS for bad in (math.nan, math.inf)
] + [("threshold", -1.0)])
def test_non_finite_api_inputs_are_config_errors_naming_the_argument(name, bad):
    # The configuration refuses these values; the API must not compute with them.
    with pytest.raises(ConfigError, match=rf"^{name} must"):
        _NAMED_INPUTS[name](*_setup(), bad)


def test_exact_mode_domain_violation_names_the_cell():
    geometry, scenario, forward, _ = _setup(sid="S3", n_x=2, n_z=1)
    samples = np.zeros((1, forward.shape[1]))
    tau_block = slice(2 * geometry.n_cells, 3 * geometry.n_cells)
    samples[0, tau_block] = -scenario.background.tau  # drives tau to zero
    with pytest.raises(DomainError, match="tau"):
        snapshots_from_perturbations(forward, samples, "exact")


def test_exact_synthesis_is_invariant_to_the_chunk_budget(monkeypatch):
    geometry, scenario, forward, cov = _setup(sid="S4", n_x=4, n_z=3)
    samples = sample_perturbations(cov, 12, seed=8)

    def run():
        snaps = snapshots_from_perturbations(forward, samples, "exact")
        report = validity_scan(forward, cov, sample_count=12, seed=8)
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
    # L = 150 streams as three blocks of 50 samples, or with a byte budget
    # of 10 samples as 15 blocks of 10.
    geometry, scenario, forward, cov = _setup(sid="S4", n_x=4, n_z=3)
    if block is not None:
        monkeypatch.setattr(montecarlo, "SAMPLE_BLOCK_BYTES", block * 8 * cov.dim)
    samples = sample_perturbations(cov, 150, seed=11)
    streamed = closure_covariances(forward, cov, 150, 11)
    for mode, rhat in zip(SNAPSHOT_MODES, streamed):
        snapshots = snapshots_from_perturbations(forward, samples, mode)
        full = sample_covariance(snapshots)
        assert np.array_equal(rhat, rhat.conj().T)
        assert np.linalg.norm(rhat - full) <= 1e-13 * np.linalg.norm(full)


def _root_models(specs):
    """One (forward, cov) per (id, corr_length, kernel) on a 4 x 3 grid;
    models of one length and kernel share one spatial correlation."""
    geometry = build_default_geometry(GeometryConfig(n_tx=2, n_rx=2, n_x=4, n_z=3))
    models, correlations = [], {}
    for sid, corr_length, kernel in specs:
        scenario = get_scenario(sid)
        if (corr_length, kernel) not in correlations:
            correlations[corr_length, kernel] = spatial_correlation(
                geometry.cell_centers, corr_length, kernel)
        cov = PerturbationCovariance(build_param_factor(scenario, np.ones(5), 0.3),
                                     correlations[corr_length, kernel], 1.0)
        models.append((assemble_forward(scenario, geometry), cov))
    return geometry, models


def _solo_bytes(model, count, seed):
    return [rhat.tobytes() for rhat in closure_covariances(*model, count, seed)]


def test_shared_closure_mixes_one_spatial_root_once_per_block_and_equals_solo_runs(
        monkeypatch):
    # Five models share one spatial factor, S2 at amplitude 2: the amplitude
    # belongs to the parameter step. Each block is mixed once, by the first
    # model's root, and each model's sums are those of its own run, bit for
    # bit.
    geometry, models = _root_models([(sid, 0.15, "squared_exponential")
                                     for sid in ("S1", "S4", "S_syn", "S2", "S3")])
    forward, cov = models[3]
    models[3] = (forward, cov.with_amplitude(2.0))
    mix, mixed = SpatialCorrelation.mix, []

    def counting(spatial, normals):
        mixed.append(spatial)
        return mix(spatial, normals)

    monkeypatch.setattr(SpatialCorrelation, "mix", counting)
    shared = shared_closure_covariances(models, 150, 6)
    monkeypatch.undo()
    assert len(mixed) == 3 and all(spatial is models[0][1].spatial for spatial in mixed)
    for model, outcome in zip(models, shared):
        assert [rhat.tobytes() for rhat in outcome] == _solo_bytes(model, 150, 6)


@pytest.mark.parametrize(("corr_length", "kernel"), [
    (0.08, "squared_exponential"), (0.15, "exponential"), (0.15, "squared_exponential"),
], ids=["corr_length", "dense", "equal-copy"])
def test_closure_refuses_a_model_of_another_spatial_factor_by_scenario(corr_length, kernel):
    # Closure mixes the root of one SpatialCorrelation. S4's axis factors of
    # another length, its dense exponential factor, or S1's own factors in a
    # second instance are not S1's correlation: S4 is refused with an error
    # that names both scenarios, and S1 and S_syn give the numbers of their
    # own runs.
    geometry, models = _root_models([("S1", 0.15, "squared_exponential"),
                                     ("S4", corr_length, kernel),
                                     ("S_syn", 0.15, "squared_exponential")])
    forward, cov = models[1]
    if cov.spatial is models[0][1].spatial:
        copy = SpatialCorrelation(*cov.spatial.factors)
        models[1] = (forward, PerturbationCovariance(cov.param_factor, copy, 1.0))
    outcomes = shared_closure_covariances(models, 150, 5)
    assert isinstance(outcomes[1], ConfigError)
    assert str(outcomes[1]).startswith(
        "scenario S4: spatial correlation is not that of scenario S1")
    for index in (0, 2):
        assert [rhat.tobytes() for rhat in outcomes[index]] == _solo_bytes(models[index], 150, 5)


@pytest.mark.parametrize("factor", ["dense", "separable", "parameter"])
def test_a_factor_not_positive_definite_is_reported_before_any_draw(monkeypatch, factor):
    # S1 and S4 hold equal (by value, not by identity) spatial correlations
    # or parameter factors that are not positive definite. Closure checks
    # them before it draws: alone they drop out with no draw made, and beside
    # S_syn they drop out while S_syn gives the numbers of its own run.
    geometry, models = _root_models([(sid, 0.15, "squared_exponential")
                                     for sid in ("S1", "S4", "S_syn")])
    c_x, c_z = models[0][1].spatial.factors
    param = None
    if factor == "dense":
        good = build_spatial_factor(geometry.cell_centers, 0.15)
        factors = (good - 2.0 * np.eye(geometry.n_cells),)
        message = "spatial factor is not positive definite: Matrix"
    elif factor == "separable":
        factors = (c_x - 2.0 * np.eye(c_x.shape[0]), c_z)
        message = "spatial factor is not positive definite: smallest eigenvalue"
    else:
        param = build_param_factor(get_scenario("S1"), [0, 1, 1, 1, 1], 0.3)
        factors = (c_x, c_z)
        message = "parameter factor is not positive definite: zero variance in channel(s) " \
            "'eps_inf'"
    for index in (0, 1):
        forward, cov = models[index]
        models[index] = (forward, PerturbationCovariance(
            cov.param_factor if param is None else param, SpatialCorrelation(*factors), 1.0))

    def never(*args, **kwargs):
        raise AssertionError("drew samples")

    monkeypatch.setattr(montecarlo, "standard_normal_draws", never)
    for outcome in shared_closure_covariances(models[:2], 150, 4):
        assert isinstance(outcome, NonPositiveDefiniteError)
        assert str(outcome).startswith(message)
    monkeypatch.undo()
    outcomes = shared_closure_covariances(models, 150, 4)
    assert all(isinstance(outcome, NonPositiveDefiniteError) for outcome in outcomes[:2])
    assert [rhat.tobytes() for rhat in outcomes[2]] == _solo_bytes(models[2], 150, 4)


def test_one_spatial_root_runs_once_per_block_for_three_models(monkeypatch):
    # Three scenarios on one grid and correlation length: the axis-factor
    # product runs once per block, not once per model and block.
    geometry, models = _root_models([(sid, 0.15, "squared_exponential")
                                     for sid in ("S1", "S4", "S_syn")])
    kron_rows, calls = randfield._kron_rows, []

    def counting(*args, **kwargs):
        calls.append(args[0].shape[0])
        return kron_rows(*args, **kwargs)

    monkeypatch.setattr(randfield, "_kron_rows", counting)
    outcomes = shared_closure_covariances(models, 150, 2)
    assert calls == [5 * 50, 5 * 50, 5 * 50]  # 150 samples in ceil(150 / 64) = 3 blocks
    assert all(isinstance(outcome, tuple) for outcome in outcomes)


@pytest.mark.parametrize(("n_x", "n_z", "cap", "block", "split"), [
    (25, 21, 15, 64, [13, 13, 13, 13, 12]),
    (48, 36, 4, 30, [4, 4, 4, 4, 4, 4, 3, 3]),
], ids=["P525", "P1728"])
def test_exact_chunks_are_balanced_in_order_and_capped(n_x, n_z, cap, block, split):
    # The exact walk evaluates the row_slices of its samples under a cap of
    # EXACT_CHUNK_VALUES // (N P) rows, in order: a full block of samples
    # splits as `split`, and no samples give no chunk.
    geometry = build_default_geometry(GeometryConfig(n_x=n_x, n_z=n_z))
    forward = assemble_forward(get_scenario("S1"), geometry)
    assert _chunk_rows(geometry) == cap

    def chunks(count):
        samples = np.zeros((count, forward.shape[1]))
        walk = montecarlo._exact_walk(forward, samples, (1.0,), start=0)
        return [rows for rows, _, _, _ in walk]

    for count in (1, cap - 1, cap, cap + 1, 64, 30):
        assert chunks(count) == row_slices(count, cap)
    assert chunks(0) == []
    assert [rows.stop - rows.start for rows in chunks(block)] == split


def test_zero_samples_give_empty_snapshots_in_both_modes():
    geometry, scenario, forward, _ = _setup(sid="S4", n_x=4, n_z=3)
    samples = np.empty((0, forward.shape[1]))
    for mode in SNAPSHOT_MODES:
        snapshots = snapshots_from_perturbations(forward, samples, mode)
        assert snapshots.shape == (0, forward.shape[0])
        assert snapshots.dtype == complex


def _validity_reference(forward, cov, grid, count, seed):
    """p95 contrast and snapshot errors from full (L, 5P) and (L, N, P) arrays."""
    base = sample_perturbations(cov.with_amplitude(1.0), count, seed)
    per_channel = base.reshape(count, 5, forward.n_cells)
    omegas = 2.0 * np.pi * forward.geometry.frequencies
    linear = np.matmul(forward.sensitivities.T, per_channel)
    y_lin = snapshots_from_perturbations(forward, base, "linear")
    p95_contrast, p95_snapshot = [], []
    for s in grid:
        delta = (s * per_channel).transpose(1, 0, 2)[:, :, None, :]
        exact = exact_contrast_field(forward.scenario.background, delta, omegas[:, None])
        err = np.abs(exact - s * linear) / np.maximum(np.abs(exact), DENOMINATOR_FLOOR)
        p95_contrast.append(nearest_rank_percentile(err, 0.95))
        y_exact = snapshots_from_perturbations(forward, s * base, "exact")
        rel = np.linalg.norm(y_exact - s * y_lin, axis=1) / np.maximum(
            np.linalg.norm(y_exact, axis=1), DENOMINATOR_FLOOR)
        p95_snapshot.append(nearest_rank_percentile(rel, 0.95))
    return p95_contrast, p95_snapshot


@pytest.mark.parametrize("sid", ["S1", "S4"])
def test_streamed_validity_scan_matches_a_full_array_reference(sid):
    geometry, scenario, forward, cov = _setup(sid=sid, n_x=4, n_z=3)
    report = validity_scan(forward, cov, sample_count=150, seed=4)
    contrast, snapshot = _validity_reference(forward, cov, report.amplitude_grid, 150, 4)
    assert np.allclose(report.p95_contrast_error, contrast, rtol=1e-12, atol=0.0)
    # Snapshot errors divide differences of nearly equal snapshots (see the
    # chunk-budget test): bound them absolutely.
    assert np.allclose(report.p95_snapshot_error, snapshot, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("sid", sorted(scenario_registry()))
def test_frequency_outer_exact_contrast_is_the_sample_outer_one_transposed(sid):
    # The Monte Carlo paths evaluate (5, 1, L, P) perturbations against
    # (N, 1, 1) frequencies; each value is the one that (5, L, 1, P) against
    # (N, 1) gives, bit for bit.
    geometry, scenario, forward, cov = _setup(sid=sid, n_x=4, n_z=3)
    samples = sample_perturbations(cov, 7, 5)
    per_channel = samples.reshape(7, 5, geometry.n_cells).transpose(1, 0, 2)
    omegas = 2.0 * np.pi * geometry.frequencies
    scales = (1.0, 4.0)
    walk = montecarlo._exact_walk(forward, samples, scales, start=0)
    for k, (rows, index, outer, _) in enumerate(walk):
        assert (rows, index) == (slice(0, 7), k)
        inner = exact_contrast_field(scenario.background, scales[k] * per_channel[:, :, None],
                                     omegas[:, None])
        assert outer.shape == (geometry.frequencies.size, 7, geometry.n_cells)
        assert outer.flags.c_contiguous
        transposed = np.ascontiguousarray(inner.transpose(1, 0, 2))
        assert np.array_equal(outer.view(np.uint64), transposed.view(np.uint64))
    assert k == 1
    linear = montecarlo._linear_contrast(forward, samples)
    assert linear.shape == outer.shape and linear.flags.c_contiguous


def test_tau_floor_hit_in_the_frequency_outer_layout_keeps_its_ensemble_index():
    geometry, scenario, forward, cov = _setup(sid="S4", n_x=4, n_z=3)
    samples = sample_perturbations(cov, 6, 5)
    samples[4, 2 * geometry.n_cells + 9] = -scenario.background.tau
    per_channel = samples.reshape(6, 5, geometry.n_cells).transpose(1, 0, 2)
    omegas = 2.0 * np.pi * geometry.frequencies
    with pytest.raises(TauFloorError) as sample_outer:
        exact_contrast_field(scenario.background, per_channel[:, :, None], omegas[:, None])
    assert sample_outer.value.index == (4, 0, 9)
    with pytest.raises(TauFloorError) as named:
        next(montecarlo._exact_walk(forward, samples, (1.0,), start=30))
    assert named.value.__cause__.index == (0, 4, 9)
    assert named.value.index == (34, 0, 9)
    assert str(named.value).startswith("samples 30..35: perturbed tau at index (34, 0, 9)")


def test_overflow_in_the_frequency_outer_layout_keeps_its_ensemble_index():
    # S4's alpha 0.45 - 219.45 makes the relaxation power 220. omega tau is
    # 22.6 at the first frequency, where (omega tau)^220 stays finite, and
    # 27.1 at the second, where it overflows: the error names frequency 1.
    geometry, scenario, forward, cov = _setup(sid="S4", n_x=4, n_z=3)
    samples = sample_perturbations(cov, 6, 5)
    samples[4, 3 * geometry.n_cells + 9] = -219.45
    per_channel = samples.reshape(6, 5, geometry.n_cells).transpose(1, 0, 2)
    omegas = 2.0 * np.pi * geometry.frequencies
    with pytest.raises(NonFiniteError) as sample_outer:
        exact_contrast_field(scenario.background, per_channel[:, :, None], omegas[:, None])
    assert sample_outer.value.index == (4, 1, 9)
    with pytest.raises(NonFiniteError) as named:
        next(montecarlo._exact_walk(forward, samples, (1.0,), start=30))
    assert named.value.__cause__.index == (1, 4, 9)
    assert (named.value.index, named.value.parameter) == ((34, 1, 9), "alpha")
    assert str(named.value) == (
        f"samples 30..35: exact contrast overflow at omega={float(omegas[1])!r}, "
        "index (34, 1, 9); offending parameter 'alpha'")
    finite = samples.copy()
    finite[4, 3 * geometry.n_cells + 9] = -200.0  # power 201: finite at both frequencies
    rows, _, contrast, _ = next(
        montecarlo._exact_walk(forward, finite, (1.0,), start=30))
    assert rows == slice(0, 6) and np.all(np.isfinite(contrast))


def test_exact_walk_never_overwrites_the_snapshots_it_handed_out():
    # Two scales over one chunk: advancing the walk to the second scale
    # leaves the first scale's snapshots as they were, and they are exact
    # synthesis of the first scale's samples, bit for bit.
    geometry, scenario, forward, cov = _setup(sid="S4", n_x=4, n_z=3)
    samples = sample_perturbations(cov, 7, 5)
    scales = (0.5, 2.0)
    walk = montecarlo._exact_walk(forward, samples, scales, start=0)
    rows, k, _, first = next(walk)
    assert (rows, k) == (slice(0, 7), 0)
    kept = first.copy()
    rows, k, _, second = next(walk)
    assert (rows, k) == (slice(0, 7), 1)
    assert np.array_equal(first.view(np.uint64), kept.view(np.uint64))
    assert not np.array_equal(second, first)
    expected = snapshots_from_perturbations(forward, scales[0] * samples,
                                            "exact")
    assert np.array_equal(first.view(np.uint64), expected.view(np.uint64))


def _tau_floor_hit(monkeypatch, scenario, geometry, sample, cell):
    """Streamed draws in exact chunks of at most 15 samples, with tau of one sample at one cell at 0."""
    monkeypatch.setattr(
        montecarlo, "EXACT_CHUNK_VALUES", 15 * geometry.frequencies.size * geometry.n_cells)
    draw, mix, sample_all = (
        montecarlo.standard_normal_draws, montecarlo._parameter_mix,
        montecarlo.sample_perturbations)
    starts = []

    def hit(samples, start):
        if start <= sample < start + samples.shape[0]:
            samples[sample - start, 2 * geometry.n_cells + cell] = -scenario.background.tau
        return samples

    def drawing(dim, count, seed, *, start=0):
        starts.append(start)
        return draw(dim, count, seed, start=start)

    # Closure mixes each drawn block itself, each model through its own
    # parameter step; the scan draws each block through sample_perturbations.
    monkeypatch.setattr(montecarlo, "standard_normal_draws", drawing)
    monkeypatch.setattr(montecarlo, "_parameter_mix",
                        lambda cov, spatial: hit(mix(cov, spatial), starts[-1]))
    monkeypatch.setattr(montecarlo, "sample_perturbations",
                        lambda cov, count, seed, *, start=0:
                        hit(sample_all(cov, count, seed, start=start), start))


@pytest.mark.parametrize(
    ("count", "sample", "closure_rows", "scan_rows"),
    [(40, 17, "14..26", "14..26"), (100, 70, "63..75", "63..75")],
)
def test_tau_floor_error_names_the_ensemble_sample(
    monkeypatch, count, sample, closure_rows, scan_rows
):
    # Both passes split the samples into balanced blocks of at most 64 and
    # each block into balanced chunks of at most 15 samples: 40 samples are
    # one block, in chunks of 14, 13 and 13, so sample 17 lies in 14..26;
    # 100 samples are two blocks of 50, and the second, samples 50..99,
    # splits into 13, 13, 12 and 12, so sample 70 lies in 63..75, that
    # block's second chunk.
    geometry, scenario, forward, cov = _setup(sid="S4", n_x=4, n_z=3)
    _tau_floor_hit(monkeypatch, scenario, geometry, sample, 9)
    with pytest.raises(TauFloorError) as closure_error:
        closure_covariances(forward, cov, count, 3)
    with pytest.raises(TauFloorError) as scan_error:
        validity_scan(forward, cov, amplitude_grid=(1.0,),
                      sample_count=count, seed=3)
    for error, rows in ((closure_error.value, closure_rows), (scan_error.value, scan_rows)):
        assert error.index == (sample, 0, 9)
        assert str(error).startswith(f"samples {rows}: perturbed tau at index ({sample}, 0, 9)")
