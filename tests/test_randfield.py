"""Kronecker covariance factors, factored sampling, convergence."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from gprclutter import (
    GeometryConfig,
    build_covariance,
    build_default_geometry,
    build_param_factor,
    build_spatial_factor,
    get_scenario,
    sample_perturbations,
)
from gprclutter import randfield
from gprclutter.errors import ConfigError, NonPositiveDefiniteError
from gprclutter.randfield import (
    SPATIAL_KERNELS,
    SPATIAL_NUGGET,
    PerturbationCovariance,
    SpatialCorrelation,
    _kron_rows,
    _parameter_mix,
    row_slices,
    spatial_correlation,
    standard_normal_draws,
)
from gprclutter.scene import Scenario
from conftest import clear_memos
from oracles import (
    dense_spatial_factor,
    materialize_full,
    sample_perturbations_dense,
    spatial_eigenpairs,
)


def _line_cells(count, spacing=0.05):
    cells = np.zeros((count, 3))
    cells[:, 0] = spacing * np.arange(count)
    cells[:, 2] = 0.1
    return cells


def _unit_scale_scenario():
    background = get_scenario("S_syn").background
    return Scenario(id="unit", label="unit scales", background=background,
                    d_mu=np.ones(5))


def _toy_covariance(n_cells=6, corr_length=0.1, rho_c=0.3, amplitude=1.0):
    scenario = get_scenario("S_syn")
    return PerturbationCovariance(
        param_factor=build_param_factor(scenario, np.ones(5), rho_c),
        spatial=SpatialCorrelation(build_spatial_factor(_line_cells(n_cells), corr_length)),
        amplitude=amplitude,
    )


def _grid_covariance(n_x=3, n_z=4, corr_length=0.1, rho_c=0.3, amplitude=1.0):
    geometry = build_default_geometry(GeometryConfig(n_x=n_x, n_z=n_z, dx=0.05, dz=0.04))
    return build_covariance(get_scenario("S_syn"), geometry, corr_length,
                            rho_c, np.ones(5), amplitude)


def _eigen_root(cov):
    # S = U diag(sqrt(lam)) from the eigenpairs of the factor.
    lam, vectors = spatial_eigenpairs(cov)
    return vectors * np.sqrt(lam)


def test_spatial_diagonal_carries_the_nugget():
    factor = build_spatial_factor(_line_cells(4), 0.15)
    assert np.all(np.diag(factor) == 1.0 + 1e-10)


def test_delta_correlated_limit_is_identity():
    factor = build_spatial_factor(_line_cells(5), 1e-6)
    off = factor - np.diag(np.diag(factor))
    assert np.max(np.abs(off)) < 1e-300


def test_cells_one_length_apart():
    cells = _line_cells(2, spacing=0.15)
    factor = build_spatial_factor(cells, 0.15)
    assert factor[0, 1] == pytest.approx(math.exp(-0.5), rel=1e-12)


def test_exponential_kernel_option():
    cells = _line_cells(2, spacing=0.15)
    factor = build_spatial_factor(cells, 0.15, kernel="exponential")
    assert factor[0, 1] == pytest.approx(math.exp(-1.0), rel=1e-12)
    with pytest.raises(ConfigError):
        build_spatial_factor(cells, 0.15, kernel="matern")


def test_spatial_distance_uses_xz_plane_only():
    cells = _line_cells(2, spacing=0.0)
    cells[1, 1] = 5.0  # strip axis must not contribute
    factor = build_spatial_factor(cells, 0.15)
    assert factor[0, 1] == pytest.approx(1.0, rel=1e-12)


def _pairwise_spatial_factor(cells, corr_length, kernel):
    # Oracle: every cell pair's (x, z) difference formed directly.
    pts = np.asarray(cells, dtype=float)[:, [0, 2]]
    diff = pts[:, None, :] - pts[None, :, :]
    dist_sq = np.sum(diff * diff, axis=-1)
    if kernel == "squared_exponential":
        factor = np.exp(-dist_sq / (2.0 * corr_length * corr_length))
    else:
        factor = np.exp(-np.sqrt(dist_sq) / corr_length)
    factor[np.diag_indices_from(factor)] += SPATIAL_NUGGET
    return factor


def _random_cloud(count, seed):
    rng = np.random.default_rng(seed)
    cells = np.zeros((count, 3))
    cells[:, 0] = rng.uniform(-0.6, 0.6, count)
    cells[:, 1] = rng.uniform(0.0, 1.0, count)
    cells[:, 2] = rng.uniform(0.01, 0.5, count)
    return cells


@pytest.mark.parametrize("kernel", SPATIAL_KERNELS)
@pytest.mark.parametrize("cells", [
    build_default_geometry().cell_centers,
    build_default_geometry(GeometryConfig(n_x=48, n_z=36)).cell_centers,
    _random_cloud(300, seed=1),
    np.vstack([_random_cloud(100, seed=2)] * 2),
], ids=["grid25x21", "grid48x36", "cloud", "cloud-repeated"])
def test_spatial_factor_equals_pairwise_oracle(cells, kernel):
    for corr_length in (0.05, 0.15, 0.4):
        assert np.array_equal(
            build_spatial_factor(cells, corr_length, kernel),
            _pairwise_spatial_factor(cells, corr_length, kernel),
        )


@pytest.mark.parametrize("name", ["param_factor", "spatial_factor"])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_factor_rejected(name, bad):
    cov = _toy_covariance()
    param, (spatial,) = cov.param_factor.copy(), cov.spatial.factors
    spatial = spatial.copy()
    {"param_factor": param, "spatial_factor": spatial}[name][1, 1] = bad
    label = {"param_factor": "param_factor", "spatial_factor": r"spatial factors\[0\]"}[name]
    with pytest.raises(ConfigError, match=f"{label} has non-finite"):
        PerturbationCovariance(param, SpatialCorrelation(spatial), amplitude=1.0)


def test_asymmetric_factors_rejected():
    cov = _toy_covariance()
    param = cov.param_factor.copy()
    param[0, 4] += 1e-6
    with pytest.raises(ConfigError, match="param_factor must be symmetric"):
        PerturbationCovariance(param, cov.spatial, amplitude=1.0)
    # A defect far off the diagonal of a larger factor.
    spatial = build_spatial_factor(_line_cells(150), 0.1)
    spatial[3, 140] += 1e-6
    with pytest.raises(ConfigError, match=r"spatial factors\[0\] must be symmetric"):
        SpatialCorrelation(spatial)


@pytest.mark.parametrize("factor", [np.zeros((0, 0)), np.zeros((2, 3)), np.ones(3)],
                         ids=["empty", "oblong", "one-dimensional"])
def test_spatial_factor_must_be_square_with_at_least_one_row(factor):
    # An empty factor once escaped as numpy's zero-size reduction ValueError.
    with pytest.raises(ConfigError, match=r"^spatial factors\[0\] must be square with at least "
                                          rf"one row, got {re.escape(str(factor.shape))}$"):
        SpatialCorrelation(factor)


def test_corr_length_must_be_positive():
    with pytest.raises(ConfigError):
        build_spatial_factor(_line_cells(3), 0.0)


@pytest.mark.parametrize("kernel", SPATIAL_KERNELS)
def test_spatial_builders_refuse_a_length_or_cells_outside_their_domain(kernel):
    # A NaN length used to surface as a non-finite factor, an infinite one
    # as an all-ones rank-one C, and (P, 2) cells as an IndexError. The
    # geometry's builders take a SceneGeometry, never a cell array.
    geometry = build_default_geometry(GeometryConfig(n_x=3, n_z=4))
    cells = geometry.cell_centers
    on_geometry = (
        lambda g, length: spatial_correlation(g, length, kernel),
        lambda g, length: build_covariance(get_scenario("S1"), g, length, 0.3, np.ones(5),
                                           1.0, kernel=kernel),
    )
    for build in on_geometry:
        for length in (np.nan, np.inf):
            with pytest.raises(ConfigError, match=r"^corr_length must be positive and finite"):
                build(geometry, length)
        with pytest.raises(ConfigError, match=r"^geometry must be a SceneGeometry, got ndarray$"):
            build(cells, 0.1)
    for length in (np.nan, np.inf):
        with pytest.raises(ConfigError, match=r"^corr_length must be positive and finite"):
            build_spatial_factor(cells, length, kernel)
    for bad in (cells[:, :2], cells[:0], cells[0]):
        with pytest.raises(ConfigError, match=r"^cell_centers must have shape \(P, 3\)"):
            build_spatial_factor(bad, 0.1, kernel)


def test_a_squared_exponential_length_whose_square_underflows_is_named():
    # Below about 1.6e-162, 2 l^2 is 0: both squared-exponential paths used
    # to warn of a division by zero and refuse "spatial factors[0]".
    geometry = build_default_geometry(GeometryConfig(n_x=3, n_z=4))
    message = r"^corr_length .* too small for the squared-exponential kernel"
    for length in (1e-163, 5e-324):
        with pytest.raises(ConfigError, match=message):
            spatial_correlation(geometry, length)
        # The grid's cells, then three scattered cells.
        for cells in (geometry.cell_centers, geometry.cell_centers[[0, 5, 7]]):
            with pytest.raises(ConfigError, match=message):
                build_spatial_factor(cells, length)
    assert spatial_correlation(geometry, 1e-163, "exponential").n_cells == 12


def test_a_tiny_length_gives_the_identity_plus_nugget_without_a_warning():
    # A length that passes the checks but divides cell distances into -inf:
    # every off-diagonal correlation is exp(-inf) = 0. Both paths used to
    # warn of an overflow in the division.
    geometry = build_default_geometry(GeometryConfig(n_x=2, n_z=2))
    expected = (1.0 + SPATIAL_NUGGET) * np.eye(4)
    for kernel, length in (("squared_exponential", 1e-160), ("exponential", 5e-324)):
        clear_memos()
        cov = build_covariance(get_scenario("S1"), geometry, length, 0.0, np.ones(5), 1.0, kernel)
        assert np.array_equal(dense_spatial_factor(cov), expected)
        # The dense factor over the grid's cells, then over three scattered cells.
        for cells in (geometry.cell_centers, geometry.cell_centers[[0, 1, 3]]):
            size = len(cells)
            assert np.array_equal(build_spatial_factor(cells, length, kernel),
                                  expected[:size, :size])


def test_equal_cells_length_and_kernel_share_one_correlation():
    # A geometry of other frequencies on equal axes shares the correlation.
    geometry = build_default_geometry(GeometryConfig(n_x=3, n_z=4))
    equal_axes = build_default_geometry(GeometryConfig(n_x=3, n_z=4, delta_f=0.0))
    for kernel in SPATIAL_KERNELS:
        clear_memos()
        first = build_covariance(get_scenario("S1"), geometry, 0.1, 0.3, np.ones(5), 1.0, kernel)
        other = build_covariance(get_scenario("S4"), equal_axes, 0.1, 0.0,
                                 np.ones(5), 2.0, kernel)
        assert other.spatial is first.spatial
        root = first.spatial.root
        assert other.with_amplitude(0.5).spatial.root is root  # factored once
        # The memo keeps one correlation: another length evicts it.
        longer = spatial_correlation(geometry, 0.2, kernel)
        assert longer is not first.spatial
        rebuilt = spatial_correlation(geometry, 0.1, kernel)
        assert rebuilt is not first.spatial
        assert all(map(np.array_equal, rebuilt.factors, first.spatial.factors))
        assert spatial_correlation(geometry, 0.1, kernel) is rebuilt
        clear_memos()
        assert spatial_correlation(geometry, 0.1, kernel) is not rebuilt


def test_dense_correlation_is_built_without_factor_sized_temporaries():
    # Building the exponential kernel's factor holds it and one distance
    # table; checking it holds it and its read-only copy, plus one row block
    # of EXACT_CHUNK_VALUES values. |C| or C - C^T beside them exceeds 2.1x.
    geometry = build_default_geometry(GeometryConfig(n_x=48, n_z=36))
    clear_memos()
    tracemalloc.start()
    try:
        correlation = spatial_correlation(geometry, 0.15, "exponential")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        clear_memos()
    (factor,) = correlation.factors
    assert factor.shape == (1728, 1728)
    assert peak <= 2.1 * factor.nbytes


def test_uncorrelated_param_factor_is_diagonal():
    scenario = get_scenario("S3")
    factor = build_param_factor(scenario, np.ones(5), 0.0)
    assert np.allclose(factor, np.diag(scenario.d_mu**2), rtol=0.0, atol=0.0)


def test_unit_scale_param_factor_is_the_correlation_matrix():
    factor = build_param_factor(_unit_scale_scenario(), np.ones(5), 0.3)
    expected = np.full((5, 5), 0.3)
    np.fill_diagonal(expected, 1.0)
    assert np.array_equal(factor, expected)


def test_uniform_correlation_spectrum_closed_form():
    # Eigenvalues of a 5x5 uniform-correlation matrix: 1 + 4 rho, 1 - rho (x4).
    factor = build_param_factor(_unit_scale_scenario(), np.ones(5), 0.9)
    eigenvalues = np.sort(np.linalg.eigvalsh(factor))
    expected = np.sort([1 + 4 * 0.9, 0.1, 0.1, 0.1, 0.1])
    assert np.allclose(eigenvalues, expected, rtol=1e-12)


def test_param_factor_rejects_bad_inputs():
    scenario = get_scenario("S1")
    with pytest.raises(ConfigError):
        build_param_factor(scenario, np.ones(5), 1.0)
    with pytest.raises(ConfigError):
        build_param_factor(scenario, np.ones(5), -0.1)
    with pytest.raises(ConfigError):
        build_param_factor(scenario, [1, 1, -1, 1, 1], 0.3)


def test_zero_weight_makes_factorization_fail():
    # The error names each channel of zero variance.
    scenario = get_scenario("S1")
    for weights, names in (([1, 0, 1, 1, 1], "'delta_eps'"),
                           ([0, 1, 1, 1, 0], "'eps_inf', 'sigma'")):
        cov = PerturbationCovariance(
            param_factor=build_param_factor(scenario, weights, 0.0),
            spatial=SpatialCorrelation(build_spatial_factor(_line_cells(3), 0.1)),
            amplitude=1.0,
        )
        with pytest.raises(NonPositiveDefiniteError,
                           match=rf"zero variance in channel\(s\) {names}$"):
            _ = cov.param_cholesky


def test_sampling_is_deterministic_and_batch_independent():
    for cov in (_toy_covariance(), _grid_covariance()):  # dense, separable
        first = sample_perturbations(cov, 10, seed=123)
        second = sample_perturbations(cov, 10, seed=123)
        assert np.array_equal(first, second)
        # sample i depends only on (seed, i): prefixes agree across batch sizes
        prefix = sample_perturbations(cov, 4, seed=123)
        assert np.array_equal(first[:4], prefix)
        assert not np.array_equal(first, sample_perturbations(cov, 10, seed=124))


def test_sample_mean_obeys_five_sigma_bound():
    cov = _toy_covariance(n_cells=12)
    samples = sample_perturbations(cov, 2000, seed=20260405)
    mean = samples.mean(axis=0)
    trace = np.trace(materialize_full(cov))
    assert np.linalg.norm(mean) <= 5.0 * math.sqrt(trace / 2000)


def test_sample_covariance_converges_to_materialized_truth():
    # Brute-force oracle: the dense covariance of a dense P=6 instance and
    # of a separable 3x2 grid.
    for cov in (_toy_covariance(n_cells=6), _grid_covariance(n_x=3, n_z=2)):
        samples = sample_perturbations(cov, 200_000, seed=42)
        empirical = samples.T @ samples / samples.shape[0]
        exact = materialize_full(cov)
        error = np.linalg.norm(empirical - exact) / np.linalg.norm(exact)
        assert error < 0.02


def test_separable_sampler_applies_the_eigen_root_to_shared_normals():
    cov = _grid_covariance(n_x=4, n_z=3, corr_length=0.07, amplitude=0.8)
    assert len(cov.spatial.factors) == 2
    samples = sample_perturbations(cov, 20, seed=9)
    z = standard_normal_draws(cov.dim, 20, seed=9)
    expected = cov.amplitude * (z @ np.kron(cov.param_cholesky, _eigen_root(cov)).T)
    assert np.linalg.norm(samples - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize(("count", "cap", "sizes"), [
    (64, 15, [13, 13, 13, 13, 12]),
    (30, 4, [4, 4, 4, 4, 4, 4, 3, 3]),
    (2000, 64, [63] * 16 + [62] * 16),
    (150, 64, [50, 50, 50]),
    (3, 0, [1, 1, 1]),
    (0, 5, []),
], ids=["64-at-15", "30-at-4", "2000-at-64", "150-at-64", "cap-below-one", "no-rows"])
def test_row_slices_are_balanced_in_order_and_capped(count, cap, sizes):
    # ceil(count / cap) slices, a cap below one read as one, whose sizes
    # differ by at most one, the larger first, tiling 0..count-1 in order:
    # `sizes` follows from that rule. A ragged-tail splitter gives 15, 15,
    # 15, 15 and 4 for the first case.
    assert [rows.stop - rows.start for rows in row_slices(count, cap)] == sizes
    for total in range(3 * max(cap, 1) + 2):
        slices = row_slices(total, cap)
        sizes = [rows.stop - rows.start for rows in slices]
        assert len(slices) == math.ceil(total / max(cap, 1))
        assert [i for rows in slices for i in range(total)[rows]] == list(range(total))
        assert all(rows.step is None for rows in slices)
        assert sizes == sorted(sizes, reverse=True)
        assert max(sizes, default=1) <= max(cap, 1)
        assert max(sizes, default=0) - min(sizes, default=0) <= 1


@pytest.mark.parametrize("group", [1, 7, 151])
def test_grouped_in_place_kron_rows_equal_the_one_shot_product(monkeypatch, group):
    # 320 rows of a 24 x 18 grid, as one 64-sample block mixes them, in
    # row_slices groups of at most `group` rows: 320 groups of 1, 46 of 7
    # and 6, and 3 of 107 and 106, into a new array and in place alike. The
    # same GEMMs on fewer rows give the same bits.
    rng = np.random.default_rng(3)
    n_x, n_z, rows = 24, 18, 320
    a, b = rng.standard_normal((n_x, n_x)), rng.standard_normal((n_z, n_z))
    block = rng.standard_normal((rows, n_x * n_z))
    inner = (block.reshape(rows * n_x, n_z) @ b.T).reshape(rows, n_x, n_z)
    expected = np.matmul(a, inner).reshape(rows, n_x * n_z)
    oracle = block @ np.kron(a, b).T
    assert np.abs(expected - oracle).max() <= 1e-12 * np.abs(oracle).max()
    monkeypatch.setattr(randfield, "EXACT_CHUNK_VALUES", group * n_x * n_z + n_x)
    assert np.array_equal(_kron_rows(block.copy(), a, b), expected)
    grouped = _kron_rows(block, a, b, out=block)
    assert grouped is block
    assert np.array_equal(grouped, expected)


def test_separable_mix_holds_one_row_group_of_its_intermediate():
    # Mixing a fresh 64-sample block of normals on a 24 x 18 grid: the
    # spatial step overwrites the block and allocates, one row group at a
    # time, the product with U_z (EXACT_CHUNK_VALUES floats), and the
    # parameter step allocates the samples. A copy of the block in the
    # spatial step, or a second block beside the samples, exceeds that.
    geometry = build_default_geometry(GeometryConfig(n_x=24, n_z=18))
    cov = build_covariance(get_scenario("S4"), geometry, 0.15, 0.3,
                           np.ones(5), 1.0)
    normals = standard_normal_draws(cov.dim, 64, seed=1)
    _parameter_mix(cov, cov.spatial.mix(normals.copy()))  # first-call allocations
    block = normals.copy()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        spatial = cov.spatial.mix(block)
        spatial_peak = tracemalloc.get_traced_memory()[1] - start
        _parameter_mix(cov, spatial)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert np.shares_memory(spatial, block)
    assert spatial_peak < 8 * randfield.EXACT_CHUNK_VALUES + normals.nbytes // 16
    assert peak < normals.nbytes + 8 * randfield.EXACT_CHUNK_VALUES + normals.nbytes // 16


def test_kronecker_and_dense_samplers_agree_on_shared_normals():
    cov = _toy_covariance(n_cells=12, corr_length=0.15)
    kron = sample_perturbations(cov, 20, seed=9)
    dense = sample_perturbations_dense(cov, 20, seed=9)
    scale = np.linalg.norm(kron)
    assert np.linalg.norm(kron - dense) / scale < 1e-10


def test_mixed_product_identity():
    cov = _toy_covariance(n_cells=8, amplitude=0.7)
    factored = np.kron(cov.param_cholesky, cov.spatial.root)
    rebuilt = cov.amplitude**2 * (factored @ factored.T)
    exact = materialize_full(cov)
    assert np.linalg.norm(rebuilt - exact) / np.linalg.norm(exact) < 1e-12


def test_error_rate_is_one_over_sqrt_samples():
    # Short correlation keeps the instance high-dimensional enough for the
    # error ratios to concentrate; draws are independent across counts.
    cov = _toy_covariance(n_cells=24, corr_length=0.05)
    exact = materialize_full(cov)
    norm = np.linalg.norm(exact)
    errors = {}
    for count in (500, 2000, 8000):
        samples = sample_perturbations(cov, count, seed=20260405 + count)
        empirical = samples.T @ samples / count
        errors[count] = np.linalg.norm(empirical - exact) / norm
    assert 1.4 <= errors[500] / errors[2000] <= 2.9
    assert 1.4 <= errors[2000] / errors[8000] <= 2.9


def test_materialize_scalar_spatial_factor():
    scenario = get_scenario("S2")
    cov = PerturbationCovariance(
        param_factor=build_param_factor(scenario, np.ones(5), 0.3),
        spatial=SpatialCorrelation(np.ones((1, 1)) + 1e-10),
        amplitude=2.0,
    )
    full = materialize_full(cov)
    assert np.allclose(full, 4.0 * cov.param_factor * (1 + 1e-10), rtol=1e-15)


def test_materialized_entries_match_definition():
    cov = _toy_covariance(n_cells=4, rho_c=0.3, amplitude=1.5)
    full = materialize_full(cov)
    scenario = get_scenario("S_syn")
    d = scenario.d_mu
    for q, qp, p, pp in ((0, 3, 1, 2), (2, 2, 0, 3), (4, 1, 3, 3)):
        rho = 1.0 if q == qp else 0.3
        expected = 1.5**2 * d[q] * rho * d[qp] * cov.spatial.factors[0][p, pp]
        assert full[q * 4 + p, qp * 4 + pp] == pytest.approx(expected, rel=1e-12)


def test_randomized_covariances_are_symmetric_psd():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n_cells = int(rng.integers(2, 10))
        cov = _toy_covariance(
            n_cells=n_cells,
            corr_length=float(rng.uniform(0.02, 0.5)),
            rho_c=float(rng.uniform(0.0, 0.95)),
            amplitude=float(rng.uniform(0.1, 4.0)),
        )
        full = materialize_full(cov)
        assert np.allclose(full, full.T, rtol=0.0, atol=1e-12 * np.abs(full).max())
        eigenvalues = np.linalg.eigvalsh(full)
        assert eigenvalues.min() >= -1e-10 * eigenvalues.max()


def test_substream_normals_are_reproducible():
    a = standard_normal_draws(7, 3, seed=1)
    b = standard_normal_draws(7, 5, seed=1)
    assert np.array_equal(a, b[:3])


def test_draws_from_a_start_index_are_rows_of_a_longer_draw():
    longer = standard_normal_draws(11, 150, seed=5)
    for start, count in ((0, 64), (64, 64), (128, 22), (37, 1)):
        block = standard_normal_draws(11, count, seed=5, start=start)
        assert block.tobytes() == longer[start:start + count].tobytes()


def test_negative_seed_is_a_config_error():
    with pytest.raises(ConfigError, match="seed"):
        standard_normal_draws(7, 3, seed=-1)
    with pytest.raises(ConfigError, match="first sample index"):
        standard_normal_draws(7, 3, seed=1, start=-1)


def test_sampling_on_default_geometry_shapes():
    geometry = build_default_geometry(GeometryConfig(n_x=5, n_z=4))
    scenario = get_scenario("S1")
    cov = PerturbationCovariance(
        param_factor=build_param_factor(scenario, np.ones(5), 0.3),
        spatial=SpatialCorrelation(build_spatial_factor(geometry.cell_centers, 0.15)),
        amplitude=1.0,
    )
    samples = sample_perturbations(cov, 3, seed=0)
    assert samples.shape == (3, 5 * 20)
    assert np.all(np.isfinite(samples))


def test_tensor_grid_with_squared_exponential_kernel_is_separable():
    geometry = build_default_geometry()
    cov = build_covariance(get_scenario("S1"), geometry, 0.15, 0.3, np.ones(5), 1.0)
    c_x, c_z = cov.spatial.factors
    assert c_x.shape == (25, 25) and c_z.shape == (21, 21)
    assert cov.spatial.n_cells == 525 and cov.dim == 2625
    lam = spatial_eigenpairs(cov)[0]
    scaled = cov.with_amplitude(2.0)
    assert scaled.amplitude == 2.0 and cov.amplitude == 1.0
    assert scaled.spatial is cov.spatial
    assert spatial_eigenpairs(scaled)[0] is lam  # the eigenpairs are carried, not recomputed


def test_non_separable_inputs_take_the_dense_path():
    # The exponential kernel does not separate: its factor is the dense one
    # over the grid's cells.
    geometry = build_default_geometry(GeometryConfig(n_x=3, n_z=4))
    cov = build_covariance(get_scenario("S1"), geometry, 0.1, 0.3, np.ones(5), 1.0,
                           kernel="exponential")
    (factor,) = cov.spatial.factors
    assert np.array_equal(factor, build_spatial_factor(geometry.cell_centers, 0.1, "exponential"))


def test_directly_passed_dense_factor_stays_dense():
    cells = build_default_geometry(GeometryConfig(n_x=3, n_z=4)).cell_centers
    cov = PerturbationCovariance(
        param_factor=build_param_factor(get_scenario("S1"), np.ones(5), 0.3),
        spatial=SpatialCorrelation(build_spatial_factor(cells, 0.1)),
        amplitude=1.0,
    )
    assert len(cov.spatial.factors) == 1
    assert cov.spatial.root.shape == (12, 12)  # its Cholesky factor


def test_separable_covariance_rejects_bad_inputs():
    cov = _grid_covariance()
    with pytest.raises(ConfigError, match="one dense or two axis factors, got 0"):
        SpatialCorrelation()
    with pytest.raises(ConfigError, match="one dense or two axis factors, got 3"):
        SpatialCorrelation(*cov.spatial.factors, cov.spatial.factors[0])
    with pytest.raises(ConfigError, match="spatial must be a SpatialCorrelation, got ndarray"):
        PerturbationCovariance(cov.param_factor, dense_spatial_factor(cov), amplitude=1.0)
    with pytest.raises(ConfigError, match="corr_length"):
        build_covariance(get_scenario("S1"), build_default_geometry(), 0.0, 0.3, np.ones(5), 1.0)
    with pytest.raises(AttributeError):
        cov.amplitude = 2.0
    with pytest.raises(AttributeError):
        cov.spatial.factors = ()
    # A separable root is the eigen root, never a dense Cholesky factor.
    lam, (u_x, u_z) = cov.spatial.root
    assert lam.shape == (12,) and u_x.shape == (3, 3) and u_z.shape == (4, 4)


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_axis_factor_rejected(axis, bad):
    axes = [f.copy() for f in _grid_covariance().spatial.factors]
    axes[axis][0, 0] = bad
    with pytest.raises(ConfigError, match=rf"spatial factors\[{axis}\] has non-finite"):
        SpatialCorrelation(*axes)


@pytest.mark.parametrize("axis", [0, 1])
def test_asymmetric_axis_factor_rejected(axis):
    axes = [f.copy() for f in _grid_covariance().spatial.factors]
    axes[axis][0, -1] += 1e-6
    with pytest.raises(ConfigError, match=rf"spatial factors\[{axis}\] must be symmetric"):
        SpatialCorrelation(*axes)


def test_indefinite_separable_factor_fails_to_sample():
    cov = _grid_covariance()
    c_x, c_z = cov.spatial.factors
    flipped = PerturbationCovariance(cov.param_factor, SpatialCorrelation(-c_x, c_z), 1.0)
    with pytest.raises(NonPositiveDefiniteError, match="spatial factor"):
        sample_perturbations(flipped, 2, seed=0)
