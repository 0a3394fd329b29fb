"""Kronecker covariance factors, factored sampling, convergence."""

import math

import numpy as np
import pytest

from gprclutter import (
    GeometryConfig,
    build_covariance,
    build_default_geometry,
    build_param_factor,
    build_spatial_factor,
    get_scenario,
    materialize_full,
    sample_perturbations,
)
from gprclutter.errors import ConfigError, NonPositiveDefiniteError, SizeCapError
from gprclutter.randfield import (
    SPATIAL_KERNELS,
    SPATIAL_NUGGET,
    PerturbationCovariance,
    sample_perturbations_dense,
    standard_normal_draws,
)
from gprclutter.scene import Scenario


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
        spatial_factor=build_spatial_factor(_line_cells(n_cells), corr_length),
        amplitude=amplitude,
        corr_length=corr_length,
    )


def _grid_covariance(n_x=3, n_z=4, corr_length=0.1, rho_c=0.3, amplitude=1.0):
    geometry = build_default_geometry(GeometryConfig(n_x=n_x, n_z=n_z, dx=0.05, dz=0.04))
    return build_covariance(get_scenario("S_syn"), geometry.cell_centers, corr_length,
                            rho_c, np.ones(5), amplitude)


def _eigen_root(cov):
    # S = U diag(sqrt(lam)) through the public eigen-interface of the factor.
    vectors = cov.spatial_mode_product(np.eye(cov.n_cells))
    return vectors * np.sqrt(cov.spatial_eigenvalues)


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
    factors = {"param_factor": cov.param_factor.copy(),
               "spatial_factor": cov.spatial_factor.copy()}
    factors[name][1, 1] = bad
    with pytest.raises(ConfigError, match=f"{name} has non-finite"):
        PerturbationCovariance(**factors, amplitude=1.0, corr_length=0.1)


def test_asymmetric_factors_rejected():
    cov = _toy_covariance()
    param = cov.param_factor.copy()
    param[0, 4] += 1e-6
    with pytest.raises(ConfigError, match="param_factor must be symmetric"):
        PerturbationCovariance(param, cov.spatial_factor, amplitude=1.0, corr_length=0.1)
    # Several block rows of the check, the defect in the last one.
    spatial = build_spatial_factor(_line_cells(150), 0.1)
    spatial[3, 140] += 1e-6
    with pytest.raises(ConfigError, match="spatial_factor must be symmetric"):
        PerturbationCovariance(cov.param_factor, spatial, amplitude=1.0, corr_length=0.1)


def test_corr_length_must_be_positive():
    with pytest.raises(ConfigError):
        build_spatial_factor(_line_cells(3), 0.0)


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
    scenario = get_scenario("S1")
    cov = PerturbationCovariance(
        param_factor=build_param_factor(scenario, [1, 0, 1, 1, 1], 0.0),
        spatial_factor=build_spatial_factor(_line_cells(3), 0.1),
        amplitude=1.0,
        corr_length=0.1,
    )
    with pytest.raises(NonPositiveDefiniteError):
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
    assert cov.spatial_axes is not None
    samples = sample_perturbations(cov, 20, seed=9)
    z = standard_normal_draws(cov.dim, 20, seed=9)
    expected = cov.amplitude * (z @ np.kron(cov.param_cholesky, _eigen_root(cov)).T)
    assert np.linalg.norm(samples - expected) <= 1e-12 * np.linalg.norm(expected)


def test_kronecker_and_dense_samplers_agree_on_shared_normals():
    cov = _toy_covariance(n_cells=12, corr_length=0.15)
    kron = sample_perturbations(cov, 20, seed=9)
    dense = sample_perturbations_dense(cov, 20, seed=9)
    scale = np.linalg.norm(kron)
    assert np.linalg.norm(kron - dense) / scale < 1e-10


def test_mixed_product_identity():
    cov = _toy_covariance(n_cells=8, amplitude=0.7)
    factored = np.kron(cov.param_cholesky, cov.spatial_cholesky)
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
        spatial_factor=np.ones((1, 1)) + 1e-10,
        amplitude=2.0,
        corr_length=0.15,
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
        expected = 1.5**2 * d[q] * rho * d[qp] * cov.spatial_factor[p, pp]
        assert full[q * 4 + p, qp * 4 + pp] == pytest.approx(expected, rel=1e-12)


def test_materialize_respects_size_cap():
    # 69 x 29 cells: 5P = 10005 rows, just over MATERIALIZE_ROW_CAP.
    cov = _grid_covariance(n_x=69, n_z=29)
    with pytest.raises(SizeCapError, match="10005"):
        materialize_full(cov)
    assert "spatial_factor" not in cov.__dict__


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


def test_negative_seed_is_a_config_error():
    with pytest.raises(ConfigError, match="seed"):
        standard_normal_draws(7, 3, seed=-1)


def test_sampling_on_default_geometry_shapes():
    geometry = build_default_geometry(GeometryConfig(n_x=5, n_z=4))
    scenario = get_scenario("S1")
    cov = PerturbationCovariance(
        param_factor=build_param_factor(scenario, np.ones(5), 0.3),
        spatial_factor=build_spatial_factor(geometry.cell_centers, 0.15),
        amplitude=1.0,
        corr_length=0.15,
    )
    samples = sample_perturbations(cov, 3, seed=0)
    assert samples.shape == (3, 5 * 20)
    assert np.all(np.isfinite(samples))


def test_tensor_grid_with_squared_exponential_kernel_is_separable():
    geometry = build_default_geometry()
    cov = build_covariance(get_scenario("S1"), geometry.cell_centers, 0.15, 0.3, np.ones(5), 1.0)
    c_x, c_z = cov.spatial_axes
    assert c_x.shape == (25, 25) and c_z.shape == (21, 21)
    assert cov.n_cells == 525 and cov.dim == 2625
    assert "spatial_factor" not in cov.__dict__
    lam = cov.spatial_eigenvalues
    scaled = cov.with_amplitude(2.0)
    assert scaled.amplitude == 2.0 and cov.amplitude == 1.0
    assert scaled.spatial_axes is cov.spatial_axes
    assert scaled.spatial_eigenvalues is lam  # the eigenpairs are carried, not recomputed


def _permuted_grid_cells():
    cells = build_default_geometry(GeometryConfig(n_x=3, n_z=4)).cell_centers
    return cells[np.random.default_rng(0).permutation(len(cells))]


@pytest.mark.parametrize("cells, kernel", [
    (build_default_geometry(GeometryConfig(n_x=3, n_z=4)).cell_centers, "exponential"),
    (_permuted_grid_cells(), "squared_exponential"),
    (_random_cloud(12, seed=4), "squared_exponential"),
    (build_default_geometry(GeometryConfig(n_x=3, n_z=4)).cell_centers[:-1],
     "squared_exponential"),
], ids=["exponential-kernel", "permuted-rows", "scattered", "incomplete-grid"])
def test_non_separable_inputs_take_the_dense_path(cells, kernel):
    cov = build_covariance(get_scenario("S1"), cells, 0.1, 0.3, np.ones(5), 1.0, kernel=kernel)
    assert cov.spatial_axes is None
    assert np.array_equal(cov.spatial_factor, build_spatial_factor(cells, 0.1, kernel))


def test_directly_passed_dense_factor_stays_dense():
    cells = build_default_geometry(GeometryConfig(n_x=3, n_z=4)).cell_centers
    cov = PerturbationCovariance(
        param_factor=build_param_factor(get_scenario("S1"), np.ones(5), 0.3),
        spatial_factor=build_spatial_factor(cells, 0.1),
        amplitude=1.0,
        corr_length=0.1,
    )
    assert cov.spatial_axes is None


def test_separable_covariance_rejects_bad_inputs():
    cov = _grid_covariance()
    with pytest.raises(ConfigError, match="exactly one"):
        PerturbationCovariance(cov.param_factor, amplitude=1.0, corr_length=0.1)
    with pytest.raises(ConfigError, match="exactly one"):
        PerturbationCovariance(cov.param_factor, cov.spatial_factor, amplitude=1.0,
                               corr_length=0.1, spatial_axes=cov.spatial_axes)
    with pytest.raises(ConfigError, match="correlation length"):
        build_covariance(get_scenario("S1"), build_default_geometry().cell_centers,
                         0.0, 0.3, np.ones(5), 1.0)
    with pytest.raises(AttributeError):
        cov.amplitude = 2.0


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_axis_factor_rejected(axis, bad):
    axes = [f.copy() for f in _grid_covariance().spatial_axes]
    axes[axis][0, 0] = bad
    with pytest.raises(ConfigError, match=rf"spatial_axes\[{axis}\] has non-finite"):
        PerturbationCovariance(_grid_covariance().param_factor, amplitude=1.0,
                               corr_length=0.1, spatial_axes=tuple(axes))


@pytest.mark.parametrize("axis", [0, 1])
def test_asymmetric_axis_factor_rejected(axis):
    axes = [f.copy() for f in _grid_covariance().spatial_axes]
    axes[axis][0, -1] += 1e-6
    with pytest.raises(ConfigError, match=rf"spatial_axes\[{axis}\] must be symmetric"):
        PerturbationCovariance(_grid_covariance().param_factor, amplitude=1.0,
                               corr_length=0.1, spatial_axes=tuple(axes))


def test_indefinite_separable_factor_fails_to_sample():
    cov = _grid_covariance()
    c_x, c_z = cov.spatial_axes
    flipped = PerturbationCovariance(cov.param_factor, amplitude=1.0, corr_length=0.1,
                                     spatial_axes=(-c_x, c_z))
    with pytest.raises(NonPositiveDefiniteError, match="spatial factor"):
        sample_perturbations(flipped, 2, seed=0)
