"""Standardized Gaussian perturbation field with separable covariance.

The covariance of the stacked physical perturbation vector is

    R_mu = s_mu^2 * (D W Rho W D) x C,

a Kronecker product of a 5x5 parameter factor (scales D, weights W, uniform
cross-correlation Rho) and a PxP spatial correlation factor. Sampling uses
the factorized Cholesky identity chol(A x B) = chol(A) x chol(B); each
sample's standard normals come from a private substream keyed on
(master seed, sample index), so draws are reproducible and independent of
batching or worker count.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .constitutive import N_PARAMS
from .errors import ConfigError, NonPositiveDefiniteError, SizeCapError
from .scene import Scenario

#: Diagonal nugget applied to the spatial factor before factorization;
#: large correlation lengths make it numerically rank deficient.
SPATIAL_NUGGET = 1e-10

#: materialize_full refuses matrices with more rows than this.
MATERIALIZE_ROW_CAP = 10_000

#: Identifier of the sampling RNG scheme, recorded in output metadata.
RNG_SCHEME = "pcg64-seedseq(master_seed, sample_index)"

SPATIAL_KERNELS = ("squared_exponential", "exponential")

#: Rows per block of the factor symmetry check.
SYMMETRY_BLOCK = 64


def build_spatial_factor(
    cell_centers: np.ndarray, corr_length: float, kernel: str = "squared_exponential"
) -> np.ndarray:
    """Spatial correlation factor over (x, z) distances, with nugget.

    The squared-exponential kernel exp(-d^2 / (2 l^2)) is the default; an
    exponential kernel exp(-d / l) is available behind the same interface.
    One isotropic length governs both axes.
    """
    if corr_length <= 0.0:
        raise ConfigError(f"correlation length must be positive, got {corr_length!r}")
    if kernel not in SPATIAL_KERNELS:
        raise ConfigError(f"unknown spatial kernel {kernel!r} (known: {SPATIAL_KERNELS})")
    pts = np.asarray(cell_centers, dtype=float)
    dist_sq = _squared_differences(pts[:, 0])
    dist_sq += _squared_differences(pts[:, 2])
    if kernel == "squared_exponential":
        dist_sq /= -(2.0 * corr_length * corr_length)
    else:
        np.sqrt(dist_sq, out=dist_sq)
        dist_sq /= -corr_length
    factor = np.exp(dist_sq, out=dist_sq)
    factor[np.diag_indices_from(factor)] += SPATIAL_NUGGET
    return factor


def _squared_differences(coords: np.ndarray) -> np.ndarray:
    """(c_i - c_j)^2 for all pairs, shape (P, P).

    Differences are formed once per pair of distinct values and gathered
    to the cell pairs: a tensor grid has only n_x (or n_z) distinct values
    per axis.
    """
    values, index = np.unique(coords, return_inverse=True)
    table = values[:, None] - values[None, :]
    table *= table
    return np.take(np.take(table, index, axis=0), index, axis=1)


def build_param_factor(scenario: Scenario, weights, rho_c: float) -> np.ndarray:
    """5x5 parameter factor d_q w_q rho_{qq'} w_{q'} d_{q'} in physical units."""
    if not 0.0 <= rho_c < 1.0:
        raise ConfigError(f"rho_c must lie in [0, 1), got {rho_c!r}")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (N_PARAMS,) or np.any(weights < 0.0):
        raise ConfigError(f"weights must be 5 nonnegative reals, got {weights!r}")
    rho = np.full((N_PARAMS, N_PARAMS), rho_c)
    np.fill_diagonal(rho, 1.0)
    scaled = scenario.d_mu * weights
    return scaled[:, None] * rho * scaled[None, :]


@dataclasses.dataclass(frozen=True)
class PerturbationCovariance:
    """R_mu in Kronecker form plus its sampler inputs.

    The full 5P x 5P matrix amplitude^2 * (param_factor x spatial_factor)
    is only ever materialized on request (and below a size cap).
    """

    param_factor: np.ndarray
    spatial_factor: np.ndarray
    amplitude: float
    corr_length: float

    def __post_init__(self):
        param = np.asarray(self.param_factor, dtype=float)
        spatial = np.asarray(self.spatial_factor, dtype=float)
        if param.shape != (N_PARAMS, N_PARAMS):
            raise ConfigError(f"param factor must be 5x5, got {param.shape}")
        if spatial.ndim != 2 or spatial.shape[0] != spatial.shape[1]:
            raise ConfigError(f"spatial factor must be square, got {spatial.shape}")
        if self.amplitude < 0.0:
            raise ConfigError(f"amplitude must be nonnegative, got {self.amplitude!r}")
        for name, value in (("param_factor", param), ("spatial_factor", spatial)):
            # The largest magnitude is nan or inf exactly when an entry is.
            scale = np.abs(value).max()
            if not np.isfinite(scale):
                raise ConfigError(f"{name} has non-finite entries")
            if _asymmetry(value) > 1e-12 * max(1.0, scale):
                raise ConfigError(f"{name} must be symmetric")
            value = value.copy()
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n_cells(self) -> int:
        return self.spatial_factor.shape[0]

    @property
    def dim(self) -> int:
        return N_PARAMS * self.n_cells

    @functools.cached_property
    def param_cholesky(self) -> np.ndarray:
        return _cholesky(self.param_factor, "parameter factor")

    @functools.cached_property
    def spatial_cholesky(self) -> np.ndarray:
        return _cholesky(self.spatial_factor, "spatial factor")

    def with_amplitude(self, amplitude: float) -> "PerturbationCovariance":
        return PerturbationCovariance(
            param_factor=self.param_factor,
            spatial_factor=self.spatial_factor,
            amplitude=amplitude,
            corr_length=self.corr_length,
        )


def _asymmetry(matrix: np.ndarray) -> float:
    """max |m - m^T| over the upper triangle, one block row at a time.

    Each block row is compared with the matching block column, whose
    transposed read touches short contiguous runs, so the check stays
    cache-friendly at large P and visits every pair once.
    """
    worst = 0.0
    for start in range(0, matrix.shape[0], SYMMETRY_BLOCK):
        rows = slice(start, start + SYMMETRY_BLOCK)
        worst = max(worst, float(np.abs(matrix[rows, start:] - matrix[start:, rows].T).max()))
    return worst


def _cholesky(matrix: np.ndarray, what: str) -> np.ndarray:
    try:
        factor = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise NonPositiveDefiniteError(f"{what} is not positive definite: {exc}") from exc
    factor.flags.writeable = False
    return factor


def build_covariance(
    scenario: Scenario,
    cell_centers: np.ndarray,
    corr_length: float,
    rho_c: float,
    weights,
    amplitude: float,
    kernel: str = "squared_exponential",
) -> PerturbationCovariance:
    """Convenience constructor assembling both Kronecker factors."""
    return PerturbationCovariance(
        param_factor=build_param_factor(scenario, weights, rho_c),
        spatial_factor=build_spatial_factor(cell_centers, corr_length, kernel),
        amplitude=amplitude,
        corr_length=corr_length,
    )


def standard_normal_draws(dim: int, count: int, seed: int) -> np.ndarray:
    """Per-sample substream normals, shape (count, dim).

    Row i depends only on (seed, i), never on count or calling pattern, so
    partial batches and parallel draws reproduce the same values.
    """
    if count < 1:
        raise ConfigError(f"sample count must be >= 1, got {count!r}")
    draws = np.empty((count, dim))
    for i in range(count):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, i))))
        draws[i] = rng.standard_normal(dim)
    return draws


def sample_perturbations(cov: PerturbationCovariance, count: int, seed: int) -> np.ndarray:
    """Draw stacked perturbation samples, shape (count, 5P).

    Each sample is amplitude * (L_param x L_spatial) z with z standard
    normal; the Kronecker product is applied in factored matrix form: the
    5x5 parameter mix of every sample, then one GEMM of all 5 * count
    parameter rows against L_spatial^T. Entry q * P + p of a sample is the
    perturbation of parameter q at cell p.

    The normals of sample i depend only on (seed, i). The mixed values can
    differ in the last bit between batch sizes, because the GEMM's
    rounding depends on the row count.
    """
    z = standard_normal_draws(cov.dim, count, seed).reshape(count, N_PARAMS, cov.n_cells)
    mixed = np.matmul(cov.param_cholesky, z)
    del z
    samples = mixed.reshape(count * N_PARAMS, cov.n_cells) @ cov.spatial_cholesky.T
    del mixed
    samples *= cov.amplitude
    return samples.reshape(count, cov.dim)


def sample_perturbations_dense(cov: PerturbationCovariance, count: int, seed: int) -> np.ndarray:
    """Reference sampler through the Cholesky factor of the materialized R_mu.

    Consumes the same substream normals as :func:`sample_perturbations`, so
    the two routes agree up to factorization rounding. Quadratic memory;
    intended for small instances and cross-checks.
    """
    full = materialize_full(cov)
    if cov.amplitude == 0.0:
        return np.zeros((count, cov.dim))
    factor = _cholesky(full / cov.amplitude**2, "materialized covariance")
    z = standard_normal_draws(cov.dim, count, seed)
    return cov.amplitude * (z @ factor.T)


def materialize_full(cov: PerturbationCovariance, row_cap: int = MATERIALIZE_ROW_CAP) -> np.ndarray:
    """The dense 5P x 5P covariance amplitude^2 (param x spatial)."""
    if cov.dim > row_cap:
        raise SizeCapError(
            f"refusing to materialize a {cov.dim} x {cov.dim} covariance (cap {row_cap} rows)"
        )
    return cov.amplitude**2 * np.kron(cov.param_factor, cov.spatial_factor)
