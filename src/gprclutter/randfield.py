"""Standardized Gaussian perturbation field with separable covariance.

The covariance of the stacked physical perturbation vector is

    R_mu = s_mu^2 * (D W Rho W D) x C,

a Kronecker product of a 5x5 parameter factor (scales D, weights W, uniform
cross-correlation Rho) and a PxP spatial correlation factor C (nugget
included). C depends only on the cells, the correlation length and the
kernel, so one :class:`SpatialCorrelation` serves every scenario of a run
(:func:`spatial_correlation`) and its square root is factored once. On the
tensor grid the squared-exponential kernel separates per axis,
C = C_x x C_z + nugget I, and C is held as C_x and C_z alone: products,
the sampler's square root and the eigenvectors all go through the two axis
factors and the PxP matrix is never formed. Samples are
amplitude * (L_param x S) z with L_param the Cholesky factor of the
parameter factor and S S^T = C: S is the Cholesky factor of a dense C, and
the exact eigen root (U_x x U_z) diag(sqrt(lam_x x lam_z + nugget)) of a
separable one. They are applied as (L_param x I)(I x S) z: the spatial
root once per block of normals, in place, then each covariance's 5x5
parameter factor, so covariances on one correlation mix one block of
normals once. Each sample's standard normals come from a private substream
keyed on (master seed, sample index), so draws are reproducible and
independent of batching or worker count.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .constitutive import N_PARAMS, PARAMETER_NAMES
from .errors import ConfigError, NonPositiveDefiniteError
from .scene import Scenario

#: Diagonal nugget applied to the spatial factor before factorization;
#: large correlation lengths make it numerically rank deficient.
SPATIAL_NUGGET = 1e-10

# The nugget as a unit diagonal holds it, fl(1 + SPATIAL_NUGGET) - 1. The
# separable path adds this value, so that it applies the same diagonal as
# the dense factor; the tail of the clutter spectrum sits at nugget level
# and resolves the 1e-16 difference.
_STORED_NUGGET = (1.0 + SPATIAL_NUGGET) - 1.0

#: Identifier of the sampling RNG scheme and of the spatial square root,
#: recorded in output metadata.
RNG_SCHEME = (
    "pcg64-seedseq(master_seed, sample_index); spatial root: "
    "axis eigen root (U_x x U_z) sqrt(lam_x x lam_z + nugget) on a separable grid, "
    "cholesky otherwise"
)

SPATIAL_KERNELS = ("squared_exponential", "exponential")

#: Values per chunk of a Monte Carlo temporary, at least one row, so peak
#: memory grows with neither the sample count nor the block. Exact contrast
#: goes through sample x frequency x cell chunks of this many complex values
#: (1 MiB, ``montecarlo``); evaluating one holds two chunks, the contrast
#: being written and the kernel's real and imaginary parts. The spatial mix
#: goes through row groups of this many floats (512 KiB, :func:`_kron_rows`)
#: inside the block it overwrites.
EXACT_CHUNK_VALUES = 2**16


def row_slices(count: int, cap: int) -> list[slice]:
    """Slices of rows 0..count-1, in order, each of at most ``cap`` rows (at least one).

    There are ceil(count / cap) slices, none for no rows, and their sizes
    differ by at most one, the larger first: 64 rows at a cap of 15 give
    13, 13, 13, 13 and 12 rather than a ragged 4-row tail, the piece that
    costs most per value. Every streamed split of the chain goes through it.
    """
    pieces = -(-count // max(1, cap))
    size, larger = divmod(count, max(1, pieces))
    starts = [k * size + min(k, larger) for k in range(pieces + 1)]
    return [slice(first, stop) for first, stop in zip(starts, starts[1:])]


def build_spatial_factor(
    cell_centers: np.ndarray, corr_length: float, kernel: str = "squared_exponential"
) -> np.ndarray:
    """Spatial correlation factor over (x, z) distances, with nugget.

    The squared-exponential kernel exp(-d^2 / (2 l^2)) is the default; an
    exponential kernel exp(-d / l) is available behind the same interface.
    One isotropic length governs both axes.
    """
    pts = _checked_cells(cell_centers, corr_length, kernel)
    dist_sq = _pairwise_squares(pts[:, 0])
    dist_sq += _pairwise_squares(pts[:, 2])
    # A tiny length divides distances into -inf, and exp(-inf) = 0 is the
    # kernel's own limit: the overflow is not an error.
    with np.errstate(over="ignore"):
        if kernel == "squared_exponential":
            dist_sq /= -(2.0 * corr_length * corr_length)
        else:
            np.sqrt(dist_sq, out=dist_sq)
            dist_sq /= -corr_length
        factor = np.exp(dist_sq, out=dist_sq)
    factor[np.diag_indices_from(factor)] += SPATIAL_NUGGET
    return factor


def _checked_cells(cell_centers, corr_length: float, kernel: str) -> np.ndarray:
    """The checked (P, 3) cell centers, C-contiguous, for a checked length and kernel."""
    if not 0.0 < corr_length < math.inf:
        raise ConfigError(f"corr_length must be positive and finite, got {corr_length!r}")
    if kernel not in SPATIAL_KERNELS:
        raise ConfigError(f"unknown spatial kernel {kernel!r} (known: {SPATIAL_KERNELS})")
    if kernel == "squared_exponential" and 2.0 * corr_length * corr_length == 0.0:
        raise ConfigError(f"corr_length {corr_length!r} is too small for the squared-exponential "
                          "kernel: 2 corr_length^2 underflows to 0")
    cells = np.ascontiguousarray(cell_centers, dtype=float)
    if cells.ndim != 2 or cells.shape[1] != 3 or cells.shape[0] == 0:
        raise ConfigError(f"cell_centers must have shape (P, 3), P >= 1, got {cells.shape}")
    return cells


def _pairwise_squares(values: np.ndarray) -> np.ndarray:
    """(v_i - v_j)^2 for all pairs of a 1-D array."""
    table = values[:, None] - values[None, :]
    table *= table
    return table


def _grid_axes(cell_centers: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The distinct x and z values when the cells form the tensor grid.

    That is: n_x * n_z = P cells whose row p is cell (ix, iz) with
    p = ix * n_z + iz, ix and iz counting the ascending distinct values.
    Any other cell set gives None.
    """
    pts = np.asarray(cell_centers, dtype=float)
    xs, ix = np.unique(pts[:, 0], return_inverse=True)
    zs, iz = np.unique(pts[:, 2], return_inverse=True)
    rows = np.arange(pts.shape[0])
    if xs.size * zs.size != rows.size:
        return None
    if np.any(ix != rows // zs.size) or np.any(iz != rows % zs.size):
        return None
    return xs, zs


def _kron_rows(block: np.ndarray, a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """block @ kron(a, b)^T for a C-contiguous (m, n_x * n_z) block.

    Row r, read as the n_x x n_z matrix Y, maps to a Y b^T. Per group of
    rows, b acts on the trailing axis as one GEMM of the (group * n_x, n_z)
    reshape, then a acts on the middle axis of the (group, n_x, n_z)
    product. kron(a, b) is never formed. Groups are the :func:`row_slices`
    of at most EXACT_CHUNK_VALUES values, so the intermediate holds one
    group, not the block. ``out`` may be ``block`` itself: each group is
    consumed by its first product before it is overwritten. With OpenBLAS
    the grouped products carry the one-shot product's bits.
    """
    n_x, n_z = a.shape[0], b.shape[0]
    if out is None:
        out = np.empty(block.shape)
    target = out.reshape(-1, n_x, n_z)
    for group in row_slices(block.shape[0], EXACT_CHUNK_VALUES // (n_x * n_z)):
        inner = block[group].reshape(-1, n_z) @ b.T
        np.matmul(a, inner.reshape(-1, n_x, n_z), out=target[group])
        del inner  # freed before the next group's product
    return out


def build_param_factor(scenario: Scenario, weights, rho_c: float) -> np.ndarray:
    """5x5 parameter factor d_q w_q rho_{qq'} w_{q'} d_{q'} in physical units."""
    if not 0.0 <= rho_c < 1.0:
        raise ConfigError(f"rho_c must lie in [0, 1), got {rho_c!r}")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (N_PARAMS,) or not np.all((weights >= 0.0) & (weights < math.inf)):
        raise ConfigError(f"weights must be 5 nonnegative finite reals, got {weights!r}")
    rho = np.full((N_PARAMS, N_PARAMS), rho_c)
    np.fill_diagonal(rho, 1.0)
    scaled = scenario.d_mu * weights
    return scaled[:, None] * rho * scaled[None, :]


class SpatialCorrelation:
    """The P x P spatial correlation factor C of R_mu, with its square root.

    ``factors`` holds either C, P x P with the nugget (dense), or the axis
    factors (C_x, C_z) without it (separable): for cells ordered
    p = ix * n_z + iz, C = C_x x C_z + SPATIAL_NUGGET * I. Only this class
    reads the form. A separable C's products, root and eigenvectors go
    through the axis factors; its P x P matrix is never formed. The root is
    factored on first use and kept for every covariance on this instance.
    Instances are immutable.
    """

    def __init__(self, *factors):
        if len(factors) not in (1, 2):
            raise ConfigError(f"give one dense or two axis factors, got {len(factors)}")
        self.__dict__["factors"] = tuple(_frozen_factor(f"spatial factors[{i}]", f)
                                         for i, f in enumerate(factors))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def n_cells(self) -> int:
        return math.prod(f.shape[0] for f in self.factors)

    @functools.cached_property
    def root(self):
        """The root S, S S^T = C, that :meth:`mix` applies; C must be positive
        definite. A dense C's is its Cholesky factor; a separable C's is
        (lam, (U_x, U_z)): the eigenvalues lam_x x lam_z + nugget and, in the
        same order, the eigenvectors U_x x U_z."""
        if len(self.factors) == 1:
            return _cholesky(self.factors[0], "spatial factor")
        (lam_x, u_x), (lam_z, u_z) = (np.linalg.eigh(f) for f in self.factors)
        lam = np.outer(lam_x, lam_z).ravel()
        lam += _STORED_NUGGET
        if lam.min() <= 0.0:
            raise NonPositiveDefiniteError("spatial factor is not positive definite: "
                                           f"smallest eigenvalue {float(lam.min())!r}")
        return lam, (u_x, u_z)

    def product(self, block: np.ndarray) -> np.ndarray:
        """block @ C for a real (m, P) block."""
        if len(self.factors) == 1:
            return block @ self.factors[0]
        product = _kron_rows(block, *self.factors)
        product += _STORED_NUGGET * block
        return product

    def mix(self, normals: np.ndarray) -> np.ndarray:
        """The rows (I x S) z of standard normals z, shape (count * 5, P).

        Row 5 i + q is S applied to the P normals of parameter q of sample i.
        A dense root is one GEMM into new rows; a separable one overwrites the
        C-contiguous ``normals`` and allocates one row group (:func:`_kron_rows`).
        """
        rows = normals.reshape(-1, self.n_cells)
        if len(self.factors) == 1:
            return rows @ self.root.T
        lam, (u_x, u_z) = self.root
        rows *= np.sqrt(lam)
        return _kron_rows(rows, u_x, u_z, out=rows)


class PerturbationCovariance:
    """R_mu = amplitude^2 * (param_factor x C) in Kronecker form.

    ``spatial`` is C, a :class:`SpatialCorrelation` that the covariances of
    a run share with its root. The 5P x 5P matrix is never formed.
    Instances are immutable.
    """

    def __init__(self, param_factor: np.ndarray, spatial: SpatialCorrelation,
                 amplitude: float):
        param = np.asarray(param_factor, dtype=float)
        if param.shape != (N_PARAMS, N_PARAMS):
            raise ConfigError(f"param factor must be 5x5, got {param.shape}")
        if not isinstance(spatial, SpatialCorrelation):
            raise ConfigError(f"spatial must be a SpatialCorrelation, got {type(spatial).__name__}")
        if not 0.0 <= amplitude < math.inf:
            raise ConfigError(f"amplitude must be nonnegative and finite, got {amplitude!r}")
        self.__dict__.update(param_factor=_frozen_factor("param_factor", param),
                             spatial=spatial, amplitude=amplitude)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def dim(self) -> int:
        return N_PARAMS * self.spatial.n_cells

    @functools.cached_property
    def param_cholesky(self) -> np.ndarray:
        """The parameter factor's Cholesky factor; a singular one's error names
        each channel of zero variance."""
        zero = [repr(q) for q, v in zip(PARAMETER_NAMES, np.diag(self.param_factor)) if v == 0]
        if zero:
            raise NonPositiveDefiniteError("parameter factor is not positive definite: "
                                           f"zero variance in channel(s) {', '.join(zero)}")
        return _cholesky(self.param_factor, "parameter factor")

    def with_amplitude(self, amplitude: float) -> "PerturbationCovariance":
        """The same factors at another amplitude, on the same ``spatial`` and its root."""
        return PerturbationCovariance(self.param_factor, self.spatial, amplitude)


def _frozen_factor(name: str, value) -> np.ndarray:
    """A read-only copy of a square, non-empty, finite, symmetric factor."""
    value = np.array(value, dtype=float)
    if value.ndim != 2 or value.shape[0] != value.shape[1] or value.size == 0:
        raise ConfigError(f"{name} must be square with at least one row, got {value.shape}")
    # The largest magnitude is nan or inf exactly when an entry is.
    scale = max(value.max(), -value.min())
    if not np.isfinite(scale):
        raise ConfigError(f"{name} has non-finite entries")
    # Symmetry is checked in row blocks of EXACT_CHUNK_VALUES values: no P x P temporary.
    for rows in row_slices(value.shape[0], EXACT_CHUNK_VALUES // value.shape[0]):
        deviation = value[rows] - value[:, rows].T
        if np.abs(deviation, out=deviation).max() > 1e-12 * max(1.0, scale):
            raise ConfigError(f"{name} must be symmetric")
    value.flags.writeable = False
    return value


def _cholesky(matrix: np.ndarray, what: str) -> np.ndarray:
    try:
        factor = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise NonPositiveDefiniteError(f"{what} is not positive definite: {exc}") from exc
    factor.flags.writeable = False
    return factor


#: Spatial correlations one process keeps. A run needs one: C depends on
#: neither the scenario nor the amplitude. A dense one at P=1728 holds
#: 24 MB, and its Cholesky root 24 MB more, so the memo keeps only one.
SPATIAL_MEMO_SIZE = 1


def spatial_correlation(
    cell_centers: np.ndarray, corr_length: float, kernel: str = "squared_exponential"
) -> SpatialCorrelation:
    """The spatial correlation of ``kernel`` over the cells; equal cells,
    length and kernel give the memo's one instance.

    The squared-exponential kernel separates per axis,
    exp(-(dx^2 + dz^2) / (2 l^2)) = exp(-dx^2 / (2 l^2)) exp(-dz^2 / (2 l^2)),
    so on cells forming the tensor grid (see :class:`SceneGeometry`) C is
    built as its axis factors over the distinct x and z values. The
    exponential kernel, which does not separate, and any other cell set get
    the dense :func:`build_spatial_factor`.
    """
    cells = _checked_cells(cell_centers, corr_length, kernel)
    return _shared_correlation(cells.tobytes(), cells.shape[0], float(corr_length), kernel)


@functools.lru_cache(maxsize=SPATIAL_MEMO_SIZE)
def _shared_correlation(cells: bytes, n_cells: int, corr_length: float, kernel: str):
    pts = np.frombuffer(cells).reshape(n_cells, 3)
    axes = _grid_axes(pts) if kernel == "squared_exponential" else None
    if axes is None:
        return SpatialCorrelation(build_spatial_factor(pts, corr_length, kernel))
    scale = -(2.0 * corr_length * corr_length)
    with np.errstate(over="ignore"):  # exp(-inf) = 0, as in build_spatial_factor
        factors = [np.exp(_pairwise_squares(v) / scale) for v in axes]
    return SpatialCorrelation(*factors)


def build_covariance(
    scenario: Scenario,
    cell_centers: np.ndarray,
    corr_length: float,
    rho_c: float,
    weights,
    amplitude: float,
    kernel: str = "squared_exponential",
) -> PerturbationCovariance:
    """Convenience constructor assembling both Kronecker factors, the
    spatial one from :func:`spatial_correlation`."""
    return PerturbationCovariance(build_param_factor(scenario, weights, rho_c),
                                  spatial_correlation(cell_centers, corr_length, kernel),
                                  amplitude)


def standard_normal_draws(dim: int, count: int, seed: int, *, start: int = 0) -> np.ndarray:
    """Substream normals of samples start, ..., start + count - 1, shape (count, dim).

    Sample i depends only on (seed, i), never on count, start or calling
    pattern, so blocks, partial batches and parallel draws reproduce the
    same values.
    """
    if count < 1:
        raise ConfigError(f"sample count must be >= 1, got {count!r}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed!r}")
    if start < 0:
        raise ConfigError(f"first sample index must be >= 0, got {start!r}")
    draws = np.empty((count, dim))
    for row, i in enumerate(range(start, start + count)):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, i))))
        rng.standard_normal(out=draws[row])
    return draws


def sample_perturbations(
    cov: PerturbationCovariance, count: int, seed: int, *, start: int = 0
) -> np.ndarray:
    """Draw perturbation samples start, ..., start + count - 1, shape (count, 5P).

    The normals of :func:`standard_normal_draws`, mixed in place by
    :meth:`SpatialCorrelation.mix` and then by :func:`_parameter_mix`. The normals of
    sample i depend only on (seed, i). The mixed values can differ in the
    last bit between batch sizes, because the GEMM's rounding depends on
    the row count.
    """
    # No name keeps the normals: a dense root's GEMM writes new rows, and
    # the normals are freed before the parameter step allocates the samples.
    return _parameter_mix(cov, cov.spatial.mix(standard_normal_draws(
        cov.dim, count, seed, start=start)))


def _parameter_mix(cov: PerturbationCovariance, spatial: np.ndarray) -> np.ndarray:
    """The samples amplitude * (L_param x I) of :meth:`SpatialCorrelation.mix` rows,
    shape (count, 5P).

    L_param is the Cholesky factor of the parameter factor; together the two
    steps give amplitude * (L_param x S) z. Entry q * P + p of a sample is
    the perturbation of parameter q at cell p. ``spatial`` is only read.
    """
    count = spatial.shape[0] // N_PARAMS
    per_sample = spatial.reshape(count, N_PARAMS, cov.spatial.n_cells)
    samples = np.matmul(cov.amplitude * cov.param_cholesky, per_sample)
    return samples.reshape(count, cov.dim)
