"""Standardized Gaussian perturbation field with separable covariance.

The covariance of the stacked physical perturbation vector is

    R_mu = s_mu^2 * (D W Rho W D) x C,

a Kronecker product of a 5x5 parameter factor (scales D, weights W, uniform
cross-correlation Rho) and a PxP spatial correlation factor C (nugget
included). On the tensor grid the squared-exponential kernel separates per
axis, C = C_x x C_z + nugget I, and the spatial factor is held as C_x and
C_z alone: products, the sampler's square root and the eigenvectors all go
through the two axis factors and the PxP matrix is never formed. Samples
are amplitude * (L_param x S) z with L_param the Cholesky factor of the
parameter factor and S S^T = C: S is the Cholesky factor of a dense C, and
the exact eigen root (U_x x U_z) diag(sqrt(lam_x x lam_z + nugget)) of a
separable one. Each sample's standard normals come from a private substream
keyed on (master seed, sample index), so draws are reproducible and
independent of batching or worker count.
"""

from __future__ import annotations

import copy
import functools

import numpy as np

from .constitutive import N_PARAMS
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
#: beside the mixed block.
EXACT_CHUNK_VALUES = 2**16


def build_spatial_factor(
    cell_centers: np.ndarray, corr_length: float, kernel: str = "squared_exponential"
) -> np.ndarray:
    """Spatial correlation factor over (x, z) distances, with nugget.

    The squared-exponential kernel exp(-d^2 / (2 l^2)) is the default; an
    exponential kernel exp(-d / l) is available behind the same interface.
    One isotropic length governs both axes.
    """
    _check_kernel(corr_length, kernel)
    pts = np.asarray(cell_centers, dtype=float)
    dist_sq = _pairwise_squares(pts[:, 0])
    dist_sq += _pairwise_squares(pts[:, 2])
    if kernel == "squared_exponential":
        dist_sq /= -(2.0 * corr_length * corr_length)
    else:
        np.sqrt(dist_sq, out=dist_sq)
        dist_sq /= -corr_length
    factor = np.exp(dist_sq, out=dist_sq)
    factor[np.diag_indices_from(factor)] += SPATIAL_NUGGET
    return factor


def _check_kernel(corr_length: float, kernel: str) -> None:
    if corr_length <= 0.0:
        raise ConfigError(f"correlation length must be positive, got {corr_length!r}")
    if kernel not in SPATIAL_KERNELS:
        raise ConfigError(f"unknown spatial kernel {kernel!r} (known: {SPATIAL_KERNELS})")


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
    product. kron(a, b) is never formed. Without ``out`` the block is one
    group. ``out`` may be ``block`` itself: groups then hold at most
    EXACT_CHUNK_VALUES values, each consumed by its first product before it
    is overwritten, so the intermediate holds one group, not the block.
    With OpenBLAS the grouped products carry the one-shot product's bits.
    """
    rows = block.shape[0]
    n_x, n_z = a.shape[0], b.shape[0]
    if out is None:
        out, step = np.empty(block.shape), max(rows, 1)
    else:
        step = max(1, EXACT_CHUNK_VALUES // (n_x * n_z))
    target = out.reshape(rows, n_x, n_z)
    for first in range(0, rows, step):
        group = slice(first, first + step)
        inner = block[group].reshape(-1, n_z) @ b.T
        np.matmul(a, inner.reshape(-1, n_x, n_z), out=target[group])
        del inner  # freed before the next group's product
    return out


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


class PerturbationCovariance:
    """R_mu in Kronecker form plus its sampler inputs.

    The spatial factor C is given either dense, as the P x P
    ``spatial_factor`` with the nugget, or separable, as the pair
    ``spatial_axes = (C_x, C_z)`` of n_x x n_x and n_z x n_z axis factors
    without it: for cells ordered p = ix * n_z + iz,
    C = C_x x C_z + SPATIAL_NUGGET * I. The form not given reads None.
    Products with a separable C, its square root and its eigenvectors go
    through the axis factors: its P x P matrix is never formed, nor, for
    either form, the 5P x 5P matrix amplitude^2 * (param_factor x C).
    Instances are immutable.
    """

    def __init__(
        self,
        param_factor: np.ndarray,
        spatial_factor: np.ndarray | None = None,
        *,
        amplitude: float,
        spatial_axes: tuple[np.ndarray, np.ndarray] | None = None,
    ):
        if (spatial_factor is None) == (spatial_axes is None):
            raise ConfigError("give exactly one of spatial_factor and spatial_axes")
        param = np.asarray(param_factor, dtype=float)
        if param.shape != (N_PARAMS, N_PARAMS):
            raise ConfigError(f"param factor must be 5x5, got {param.shape}")
        _check_amplitude(amplitude)
        if spatial_axes is None:
            dense, axes = _frozen_factor("spatial_factor", spatial_factor), None
        else:
            c_x, c_z = spatial_axes
            dense = None
            axes = (_frozen_factor("spatial_axes[0]", c_x), _frozen_factor("spatial_axes[1]", c_z))
        self.__dict__.update(
            param_factor=_frozen_factor("param_factor", param),
            spatial_factor=dense,
            spatial_axes=axes,
            amplitude=amplitude,
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def n_cells(self) -> int:
        if self.spatial_axes is None:
            return self.spatial_factor.shape[0]
        c_x, c_z = self.spatial_axes
        return c_x.shape[0] * c_z.shape[0]

    @property
    def dim(self) -> int:
        return N_PARAMS * self.n_cells

    @functools.cached_property
    def param_cholesky(self) -> np.ndarray:
        return _cholesky(self.param_factor, "parameter factor")

    @functools.cached_property
    def spatial_cholesky(self) -> np.ndarray:
        """The Cholesky factor of a dense C; a separable C is sampled
        through its eigen root (see :func:`_mix`) and has none."""
        if self.spatial_factor is None:
            raise ConfigError("a separable spatial factor has no dense Cholesky factor")
        return _cholesky(self.spatial_factor, "spatial factor")

    @functools.cached_property
    def _spatial_eigh(self) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """Eigenvalues lam_x x lam_z + nugget of a separable C, and its
        eigenvectors U_x x U_z in the same order, as (U_x, U_z)."""
        (lam_x, u_x), (lam_z, u_z) = (np.linalg.eigh(f) for f in self.spatial_axes)
        lam = np.outer(lam_x, lam_z).ravel()
        lam += _STORED_NUGGET
        return lam, (u_x, u_z)

    def spatial_product(self, block: np.ndarray) -> np.ndarray:
        """block @ C for a real (m, P) block."""
        if self.spatial_axes is None:
            return block @ self.spatial_factor
        product = _kron_rows(block, *self.spatial_axes)
        product += _STORED_NUGGET * block
        return product

    def with_amplitude(self, amplitude: float) -> "PerturbationCovariance":
        """The same factors, and their cached factorizations, at another amplitude."""
        _check_amplitude(amplitude)
        clone = copy.copy(self)
        clone.__dict__["amplitude"] = amplitude
        return clone


def _check_amplitude(amplitude: float) -> None:
    if amplitude < 0.0:
        raise ConfigError(f"amplitude must be nonnegative, got {amplitude!r}")


def _frozen_factor(name: str, value) -> np.ndarray:
    """A read-only copy of a square, finite, symmetric factor."""
    value = np.array(value, dtype=float)
    if value.ndim != 2 or value.shape[0] != value.shape[1]:
        raise ConfigError(f"{name} must be square, got {value.shape}")
    # The largest magnitude is nan or inf exactly when an entry is.
    scale = np.abs(value).max()
    if not np.isfinite(scale):
        raise ConfigError(f"{name} has non-finite entries")
    if np.abs(value - value.T).max() > 1e-12 * max(1.0, scale):
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


def build_covariance(
    scenario: Scenario,
    cell_centers: np.ndarray,
    corr_length: float,
    rho_c: float,
    weights,
    amplitude: float,
    kernel: str = "squared_exponential",
) -> PerturbationCovariance:
    """Convenience constructor assembling both Kronecker factors.

    The squared-exponential kernel separates per axis,
    exp(-(dx^2 + dz^2) / (2 l^2)) = exp(-dx^2 / (2 l^2)) exp(-dz^2 / (2 l^2)),
    so on cells forming the tensor grid (see :class:`SceneGeometry`) the
    spatial factor is built as its axis factors over the distinct x and z
    values. The exponential kernel, which does not separate, and any other
    cell set get the dense :func:`build_spatial_factor`.
    """
    param = build_param_factor(scenario, weights, rho_c)
    axes = _grid_axes(cell_centers) if kernel == "squared_exponential" else None
    if axes is None:
        return PerturbationCovariance(
            param_factor=param,
            spatial_factor=build_spatial_factor(cell_centers, corr_length, kernel),
            amplitude=amplitude,
        )
    _check_kernel(corr_length, kernel)
    scale = -(2.0 * corr_length * corr_length)
    return PerturbationCovariance(
        param_factor=param,
        spatial_axes=tuple(np.exp(_pairwise_squares(v) / scale) for v in axes),
        amplitude=amplitude,
    )


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
        draws[row] = rng.standard_normal(dim)
    return draws


def sample_perturbations(
    cov: PerturbationCovariance, count: int, seed: int, *, start: int = 0
) -> np.ndarray:
    """Draw perturbation samples start, ..., start + count - 1, shape (count, 5P).

    The normals of :func:`standard_normal_draws`, mixed by :func:`_mix`.
    The normals of sample i depend only on (seed, i). The mixed values can
    differ in the last bit between batch sizes, because the GEMM's
    rounding depends on the row count.
    """
    return _mix(cov, standard_normal_draws(cov.dim, count, seed, start=start))


def _mix(cov: PerturbationCovariance, normals: np.ndarray) -> np.ndarray:
    """The samples amplitude * (L_param x S) z of standard normals z, shape (count, 5P).

    L_param is the Cholesky factor of the parameter factor and S S^T = C.
    The Kronecker product is applied in factored matrix form: the 5x5
    parameter mix of every sample, then S on all 5 * count parameter rows
    at once. S is the Cholesky factor of a dense C, applied as one GEMM. A
    separable C takes the exact eigen root
    S = (U_x x U_z) diag(sqrt(lam_x x lam_z + nugget)), whose S S^T is
    C_x x C_z + nugget I, applied through the axis factors and written back
    into the mixed rows. Entry q * P + p of a sample is the perturbation of
    parameter q at cell p.

    ``normals`` holds one z per row and is read, not written, so one block
    of normals can be mixed with several covariances of the same size.
    """
    count = normals.shape[0]
    mixed = np.matmul(cov.param_cholesky, normals.reshape(count, N_PARAMS, cov.n_cells))
    # Frees the normals before the spatial mix when the caller keeps none,
    # as in sample_perturbations.
    del normals
    rows = mixed.reshape(count * N_PARAMS, cov.n_cells)
    if cov.spatial_axes is None:
        samples = rows @ cov.spatial_cholesky.T
        del mixed, rows
        samples *= cov.amplitude
    else:
        lam, (u_x, u_z) = cov._spatial_eigh
        if lam.min() <= 0.0:
            raise NonPositiveDefiniteError(
                "spatial factor is not positive definite: "
                f"smallest eigenvalue {float(lam.min())!r}"
            )
        rows *= cov.amplitude * np.sqrt(lam)
        samples = _kron_rows(rows, u_x, u_z, out=rows)
    return samples.reshape(count, cov.dim)
