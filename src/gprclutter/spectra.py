"""Clutter covariance formation and spectral/subspace diagnostics.

The theoretical clutter covariance is the image of the perturbation
covariance under the Born operator, R_c = A R_mu A^H. With the factored
operator A_q = D_q K and R_mu = s^2 B x C it reduces to the Hadamard
product s^2 (K C K^H) o (Psi^T B Psi^*), so neither the Kronecker-form
R_mu nor the dense operator is ever materialized. Diagnostics are the
effective rank (exponential of the eigenvalue entropy), threshold subspace
dimensions p_rho, and the overlap eta / leakage gamma of a steering vector
with the dominant eigenspace.
"""

from __future__ import annotations

import dataclasses
import math
import types
from collections.abc import Mapping

import numpy as np

from .errors import ConfigError, InvariantError, UndefinedSpectrumError
from .forward import ForwardMatrix, SteeringVector
from .randfield import PerturbationCovariance, row_slices

#: Hermitian deviation tolerated, relative to the largest entry magnitude.
HERMITIAN_RTOL = 1e-12

#: Eigenvalues above -NEGATIVE_EIG_RTOL * lambda_max are clipped to zero;
#: anything more negative violates the PSD invariant.
NEGATIVE_EIG_RTOL = 1e-10

#: Eigenvalue-mass fractions rho whose subspace dimensions p_rho a summary reports.
DEFAULT_RHO_LEVELS = (0.9, 0.95)

#: :func:`kernel_gram` works on this many row blocks of the kernels at a time
#: (quarters): at P = 1728 halves kept 2.85 MB more at the peak, and one
#: transmit block per tile took 35% longer.
GRAM_ROW_BLOCKS = 4

PROVENANCES = ("theoretical", "monte-carlo-exact")


@dataclasses.dataclass(frozen=True, eq=False)
class ClutterCovariance:
    """Hermitian channel-domain covariance with a provenance tag."""

    matrix: np.ndarray
    provenance: str

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise InvariantError(f"covariance must be square, got {matrix.shape}")
        if self.provenance not in PROVENANCES:
            raise ConfigError(f"unknown provenance {self.provenance!r}")
        matrix = matrix.copy()
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


@dataclasses.dataclass(frozen=True, eq=False)
class SpectralSummary:
    """Descending eigenvalues of a clutter covariance and derived metrics.

    ``eigenvectors`` holds LAPACK's unit columns in that order. A column's
    phase is unspecified but the same for equal input: every output reads
    the columns only through |U_p^H a|^2 and U_p U_p^H, which it leaves.

    Instances are immutable: the arrays are read-only copies and ``p_rho``
    a read-only mapping, so one summary can be shared.
    """

    eigenvalues: np.ndarray
    normalized_eigenvalues: np.ndarray
    r_eff: float
    p_rho: Mapping[float, int]
    trace: float
    eigenvectors: np.ndarray
    provenance: str

    def __post_init__(self):
        for name in ("eigenvalues", "normalized_eigenvalues", "eigenvectors"):
            value = np.array(getattr(self, name))
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "p_rho", types.MappingProxyType(dict(self.p_rho)))

    def to_dict(self) -> dict:
        """JSON-ready document: eigenvalues, metrics, provenance."""
        return {
            "eigenvalues": self.eigenvalues.tolist(),
            "normalized_eigenvalues": self.normalized_eigenvalues.tolist(),
            "r_eff": self.r_eff,
            "p_rho": {repr(level): dim for level, dim in self.p_rho.items()},
            "trace": self.trace,
            "provenance": self.provenance,
        }


def clutter_covariance(
    forward: ForwardMatrix, cov: PerturbationCovariance
) -> ClutterCovariance:
    """Theoretical clutter covariance A R_mu A^H through the factored operator.

    With A_q = D_q K (``forward.kernels`` and ``forward.sensitivities``),
    R_c = s^2 sum_{q,q'} B[q,q'] D_q K C K^H D_q'^* = s^2 (K C K^H) o W,
    where B is the parameter factor, C the spatial factor and W[i, j] =
    sum_{q,q'} psi_q(row i) B[q,q'] psi_q'(row j)^*: the
    :func:`kernel_gram` weighted by :func:`weighted_gram`.
    """
    return weighted_gram(forward, kernel_gram(forward, cov), cov.param_factor, cov.amplitude)


def kernel_gram(forward: ForwardMatrix, cov: PerturbationCovariance) -> np.ndarray:
    """The Gram K C K^H of the kernels under the spatial factor, shape (M N, M N).

    It does not depend on the parameter factor or the amplitude, so one
    Gram serves every such setting over one spatial factor. It is formed in
    tiles over GRAM_ROW_BLOCKS blocks of K's rows: block i of K C times the
    conjugate transpose of block j, so no (M N, P) copy of K is made.
    Nonzero kernels whose Gram underflows to zero, and a Gram beyond the
    float range, are an UndefinedSpectrumError that names the underflow or
    the overflow.
    """
    if forward.n_cells != cov.spatial.n_cells:
        raise ConfigError(
            f"forward operator has {forward.n_cells} cells, covariance {cov.spatial.n_cells}"
        )
    kernels = forward.kernels
    n_rows = kernels.shape[0]
    blocks = row_slices(n_rows, -(-n_rows // GRAM_ROW_BLOCKS))
    gram = np.empty((n_rows, n_rows), dtype=complex)
    # The kernels are finite (assemble_forward), so a non-finite Gram overflowed.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in blocks:
            weighted = _kernel_product(cov.spatial.product, kernels[i])
            for j in blocks:
                np.matmul(weighted, kernels[j].conj().T, out=gram[i, j])
            del weighted  # the next row block's product is formed without this one
    if not np.isfinite(gram).all():
        raise UndefinedSpectrumError(
            "covariance overflows: the kernel Gram exceeds the float range, "
            f"with a largest kernel magnitude of {float(np.abs(kernels).max())!r}")
    if not gram.any() and kernels.any():
        raise UndefinedSpectrumError(
            "covariance underflows to zero: the kernel Gram is below the float range, "
            f"with a largest kernel magnitude of {float(np.abs(kernels).max())!r}")
    return gram


def weighted_gram(
    forward: ForwardMatrix, gram: np.ndarray, param_factor: np.ndarray, amplitude: float
) -> ClutterCovariance:
    """s^2 gram o W, Hermitian-symmetrized, for a :func:`kernel_gram` of ``forward``.

    W[i, j] = sum_{q,q'} psi_q(row i) B[q,q'] psi_q'(row j)^* with B the
    parameter factor. ``gram`` is read, not changed. A product beyond the
    float range is an UndefinedSpectrumError that names the amplitude.
    """
    psi = forward.row_sensitivities()                       # (5, MN)
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = gram * (psi.T @ param_factor @ psi.conj())
        matrix *= np.float64(amplitude)**2  # inf where a float's square raises OverflowError
        matrix = 0.5 * (matrix + matrix.conj().T)
    if not np.isfinite(matrix).all():
        raise UndefinedSpectrumError(
            "covariance overflows: the weighted kernel Gram times the amplitude squared "
            f"exceeds the float range, at amplitude {amplitude!r}")
    return ClutterCovariance(matrix=matrix, provenance="theoretical")


def _kernel_product(operation, kernels: np.ndarray) -> np.ndarray:
    """K M for a real P-column operator M given as ``operation(X) = X M``.

    The operation runs once, on the real rows of K stacked over its
    imaginary rows, and the two halves are written into one complex array.
    """
    n_rows = kernels.shape[0]
    product = operation(np.concatenate((kernels.real, kernels.imag)))
    result = np.empty((n_rows, product.shape[1]), dtype=complex)
    result.real, result.imag = product[:n_rows], product[n_rows:]
    return result


def _validated_eigensystem(cov: ClutterCovariance) -> tuple[np.ndarray, np.ndarray]:
    matrix = cov.matrix
    if not np.isfinite(matrix).all():
        raise InvariantError(f"{cov.provenance} covariance has non-finite entries")
    scale = np.abs(matrix).max()
    if scale == 0.0:
        raise UndefinedSpectrumError("covariance is identically zero")
    deviation = np.abs(matrix - matrix.conj().T).max()
    if deviation > HERMITIAN_RTOL * scale:
        raise InvariantError(
            f"covariance deviates from Hermitian symmetry by {float(deviation)!r} "
            f"(tolerance {float(HERMITIAN_RTOL * scale)!r})"
        )
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    eigenvalues, eigenvectors = eigenvalues[::-1], eigenvectors[:, ::-1]  # eigh ascends
    lam_max = max(eigenvalues[0], 0.0)
    if eigenvalues[-1] < -NEGATIVE_EIG_RTOL * lam_max:
        raise InvariantError(
            f"eigenvalue {float(eigenvalues[-1])!r} below the PSD tolerance "
            f"{float(-NEGATIVE_EIG_RTOL * lam_max)!r}"
        )
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    return eigenvalues, eigenvectors


def spectral_summary(cov: ClutterCovariance) -> SpectralSummary:
    """Eigendecomposition plus effective rank and subspace dimensions.

    The effective rank is exp(-sum nu ln nu) over the normalized spectrum
    with 0 ln 0 = 0; p_rho, for each rho of ``DEFAULT_RHO_LEVELS``, is the
    smallest dominant-subspace size capturing the fraction rho of total
    eigenvalue mass.
    """
    eigenvalues, eigenvectors = _validated_eigensystem(cov)
    total = eigenvalues.sum()
    if total <= 0.0:
        raise UndefinedSpectrumError("covariance trace is zero")
    normalized = eigenvalues / total
    positive = normalized[normalized > 0.0]
    entropy = float(-(positive * np.log(positive)).sum())
    cumulative = np.cumsum(normalized)
    p_rho = {rho: int(np.searchsorted(cumulative, rho - 1e-12, side="left")) + 1
             for rho in DEFAULT_RHO_LEVELS}
    return SpectralSummary(
        eigenvalues=eigenvalues,
        normalized_eigenvalues=normalized,
        r_eff=float(np.exp(entropy)),
        p_rho=p_rho,
        trace=float(total),
        eigenvectors=eigenvectors,
        provenance=cov.provenance,
    )


def target_overlap(
    summary: SpectralSummary, steering: SteeringVector, p: int
) -> tuple[float, float]:
    """Energy fractions (eta, gamma) of a steering vector inside/outside
    the span of the top-p clutter eigenvectors; rounding never lifts eta above 1."""
    size = summary.eigenvectors.shape[0]
    if not 1 <= p <= size:
        raise ConfigError(f"subspace dimension {p!r} outside [1, {size}]")
    basis = summary.eigenvectors[:, :p]
    a = steering.values
    eta = min(float(np.linalg.norm(basis.conj().T @ a) ** 2 / np.linalg.norm(a) ** 2), 1.0)
    return eta, 1.0 - eta


def scale_covariance(cov: ClutterCovariance, kappa: float) -> ClutterCovariance:
    """Global power scaling kappa * R; the normalized spectrum is unchanged."""
    if not kappa > 0.0:
        raise ConfigError(f"scale factor must be positive, got {kappa!r}")
    return ClutterCovariance(matrix=kappa * cov.matrix, provenance=cov.provenance)


def add_noise_floor(cov: ClutterCovariance, snr_db: float) -> ClutterCovariance:
    """Observation covariance R + sigma_n^2 I for a given SNR in dB.

    SNR is defined as average clutter power per channel over the noise
    power: sigma_n^2 = tr(R) / (MN * 10^(snr/10)). Eigenvectors are
    unchanged; every eigenvalue shifts by sigma_n^2.
    """
    trace = cov.trace
    if trace <= 0.0:
        raise UndefinedSpectrumError("noise floor undefined for zero-trace covariance")
    # 10^(-snr/10) underflows to zero at a very high SNR, which is harmless;
    # at a very low SNR it, or the noise power, overflows.
    try:
        sigma_sq = (trace / cov.size) * 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        sigma_sq = math.inf
    if not math.isfinite(sigma_sq):
        raise ConfigError(f"snr_db {snr_db!r} gives a non-finite noise power {sigma_sq!r}")
    matrix = cov.matrix + sigma_sq * np.eye(cov.size)
    return ClutterCovariance(matrix=matrix, provenance=cov.provenance)
