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

import numpy as np

from .errors import ConfigError, InvariantError, SizeCapError, UndefinedSpectrumError
from .forward import ForwardMatrix, SteeringVector
from .randfield import PerturbationCovariance

#: Hermitian deviation tolerated, relative to the largest entry magnitude.
HERMITIAN_RTOL = 1e-12

#: Eigenvalues above -NEGATIVE_EIG_RTOL * lambda_max are clipped to zero;
#: anything more negative violates the PSD invariant.
NEGATIVE_EIG_RTOL = 1e-10

DEFAULT_RHO_LEVELS = (0.9, 0.95)

#: modal_decomposition refuses perturbation dimensions above this.
MATERIALIZE_ROW_CAP = 10_000

PROVENANCES = ("theoretical", "monte-carlo-linear", "monte-carlo-exact")


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
    """Descending eigenvalues of a clutter covariance and derived metrics."""

    eigenvalues: np.ndarray
    normalized_eigenvalues: np.ndarray
    r_eff: float
    p_rho: dict[float, int]
    trace: float
    eigenvectors: np.ndarray
    provenance: str

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


@dataclasses.dataclass(frozen=True, eq=False)
class ModalDecomposition:
    """Perturbation modes mapped through the forward operator.

    ``mode_weights`` are the eigenvalues of R_mu (descending),
    ``modes`` their observation-domain images A u as columns, and
    ``reconstruction`` the weighted superposition of the modal outer
    products, equal to the clutter covariance.
    """

    mode_weights: np.ndarray
    modes: np.ndarray
    reconstruction: np.ndarray


def clutter_covariance(
    forward: ForwardMatrix, cov: PerturbationCovariance
) -> ClutterCovariance:
    """Theoretical clutter covariance A R_mu A^H through the factored operator.

    With A_q = D_q K (``forward.kernels`` and ``forward.sensitivities``),
    R_c = s^2 sum_{q,q'} B[q,q'] D_q K C K^H D_q'^* = s^2 (K C K^H) o W,
    where B is the parameter factor, C the spatial factor and W[i, j] =
    sum_{q,q'} psi_q(row i) B[q,q'] psi_q'(row j)^*. The result is
    Hermitian-symmetrized before it is returned.
    """
    if forward.n_cells != cov.n_cells:
        raise ConfigError(
            f"forward operator has {forward.n_cells} cells, covariance {cov.n_cells}"
        )
    kernels = forward.kernels
    matrix = _kernel_product(cov.spatial_product, kernels) @ kernels.conj().T  # K C K^H
    psi = forward.row_sensitivities()                       # (5, MN)
    matrix *= psi.T @ cov.param_factor @ psi.conj()
    matrix *= cov.amplitude**2
    matrix = 0.5 * (matrix + matrix.conj().T)
    return ClutterCovariance(matrix=matrix, provenance="theoretical")


def _kernel_product(operation, kernels: np.ndarray) -> np.ndarray:
    """K M for a real P-column operator M given as ``operation(X) = X M``.

    The operation runs once, on the real rows of K stacked over its
    imaginary rows, and the two halves are recombined.
    """
    n_rows = kernels.shape[0]
    product = operation(np.concatenate((kernels.real, kernels.imag)))
    return product[:n_rows] + 1j * product[n_rows:]


def jacobi_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi eigendecomposition of a small symmetric PSD matrix.

    Unlike QR-based solvers, Jacobi reaches high relative accuracy on badly
    graded positive semidefinite matrices: its backward error at entry
    (i, j) scales with sqrt(a_ii a_jj) instead of the largest eigenvalue.
    The parameter factor mixes channels whose physical units differ by many
    orders of magnitude and the forward operator inverts that grading, so
    this property is what keeps modal reconstructions exact.
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    vectors = np.eye(n)
    for _ in range(60):
        converged = True
        for i in range(n - 1):
            for j in range(i + 1, n):
                threshold = 1e-16 * math.sqrt(abs(a[i, i] * a[j, j]))
                if abs(a[i, j]) <= threshold:
                    continue
                converged = False
                gap = a[j, j] - a[i, i]
                if abs(gap) + 100.0 * abs(a[i, j]) == abs(gap):
                    # a_ij is negligible against the gap: t = 1 / (2 spread)
                    # to working precision, and spread itself could overflow.
                    t = a[i, j] / gap
                else:
                    spread = gap / (2.0 * a[i, j])
                    t = math.copysign(1.0, spread) / (abs(spread) + math.hypot(1.0, spread))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                shift = t * a[i, j]
                row_i, row_j = a[i].copy(), a[j].copy()
                a[i] = c * row_i - s * row_j
                a[j] = s * row_i + c * row_j
                col_i, col_j = a[:, i].copy(), a[:, j].copy()
                a[:, i] = c * col_i - s * col_j
                a[:, j] = s * col_i + c * col_j
                a[i, i] = row_i[i] - shift
                a[j, j] = row_j[j] + shift
                a[i, j] = a[j, i] = 0.0
                v_i, v_j = vectors[:, i].copy(), vectors[:, j].copy()
                vectors[:, i] = c * v_i - s * v_j
                vectors[:, j] = s * v_i + c * v_j
        if converged:
            break
    return np.diag(a).copy(), vectors


def modal_decomposition(
    forward: ForwardMatrix, cov: PerturbationCovariance
) -> ModalDecomposition:
    """Eigendecompose R_mu and map its modes through the forward operator.

    Uses the Kronecker eigenstructure eig(B x C) = eig(B) x eig(C): the
    graded parameter factor goes through the relative-accuracy Jacobi
    solver and the well-scaled spatial correlation factor through the
    standard Hermitian solver, so the mapped modes stay accurate despite
    the spread of physical units across channels. A separable spatial
    factor contributes eig(C_x) x eig(C_z), with the nugget added to the
    products of the axis eigenvalues; its eigenvectors reach K through the
    two axis factors.
    """
    if cov.dim > MATERIALIZE_ROW_CAP:
        raise SizeCapError(
            f"refusing a modal decomposition of dimension {cov.dim} (cap {MATERIALIZE_ROW_CAP})"
        )
    if forward.shape[1] != cov.dim:
        raise ConfigError(
            f"forward operator expects {forward.shape[1]} perturbation entries, "
            f"covariance has {cov.dim}"
        )
    lam_param, u_param = jacobi_eigh(cov.param_factor)
    weights = cov.amplitude**2 * np.outer(lam_param, cov.spatial_eigenvalues).ravel()
    # Mode (i, j) is A (u_param_i x u_spatial_j) = (Psi^T u_param_i) o (K u_spatial_j).
    mapped = _kernel_product(cov.spatial_mode_product, forward.kernels)  # K U, (MN, P)
    coupling = forward.row_sensitivities().T @ u_param      # (MN, 5)
    modes = (coupling[:, :, None] * mapped[:, None, :]).reshape(forward.shape[0], cov.dim)
    order = np.argsort(weights, kind="stable")[::-1]
    weights = np.clip(weights[order], 0.0, None)
    modes = np.ascontiguousarray(modes[:, order])
    reconstruction = (modes * weights) @ modes.conj().T
    return ModalDecomposition(
        mode_weights=weights, modes=modes, reconstruction=reconstruction
    )


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
    order = np.argsort(eigenvalues, kind="stable")[::-1]
    eigenvalues = eigenvalues[order]
    eigenvectors = eigenvectors[:, order]
    lam_max = max(eigenvalues[0], 0.0)
    if eigenvalues[-1] < -NEGATIVE_EIG_RTOL * lam_max:
        raise InvariantError(
            f"eigenvalue {float(eigenvalues[-1])!r} below the PSD tolerance "
            f"{float(-NEGATIVE_EIG_RTOL * lam_max)!r}"
        )
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    # Deterministic representation under degenerate spectra: rotate each
    # eigenvector so its first nonnegligible component is real positive.
    for idx in range(eigenvectors.shape[1]):
        column = eigenvectors[:, idx]
        nonzero = np.flatnonzero(np.abs(column) > 1e-12)
        if nonzero.size:
            pivot = column[nonzero[0]]
            eigenvectors[:, idx] = column * (abs(pivot) / pivot)
    return eigenvalues, eigenvectors


def spectral_summary(
    cov: ClutterCovariance, rho_levels: tuple[float, ...] = DEFAULT_RHO_LEVELS
) -> SpectralSummary:
    """Eigendecomposition plus effective rank and subspace dimensions.

    The effective rank is exp(-sum nu ln nu) over the normalized spectrum
    with 0 ln 0 = 0; p_rho is the smallest dominant-subspace size capturing
    the fraction rho of total eigenvalue mass.
    """
    eigenvalues, eigenvectors = _validated_eigensystem(cov)
    total = eigenvalues.sum()
    if total <= 0.0:
        raise UndefinedSpectrumError("covariance trace is zero")
    normalized = eigenvalues / total
    positive = normalized[normalized > 0.0]
    entropy = float(-(positive * np.log(positive)).sum())
    cumulative = np.cumsum(normalized)
    p_rho = {}
    for rho in rho_levels:
        if not 0.0 < rho < 1.0:
            raise ConfigError(f"rho levels must lie in (0, 1), got {rho!r}")
        p_rho[rho] = int(np.searchsorted(cumulative, rho - 1e-12, side="left")) + 1
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
    the span of the top-p clutter eigenvectors."""
    size = summary.eigenvectors.shape[0]
    if not 1 <= p <= size:
        raise ConfigError(f"subspace dimension {p!r} outside [1, {size}]")
    basis = summary.eigenvectors[:, :p]
    a = steering.values
    eta = float(np.linalg.norm(basis.conj().T @ a) ** 2 / np.linalg.norm(a) ** 2)
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
