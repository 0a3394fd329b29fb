"""Reference forms the tests compare the program against.

Each is the plainest computation of its quantity: dense where the program
factors, one point pair at a time where it broadcasts. No program path
runs them.
"""

import dataclasses
import math

import mpmath
import numpy as np

from gprclutter.constitutive import (
    DENOMINATOR_FLOOR,
    FD_STEP_FLOORS,
    ColeColeParams,
    eval_permittivity,
    eval_sensitivities,
)
from gprclutter.forward import background_wavenumber
from gprclutter.randfield import SPATIAL_NUGGET, standard_normal_draws


def dense_spatial_factor(cov):
    """The P x P spatial factor C with the nugget: the dense factor itself,
    or C_x x C_z + SPATIAL_NUGGET * I of a separable one."""
    factors = cov.spatial.factors
    if len(factors) == 1:
        return factors[0]
    factor = np.kron(*factors)
    factor[np.diag_indices_from(factor)] += SPATIAL_NUGGET
    return factor


def materialize_full(cov):
    """The dense 5P x 5P covariance s^2 kron(B, C)."""
    return cov.amplitude**2 * np.kron(cov.param_factor, dense_spatial_factor(cov))


def dense_entries(forward):
    """The dense (M N, 5 P) operator, entry psi_q(omega_n) * K[(m, n), p]."""
    psi = forward.row_sensitivities().T  # (M N, 5)
    return (psi[:, :, None] * forward.kernels[:, None, :]).reshape(forward.shape)


def dense_discrepancy(candidate, reference):
    """||A_candidate - A_reference||_F / ||A_reference||_F on the dense operators."""
    dense = dense_entries(reference)
    return float(np.linalg.norm(dense_entries(candidate) - dense) / np.linalg.norm(dense))


def mp_discrepancy(candidate, reference):
    """dense_discrepancy with every entry formed and summed in 30-digit mpmath
    arithmetic, whose exponents do not underflow.

    None for a reference of zero norm.
    """
    with mpmath.workdps(30):
        entries = []
        for forward in (candidate, reference):
            psi = [[mpmath.mpc(value) for value in row] for row in forward.row_sensitivities().T]
            kernels = [[mpmath.mpc(value) for value in row] for row in forward.kernels]
            entries.append([weight * kernel for row_psi, row_kernels in zip(psi, kernels)
                            for weight in row_psi for kernel in row_kernels])
        numerator = mpmath.fsum(abs(c - r) ** 2 for c, r in zip(*entries))
        denominator = mpmath.fsum(abs(r) ** 2 for r in entries[1])
        return None if denominator == 0 else float(mpmath.sqrt(numerator / denominator))


def mp_frobenius_norm(x, axis=None):
    """np.linalg.norm(x, axis=axis) of a 2D x (axis None or 1), summed in
    30-digit mpmath arithmetic, whose exponents do not underflow or overflow."""
    rows = [np.ravel(x)] if axis is None else list(x)
    with mpmath.workdps(30):
        norms = [float(mpmath.sqrt(mpmath.fsum(abs(mpmath.mpc(value)) ** 2 for value in row)))
                 for row in rows]
    return norms[0] if axis is None else np.array(norms)


def pseudo_covariance(forward, cov):
    """The pseudo-covariance E[y y^T] = A R_mu A^T of linear snapshots y = A x."""
    entries = dense_entries(forward)
    return entries @ materialize_full(cov) @ entries.T


def sample_perturbations_dense(cov, count, seed):
    """Samples through the Cholesky factor of the materialized R_mu.

    It reads the substream normals of ``sample_perturbations``, so on a
    dense spatial factor the two agree up to factorization rounding.
    """
    factor = np.linalg.cholesky(materialize_full(cov))
    return standard_normal_draws(cov.dim, count, seed) @ factor.T


def green_kernel(src, dst, omega, background):
    """Scalar whole-space Green function exp(-j k_b r) / (4 pi r) between two points."""
    r = float(np.linalg.norm(np.subtract(dst, src, dtype=float)))
    k = background_wavenumber(background, omega)
    return complex(np.exp(-1j * k * r) / (4.0 * np.pi * r))


def born_kernel_reference(background, geometry):
    """The (N, M, P) kernel tensor built afresh for every frequency.

    Each frequency takes its own distances, evaluates the Green function
    at every antenna-cell pair and forms its product; the tensor is scaled
    by the cell volume at the end. The program evaluates the same
    elementwise operations once per distinct distance, so the two agree
    bit for bit.
    """
    def distances(antennas):
        diff = antennas[:, None, :] - geometry.cell_centers[None, :, :]
        return np.sqrt(np.sum(diff * diff, axis=-1))

    slabs = []
    for n, frequency in enumerate(geometry.frequencies):
        k = background_wavenumber(background, 2.0 * np.pi * frequency)
        r_rx, r_tx = distances(geometry.rx_positions), distances(geometry.tx_positions)[n]
        g_rx = np.exp(-1j * k * r_rx) / (4.0 * np.pi * r_rx)
        g_tx = np.exp(-1j * k * r_tx) / (4.0 * np.pi * r_tx)
        slabs.append(g_rx * g_tx)
    return np.stack(slabs) * geometry.cell_volume


def exact_contrast(background, delta_mu, omega):
    """Exact contrast (F(mu_b + delta_mu) - F(mu_b)) / F(mu_b) of one perturbed state.

    Both permittivities go through the complex-power core of
    ``eval_permittivity``, not the factored kernel of ``exact_contrast_field``.
    """
    eps_b = eval_permittivity(background, omega)
    perturbed = ColeColeParams.from_array(background.as_array() + delta_mu)
    return (eval_permittivity(perturbed, omega) - eps_b) / eps_b


def finite_difference_errors(params, omega, rel_step=1e-5):
    """The (5,) relative sensitivity errors of ``finite_difference_check`` at one frequency.

    One channel at a time: each stepped state is its own scalar
    permittivity evaluation, in Python complex arithmetic.
    """
    base = params.as_array()
    eps_b = eval_permittivity(params, omega)
    psi = eval_sensitivities(params, omega)
    errors = np.empty(5)
    for q in range(5):
        step = rel_step * abs(base[q]) if base[q] != 0.0 else FD_STEP_FLOORS[q]
        plus, minus = base.copy(), base.copy()
        plus[q] += step
        minus[q] -= step
        f_plus = eval_permittivity(ColeColeParams.from_array(plus), omega)
        f_minus = eval_permittivity(ColeColeParams.from_array(minus), omega)
        psi_fd = (f_plus - f_minus) / ((plus[q] - minus[q]) * eps_b)
        errors[q] = abs(psi[q] - psi_fd) / max(abs(psi_fd), DENOMINATOR_FLOOR)
    return errors


def spatial_eigenpairs(cov):
    """Eigenvalues of the spatial factor C and its eigenvectors as dense P x P
    columns, in one order. A separable C gives the sampler's own eigenvalues."""
    factors = cov.spatial.factors
    if len(factors) == 1:
        return np.linalg.eigh(factors[0])
    lam, axes = cov.spatial.root
    return lam, np.kron(*axes)


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


def jacobi_eigh(matrix):
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


def modal_decomposition(forward, cov):
    """R_c rebuilt from the eigenmodes of R_mu mapped through the forward operator.

    Uses the Kronecker eigenstructure eig(B x C) = eig(B) x eig(C): the
    graded parameter factor goes through the relative-accuracy Jacobi
    solver and the well-scaled spatial factor through the standard
    Hermitian solver, so the mapped modes stay accurate despite the spread
    of physical units across channels. Mode (i, j) is
    A (u_param_i x u_spatial_j) = (Psi^T u_param_i) o (K u_spatial_j).
    """
    lam_param, u_param = jacobi_eigh(cov.param_factor)
    lam_spatial, u_spatial = spatial_eigenpairs(cov)
    weights = cov.amplitude**2 * np.outer(lam_param, lam_spatial).ravel()
    mapped = forward.kernels @ u_spatial                    # K U, (MN, P)
    coupling = forward.row_sensitivities().T @ u_param      # (MN, 5)
    modes = (coupling[:, :, None] * mapped[:, None, :]).reshape(forward.shape[0], cov.dim)
    order = np.argsort(weights, kind="stable")[::-1]
    weights = np.clip(weights[order], 0.0, None)
    modes = np.ascontiguousarray(modes[:, order])
    reconstruction = (modes * weights) @ modes.conj().T
    return ModalDecomposition(mode_weights=weights, modes=modes, reconstruction=reconstruction)
