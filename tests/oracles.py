"""Reference forms the tests compare the program against.

Each is the plainest computation of its quantity: dense where the program
factors, one point pair at a time where it broadcasts. No program path
runs them.
"""

import numpy as np

from gprclutter.constitutive import (
    DENOMINATOR_FLOOR,
    FD_STEP_FLOORS,
    ColeColeParams,
    eval_permittivity,
    eval_sensitivities,
)
from gprclutter.forward import background_wavenumber
from gprclutter.randfield import standard_normal_draws


def materialize_full(cov):
    """The dense 5P x 5P covariance s^2 kron(B, C)."""
    return cov.amplitude**2 * np.kron(cov.param_factor, cov.spatial_factor)


def dense_entries(forward):
    """The dense (M N, 5 P) operator, entry psi_q(omega_n) * K[(m, n), p]."""
    psi = forward.row_sensitivities().T  # (M N, 5)
    return (psi[:, :, None] * forward.kernels[:, None, :]).reshape(forward.shape)


def dense_discrepancy(candidate, reference):
    """||A_candidate - A_reference||_F / ||A_reference||_F on the dense operators."""
    dense = dense_entries(reference)
    return float(np.linalg.norm(dense_entries(candidate) - dense) / np.linalg.norm(dense))


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


def canonical_phases(eigenvectors):
    """A copy of ``eigenvectors`` with each column rotated, one at a time, so
    its first entry with |v| > 1e-12 is real positive."""
    vectors = np.array(eigenvectors)
    for idx in range(vectors.shape[1]):
        column = vectors[:, idx]
        nonzero = np.flatnonzero(np.abs(column) > 1e-12)
        if nonzero.size:
            pivot = column[nonzero[0]]
            vectors[:, idx] = column * (abs(pivot) / pivot)
    return vectors
