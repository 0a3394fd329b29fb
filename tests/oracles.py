"""Reference forms the tests compare the program against.

Each is the plainest computation of its quantity: dense where the program
factors, one point pair at a time where it broadcasts. No program path
runs them.
"""

import numpy as np

from gprclutter.forward import background_wavenumber
from gprclutter.randfield import standard_normal_draws


def materialize_full(cov):
    """The dense 5P x 5P covariance s^2 kron(B, C)."""
    return cov.amplitude**2 * np.kron(cov.param_factor, cov.spatial_factor)


def pseudo_covariance(forward, cov):
    """The pseudo-covariance E[y y^T] = A R_mu A^T of linear snapshots y = A x."""
    return forward.entries @ materialize_full(cov) @ forward.entries.T


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
