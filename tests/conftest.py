"""Shared fixtures: registry, geometries, and covariance helpers."""

import numpy as np
import pytest

from gprclutter import (
    GeometryConfig,
    build_covariance,
    build_default_geometry,
    scenario_registry,
)
from gprclutter.montecarlo import sample_covariance

ACCEPTANCE_LINES = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def registry():
    return scenario_registry()


@pytest.fixture(scope="session")
def geometry():
    """Full default geometry: 8x8 array, 25x21 grid, P=525."""
    return build_default_geometry()


@pytest.fixture(scope="session")
def small_geometry():
    """Cheap geometry for brute-force oracles: 2x2 array, 3x2 grid."""
    return build_default_geometry(GeometryConfig(
        n_tx=2, n_rx=2, n_x=3, n_z=2, dx=0.1, dz=0.05,
    ))


@pytest.fixture(scope="session")
def tiny_geometry():
    """Single-cell grid for hand-composed entry checks."""
    return build_default_geometry(GeometryConfig(
        n_tx=2, n_rx=2, n_x=1, n_z=1, dx=0.1, dz=0.05,
    ))


def default_covariance(scenario, geometry, **overrides):
    kwargs = dict(
        corr_length=0.15,
        rho_c=0.3,
        weights=np.ones(5),
        amplitude=1.0,
    )
    kwargs.update(overrides)
    return build_covariance(scenario, geometry.cell_centers, **kwargs)


@pytest.fixture
def make_covariance():
    return default_covariance


def closure_statistic(theory, pseudo, snapshots, block_count=16):
    """Calibrated closure error T of linear snapshots y = A x, x real Gaussian.

    T = n mean_k ||R_k - R||_F^2 / ((tr R)^2 + ||R~||_F^2) over block_count
    disjoint blocks of n snapshots, with R_k the blocks' sample covariances,
    R the theory and R~ = E[y y^T] the pseudo-covariance. Isserlis' theorem
    gives E ||R_k - R||_F^2 = ((tr R)^2 + ||R~||_F^2) / n, so E T = 1
    exactly; R~ does not vanish for improper y (Picinbono, IEEE TSP 1996).
    Averaging over blocks tames the heavy tail that a low-rank R gives a
    single error.
    """
    n = snapshots.shape[0] // block_count
    errors = [np.linalg.norm(sample_covariance(snapshots[k * n:(k + 1) * n]) - theory) ** 2
              for k in range(block_count)]
    level = np.trace(theory).real ** 2 + np.linalg.norm(pseudo) ** 2
    return float(n * np.mean(errors) / level)
