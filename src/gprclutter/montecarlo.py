"""Monte Carlo synthesis of Born snapshots and closure/validity metrics.

Snapshot ensembles come in two flavors sharing kernels, discretization and
perturbation draws: ``linear`` applies the stacked observation operator to
each perturbation sample, ``exact`` re-evaluates the constitutive law cell
by cell and sums the Born integrand with the exact contrast. Both apply
the operator through its factors, the kernels K and the sensitivities Psi
of ``ForwardMatrix``; no path here reads the dense ``entries``. Comparing
the two isolates the constitutive linearization error; comparing their
sample covariances with the propagated theoretical covariance closes the
loop on the statistical chain. Synthesis is noise-free throughout: the
additive noise floor enters analytically downstream. Exact contrast is
evaluated in chunks of at most EXACT_CHUNK_VALUES values, so memory stays
bounded for any sample count.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .constitutive import (
    DENOMINATOR_FLOOR,
    N_PARAMS,
    exact_contrast_field,
)
from .errors import ConfigError, DomainError, UndefinedSpectrumError
from .forward import ForwardMatrix
from .randfield import PerturbationCovariance, sample_perturbations
from .scene import Scenario, SceneGeometry
from .spectra import ClutterCovariance, spectral_summary

SNAPSHOT_MODES = ("linear", "exact")

DEFAULT_AMPLITUDE_GRID = (0.0625, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0)

#: Sample x frequency x cell values per exact-contrast chunk (at least one
#: sample). About 1 MB of complex contrast, so a chunk's temporaries stay in
#: cache and peak memory does not grow with the sample count.
EXACT_CHUNK_VALUES = 2**16


@dataclasses.dataclass(frozen=True)
class ClosureReport:
    """Discrepancies between sampled and theoretical clutter covariances."""

    eps_cov_lin: float
    eps_cov_exact: float
    eps_lambda: float
    eps_sub: float
    sample_count: int
    subspace_dim: int

    def __post_init__(self):
        for name in ("eps_cov_lin", "eps_cov_exact", "eps_lambda", "eps_sub"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be nonnegative, got {getattr(self, name)!r}")
        if not 0.0 <= self.eps_sub <= 1.0 + 1e-12:
            raise ConfigError(f"eps_sub must lie in [0, 1], got {self.eps_sub!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class ValidityReport:
    """Linearization-error scan over the standardized amplitude grid."""

    amplitude_grid: tuple[float, ...]
    p95_contrast_error: tuple[float, ...]
    p95_snapshot_error: tuple[float, ...]
    recommended_s_mu: float | None
    threshold: float
    sample_count: int

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def nearest_rank_percentile(values: np.ndarray, q: float) -> float:
    """Nearest-rank percentile: the ceil(q n)-th smallest of n values."""
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        raise ConfigError("percentile of an empty sample")
    rank = max(int(math.ceil(q * values.size)), 1) - 1
    return float(np.partition(values, rank)[rank])


def _linear_contrast(forward: ForwardMatrix, samples: np.ndarray) -> np.ndarray:
    """First-order per-cell contrast of each sample at each frequency, shape (L, N, P)."""
    per_channel = samples.reshape(samples.shape[0], N_PARAMS, forward.n_cells)
    return np.matmul(forward.sensitivities.T, per_channel)


def _exact_chunks(
    scenario: Scenario, geometry: SceneGeometry, samples: np.ndarray, scale: float = 1.0
):
    """Exact per-cell contrast of ``scale * samples`` in row chunks.

    Yields (rows, contrast) with contrast of shape (chunk, N, P) holding at
    most EXACT_CHUNK_VALUES values unless one sample alone exceeds that.
    """
    omegas = 2.0 * np.pi * geometry.frequencies
    step = max(1, EXACT_CHUNK_VALUES // (omegas.size * geometry.n_cells))
    per_channel = samples.reshape(samples.shape[0], N_PARAMS, geometry.n_cells)
    for start in range(0, samples.shape[0], step):
        rows = slice(start, min(start + step, samples.shape[0]))
        # (5, chunk, 1, P) perturbations against (N, 1) frequencies
        delta = scale * per_channel[rows].transpose(1, 0, 2)[:, :, None, :]
        try:
            contrast = exact_contrast_field(scenario.background, delta, omegas[:, None])
        except DomainError as exc:
            raise DomainError(f"samples {rows.start}..{rows.stop - 1}: {exc}") from exc
        yield rows, contrast


def _born_sum(forward: ForwardMatrix, contrast: np.ndarray, out: np.ndarray) -> None:
    """Write sum_p K[n * M + m, p] contrast[l, n, p] to out[l, n * M + m]."""
    n_rx = forward.n_rx
    for n in range(forward.n_tx):
        rows = slice(n * n_rx, (n + 1) * n_rx)
        out[:, rows] = contrast[:, n, :] @ forward.kernels[rows].T


def snapshots_from_perturbations(
    forward: ForwardMatrix,
    scenario: Scenario,
    geometry: SceneGeometry,
    samples: np.ndarray,
    mode: str,
) -> np.ndarray:
    """Noise-free Born snapshots of given perturbation samples, shape (L, MN).

    ``linear`` applies the forward operator block by block,
    y = sum_q D_q K x_q; ``exact`` evaluates the exact contrast per cell and
    frequency and contracts it against the same two-way kernels K.
    """
    if mode not in SNAPSHOT_MODES:
        raise ConfigError(f"unknown snapshot mode {mode!r} (known: {SNAPSHOT_MODES})")
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != forward.shape[1]:
        raise ConfigError(
            f"samples of shape {samples.shape} incompatible with forward {forward.shape}"
        )
    out = np.zeros((samples.shape[0], forward.shape[0]), dtype=complex)
    if mode == "linear":
        # y = sum_q D_q K x_q. Each parameter block x_q is a strided view of
        # the samples, multiplied by K^T in one real GEMM with each complex
        # entry of K^T split into adjacent (real, imag) columns; the float
        # product read as complex is K x_q. One block at a time keeps the
        # temporaries at the size of the output.
        columns = np.ascontiguousarray(forward.kernels.T).view(float)
        per_channel = samples.reshape(samples.shape[0], N_PARAMS, forward.n_cells)
        for q, psi in enumerate(forward.row_sensitivities()):
            block = (per_channel[:, q] @ columns).view(complex)
            block *= psi
            out += block
        return out

    for rows, contrast in _exact_chunks(scenario, geometry, samples):
        _born_sum(forward, contrast, out[rows])
    return out


def simulate_snapshots(
    forward: ForwardMatrix,
    scenario: Scenario,
    geometry: SceneGeometry,
    cov: PerturbationCovariance,
    count: int,
    seed: int,
    mode: str,
) -> np.ndarray:
    """Draw perturbations from the field covariance and synthesize snapshots."""
    samples = sample_perturbations(cov, count, seed)
    return snapshots_from_perturbations(forward, scenario, geometry, samples, mode)


def sample_covariance(snapshots: np.ndarray) -> np.ndarray:
    """Zero-mean sample covariance (1/L) sum c c^H of stacked snapshots.

    No mean subtraction: the perturbation field is zero-mean by
    construction, and centering would bias the closure check at small L.
    """
    snapshots = np.asarray(snapshots, dtype=complex)
    matrix = snapshots.T @ snapshots.conj() / snapshots.shape[0]
    return 0.5 * (matrix + matrix.conj().T)


def closure_from_covariances(
    theory: ClutterCovariance,
    cov_linear: np.ndarray,
    cov_exact: np.ndarray,
    sample_count: int,
    subspace_dim: int | None = None,
) -> ClosureReport:
    """Closure metrics given precomputed sample covariances.

    eps_cov is the relative Frobenius error per synthesis mode; eps_lambda
    compares the full descending eigenvalue vectors of the exact-mode
    estimate; eps_sub is the normalized distance || P_theory - P_exact ||_F
    / sqrt(2 p) between orthogonal projectors onto the dominant-p
    eigenspaces (p defaults to the theory's p_0.9).
    """
    norm_theory = np.linalg.norm(theory.matrix)
    if norm_theory == 0.0:
        raise UndefinedSpectrumError("closure undefined for a zero theoretical covariance")
    eps_cov_lin = float(np.linalg.norm(cov_linear - theory.matrix) / norm_theory)
    eps_cov_exact = float(np.linalg.norm(cov_exact - theory.matrix) / norm_theory)

    summary_theory = spectral_summary(theory)
    summary_exact = spectral_summary(
        ClutterCovariance(matrix=cov_exact, provenance="monte-carlo-exact")
    )
    lam_theory = summary_theory.eigenvalues
    lam_exact = summary_exact.eigenvalues
    eps_lambda = float(
        np.linalg.norm(lam_exact - lam_theory) / np.linalg.norm(lam_theory)
    )

    p = subspace_dim if subspace_dim is not None else summary_theory.p_rho[0.9]
    if not 1 <= p <= theory.size:
        raise ConfigError(f"subspace dimension {p!r} outside [1, {theory.size}]")
    basis_theory = summary_theory.eigenvectors[:, :p]
    basis_exact = summary_exact.eigenvectors[:, :p]
    projector_theory = basis_theory @ basis_theory.conj().T
    projector_exact = basis_exact @ basis_exact.conj().T
    eps_sub = float(
        np.linalg.norm(projector_theory - projector_exact) / np.sqrt(2.0 * p)
    )

    return ClosureReport(
        eps_cov_lin=eps_cov_lin,
        eps_cov_exact=eps_cov_exact,
        eps_lambda=eps_lambda,
        eps_sub=eps_sub,
        sample_count=int(sample_count),
        subspace_dim=int(p),
    )


def closure_report(
    theory: ClutterCovariance,
    snapshots_linear: np.ndarray,
    snapshots_exact: np.ndarray,
    subspace_dim: int | None = None,
) -> ClosureReport:
    """Closure of snapshot-ensemble covariances against the propagated one."""
    if snapshots_linear.shape[0] < 2 or snapshots_exact.shape[0] < 2:
        raise ConfigError("closure needs at least two snapshots per mode")
    return closure_from_covariances(
        theory,
        sample_covariance(snapshots_linear),
        sample_covariance(snapshots_exact),
        sample_count=snapshots_exact.shape[0],
        subspace_dim=subspace_dim,
    )


def convergence_ratio(
    theory: ClutterCovariance, snapshots: np.ndarray, block_count: int = 4
) -> float:
    """Closure-error ratio between 1/block_count of the ensemble and all of it.

    The small-sample error is averaged over the disjoint equal blocks of the
    given snapshots, which estimates the convergence rate from a single
    seeded ensemble: under 1/sqrt(L) Monte Carlo behavior the ratio
    concentrates near sqrt(block_count). A single small-sample draw would
    fluctuate too much on low-rank covariances to test the rate reliably.
    """
    count = snapshots.shape[0]
    if block_count < 2 or count < 2 * block_count:
        raise ConfigError(
            f"need at least {2 * block_count} snapshots for {block_count} blocks"
        )
    norm = np.linalg.norm(theory.matrix)
    if norm == 0.0:
        raise UndefinedSpectrumError("convergence ratio undefined for a zero covariance")
    full = np.linalg.norm(sample_covariance(snapshots) - theory.matrix) / norm
    size = count // block_count
    block_errors = [
        np.linalg.norm(
            sample_covariance(snapshots[k * size:(k + 1) * size]) - theory.matrix
        ) / norm
        for k in range(block_count)
    ]
    return float(np.mean(block_errors) / full)


def validity_scan(
    forward: ForwardMatrix,
    scenario: Scenario,
    geometry: SceneGeometry,
    cov_template: PerturbationCovariance,
    amplitude_grid=DEFAULT_AMPLITUDE_GRID,
    sample_count: int = 200,
    threshold: float = 0.05,
    seed: int = 0,
) -> ValidityReport:
    """Scan the linearization error over the standardized amplitude grid.

    At each amplitude the same underlying standard normals are rescaled,
    so errors grow monotonically with the amplitude up to arithmetic
    effects. Contrast errors pool every (sample, frequency, cell) triple;
    snapshot errors are per-sample relative vector errors. Both use the
    nearest-rank 95th percentile. The recommended amplitude is the largest
    grid value such that it and every smaller grid value stay below the
    threshold on both metrics.
    """
    grid = tuple(float(s) for s in amplitude_grid)
    if len(grid) == 0:
        raise ConfigError("amplitude grid is empty")
    if any(s <= 0.0 for s in grid) or list(grid) != sorted(grid):
        raise ConfigError(f"amplitude grid must be positive ascending, got {grid!r}")

    base = sample_perturbations(cov_template.with_amplitude(1.0), sample_count, seed)
    # The linear model is homogeneous in the amplitude: evaluate it once.
    contrast_lin = _linear_contrast(forward, base)
    y_lin = snapshots_from_perturbations(forward, scenario, geometry, base, "linear")
    err = np.empty(contrast_lin.shape)
    y_exact = np.empty_like(y_lin)
    p95_contrast, p95_snapshot = [], []
    for s in grid:
        for rows, contrast in _exact_chunks(scenario, geometry, base, scale=s):
            err[rows] = np.abs(contrast - s * contrast_lin[rows]) / np.maximum(
                np.abs(contrast), DENOMINATOR_FLOOR
            )
            _born_sum(forward, contrast, y_exact[rows])
        p95_contrast.append(nearest_rank_percentile(err, 0.95))

        norms = np.linalg.norm(y_exact, axis=1)
        rel = np.linalg.norm(y_exact - s * y_lin, axis=1) / np.maximum(norms, DENOMINATOR_FLOOR)
        p95_snapshot.append(nearest_rank_percentile(rel, 0.95))

    recommended = None
    for idx, s in enumerate(grid):
        if p95_contrast[idx] < threshold and p95_snapshot[idx] < threshold:
            recommended = s
        else:
            break

    return ValidityReport(
        amplitude_grid=grid,
        p95_contrast_error=tuple(p95_contrast),
        p95_snapshot_error=tuple(p95_snapshot),
        recommended_s_mu=recommended,
        threshold=threshold,
        sample_count=sample_count,
    )
