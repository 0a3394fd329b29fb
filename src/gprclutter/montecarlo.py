"""Monte Carlo synthesis of Born snapshots and closure/validity metrics.

Snapshot ensembles come in two flavors sharing kernels, discretization and
perturbation draws: ``linear`` applies the stacked observation operator to
each perturbation sample, ``exact`` re-evaluates the constitutive law cell
by cell and sums the Born integrand with the exact contrast. Both apply
the operator through its factors, the kernels K and the sensitivities Psi
of ``ForwardMatrix``; no path here reads the dense ``entries``. Comparing
the two isolates the constitutive linearization error; comparing their
sample covariances with the propagated theoretical covariance closes the
loop on the statistical chain. Closure has one path:
:func:`shared_closure_covariances` streams both sample covariances of
every scenario of a run from one draw, :func:`closure_covariances` is its
one-scenario case, and :func:`closure_from_covariances` compares them with
the theory. Synthesis is noise-free throughout: the additive noise floor
enters analytically downstream. A forward operator assembled on another
geometry than the one passed is refused.

Memory does not grow with the sample count times 5P. Samples are drawn,
synthesized and accumulated in blocks of at most SAMPLE_BLOCK samples and
SAMPLE_BLOCK_BYTES bytes of samples, so a block shrinks at large P.
Closure draws each block's standard normals once for all scenarios and
holds that block, one scenario's samples and snapshots of it, and one
MN x MN sum of y y^H per mode and scenario. The validity scan fills its
(L, 5P) base samples one block at a time and keeps the (L, MN) linear and
exact snapshots and the L per-sample snapshot errors. Its L N P contrast
errors stream, one exact chunk at a time, into a
:class:`NearestRankSelector`, which keeps only the values above the
percentile's rank: about a tenth of the pool at the 95th percentile. Exact
contrast is evaluated in chunks of at most EXACT_CHUNK_VALUES values.
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
from .errors import ConfigError, GprClutterError, TauFloorError, UndefinedSpectrumError
from .forward import ForwardMatrix
from .randfield import PerturbationCovariance, _mix, sample_perturbations, standard_normal_draws
from .scene import Scenario, SceneGeometry
from .spectra import ClutterCovariance, spectral_summary

SNAPSHOT_MODES = ("linear", "exact")

DEFAULT_AMPLITUDE_GRID = (0.0625, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0)

#: Sample x frequency x cell values per exact-contrast chunk (at least one
#: sample). About 1 MB of complex contrast, so a chunk's temporaries stay in
#: cache and peak memory does not grow with the sample count.
EXACT_CHUNK_VALUES = 2**16

#: Samples drawn, synthesized and accumulated at a time, at most. Fixed, so
#: the summation order, and with it every output byte, does not depend on
#: the machine.
SAMPLE_BLOCK = 64

#: Bytes of float samples per block, at most (at least one sample). A block
#: of 5P-entry samples holds min(SAMPLE_BLOCK, SAMPLE_BLOCK_BYTES // (8 * 5P))
#: samples: 64 at P=525, 30 at P=1728, 1 at P=32000. The sampler holds the
#: normals and the mixed rows of one block.
SAMPLE_BLOCK_BYTES = 2 * 2**20


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


class NearestRankSelector:
    """Exact streaming nearest-rank percentile of ``count`` values.

    The percentile is the ceil(q count)-th smallest value, that is the
    k-th largest with k = count - ceil(q count) + 1. Values arrive through
    :meth:`add` in any chunks; only candidates for the k largest are kept,
    in a buffer of at most 2k entries. Once the buffer has been cut back,
    its floor (the k-th largest value so far) only rises, and values at or
    below it are dropped as they arrive; of a chunk with more than k values
    left, only its k largest are kept. A buffer that cannot take the next
    chunk is cut back to its k largest entries by one in-place partition,
    so each chunk costs at most one cut. The result is the selected
    value itself, so it equals a sort-based nearest rank exactly. NaN
    counts as the largest value, as in ``np.sort``.
    """

    def __init__(self, count: int, q: float):
        if count < 1:
            raise ConfigError("percentile of an empty sample")
        if not 0.0 <= q <= 1.0:
            raise ConfigError(f"percentile level must lie in [0, 1], got {q!r}")
        self.count = int(count)
        self.seen = 0
        self._keep = self.count - max(int(math.ceil(q * self.count)), 1) + 1
        self._buffer = np.empty(min(2 * self._keep, self.count))
        self._filled = 0
        self._floor = None

    def add(self, values) -> None:
        """Take the next values, in any shape."""
        values = np.asarray(values, dtype=float).ravel()
        self.seen += values.size
        if self.seen > self.count:
            raise ConfigError(f"more than the announced {self.count} values")
        if self._floor is not None:
            # A value at or below the k-th largest so far cannot change it.
            values = np.compress(~(values <= self._floor), values)
        if values.size > self._keep:
            # Nor can one below k others of its own chunk.
            values = np.partition(values, values.size - self._keep)[values.size - self._keep:]
        if self._filled + values.size > self._buffer.size:
            self._cut()
        self._buffer[self._filled:self._filled + values.size] = values
        self._filled += values.size

    def _cut(self) -> None:
        """Keep the k largest buffered values, with the smallest of them first."""
        cut = self._filled - self._keep
        self._buffer[:self._filled].partition(cut)
        self._buffer[:self._keep] = self._buffer[cut:self._filled]
        self._filled = self._keep
        self._floor = self._buffer[0]

    def value(self) -> float:
        """The percentile, once all ``count`` values have arrived."""
        if self.seen != self.count:
            raise ConfigError(f"percentile of {self.seen} values, {self.count} announced")
        self._cut()
        return float(self._floor)


def nearest_rank_percentile(values: np.ndarray, q: float) -> float:
    """Nearest-rank percentile: the ceil(q n)-th smallest of n values."""
    values = np.asarray(values, dtype=float)
    selector = NearestRankSelector(values.size, q)
    selector.add(values)
    return selector.value()


def _linear_contrast(forward: ForwardMatrix, samples: np.ndarray) -> np.ndarray:
    """First-order per-cell contrast of each sample at each frequency, shape (L, N, P)."""
    per_channel = samples.reshape(samples.shape[0], N_PARAMS, forward.n_cells)
    return np.matmul(forward.sensitivities.T, per_channel)


def _exact_chunks(
    scenario: Scenario,
    geometry: SceneGeometry,
    samples: np.ndarray,
    scale: float = 1.0,
    start: int = 0,
):
    """Exact per-cell contrast of ``scale * samples`` in row chunks.

    Yields (rows, contrast) with contrast of shape (chunk, N, P) holding at
    most EXACT_CHUNK_VALUES values unless one sample alone exceeds that.
    ``samples[0]`` is sample ``start`` of the ensemble: a tau-floor error
    names the chunk's samples and the offending (sample, 0, cell) index in
    ensemble numbering.
    """
    omegas = 2.0 * np.pi * geometry.frequencies
    step = max(1, EXACT_CHUNK_VALUES // (omegas.size * geometry.n_cells))
    per_channel = samples.reshape(samples.shape[0], N_PARAMS, geometry.n_cells)
    for row in range(0, samples.shape[0], step):
        rows = slice(row, min(row + step, samples.shape[0]))
        # (5, chunk, 1, P) perturbations against (N, 1) frequencies
        delta = scale * per_channel[rows].transpose(1, 0, 2)[:, :, None, :]
        try:
            contrast = exact_contrast_field(scenario.background, delta, omegas[:, None])
        except TauFloorError as exc:
            first, last = start + rows.start, start + rows.stop - 1
            index = (first + exc.index[0],) + exc.index[1:]
            where = f"samples {first}..{last}: "
            raise TauFloorError(index, exc.value, exc.floor, where) from exc
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
    *,
    start: int = 0,
) -> np.ndarray:
    """Noise-free Born snapshots of given perturbation samples, shape (L, MN).

    ``linear`` applies the forward operator block by block,
    y = sum_q D_q K x_q; ``exact`` evaluates the exact contrast per cell and
    frequency and contracts it against the same two-way kernels K.
    ``samples[0]`` is sample ``start`` of the ensemble, as errors report it.
    """
    if mode not in SNAPSHOT_MODES:
        raise ConfigError(f"unknown snapshot mode {mode!r} (known: {SNAPSHOT_MODES})")
    _check_forward(forward, scenario, geometry)
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

    for rows, contrast in _exact_chunks(scenario, geometry, samples, start=start):
        _born_sum(forward, contrast, out[rows])
    return out


def sample_covariance(snapshots: np.ndarray) -> np.ndarray:
    """Zero-mean sample covariance (1/L) sum c c^H of stacked snapshots.

    No mean subtraction: the perturbation field is zero-mean by
    construction, and centering would bias the closure check at small L.
    """
    snapshots = np.asarray(snapshots, dtype=complex)
    return _hermitian_mean(snapshots.T @ snapshots.conj(), snapshots.shape[0])


def _block_starts(dim: int, count: int):
    """Yield (start, size) for consecutive blocks of samples 0..count-1.

    Every block holds the same number of dim-entry samples, the last one at
    most that: SAMPLE_BLOCK, or fewer where their bytes would exceed
    SAMPLE_BLOCK_BYTES.
    """
    size = min(SAMPLE_BLOCK, max(1, SAMPLE_BLOCK_BYTES // (8 * dim)))
    for start in range(0, count, size):
        yield start, min(size, count - start)


def _check_forward(forward: ForwardMatrix, scenario: Scenario, geometry: SceneGeometry) -> None:
    """Refuse a forward operator assembled on another geometry or background."""
    if forward.geometry_fingerprint != geometry.fingerprint():
        raise ConfigError(
            f"forward operator assembled on geometry {forward.geometry_fingerprint}, "
            f"used with geometry {geometry.fingerprint()}"
        )
    if forward.background != scenario.background:
        raise ConfigError(
            f"forward operator assembled for background {forward.background}, "
            f"used with scenario {scenario.id} of background {scenario.background}"
        )


def _hermitian_mean(total: np.ndarray, count: int) -> np.ndarray:
    """The Hermitian part of total / count, for a sum of count outer products."""
    matrix = total / count
    return 0.5 * (matrix + matrix.conj().T)


def closure_covariances(
    forward: ForwardMatrix,
    scenario: Scenario,
    geometry: SceneGeometry,
    cov: PerturbationCovariance,
    count: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Linear- and exact-mode sample covariances of one draw of ``count`` samples.

    The one-model case of :func:`shared_closure_covariances`; its error is
    raised.
    """
    (outcome,) = shared_closure_covariances([(forward, scenario, cov)], geometry, count, seed)
    if isinstance(outcome, GprClutterError):
        raise outcome
    return outcome


def shared_closure_covariances(
    models: list[tuple[ForwardMatrix, Scenario, PerturbationCovariance]],
    geometry: SceneGeometry,
    count: int,
    seed: int,
) -> list[tuple[np.ndarray, np.ndarray] | GprClutterError]:
    """Closure sample covariances of several models from one draw of ``count`` samples.

    ``models`` holds (forward, scenario, cov) triples on ``geometry``. The
    standard normals of each block of :func:`_block_starts` are drawn once;
    each live model mixes them with its covariance, synthesizes the samples
    in both modes and adds their y y^H into one MN x MN sum per mode. A
    model's sums equal those of :func:`sample_covariance` on its full
    snapshot arrays up to summation order (Chan, Golub & LeVeque, Am. Stat.
    1983), and memory holds one block of normals, samples and snapshots,
    not the (count, 5P) samples. Sample i is the same for every model, and
    the same as a one-model run gives.

    Returns, per model, its (linear, exact) sample covariances, or the
    :class:`GprClutterError` that dropped it; the other models go on.
    """
    if count < 2:
        raise ConfigError("closure needs at least two snapshots per mode")
    dim = N_PARAMS * geometry.n_cells
    outcomes: list = [None] * len(models)
    sums = {}
    for index, (forward, scenario, cov) in enumerate(models):
        try:
            _check_forward(forward, scenario, geometry)
            if cov.dim != dim:
                raise ConfigError(
                    f"covariance of dimension {cov.dim}, not 5 x {geometry.n_cells} cells")
        except GprClutterError as exc:
            outcomes[index] = exc
            continue
        size = forward.shape[0]
        sums[index] = {mode: np.zeros((size, size), dtype=complex) for mode in SNAPSHOT_MODES}
    for start, size in _block_starts(dim, count):
        if not sums:
            break
        normals = standard_normal_draws(dim, size, seed, start=start)
        for index, totals in list(sums.items()):
            forward, scenario, cov = models[index]
            try:
                samples = _mix(cov, normals)
                for mode, total in totals.items():
                    snapshots = snapshots_from_perturbations(
                        forward, scenario, geometry, samples, mode, start=start)
                    total += snapshots.T @ snapshots.conj()
            except GprClutterError as exc:
                outcomes[index] = exc
                del sums[index]
    for index, totals in sums.items():
        outcomes[index] = (_hermitian_mean(totals["linear"], count),
                           _hermitian_mean(totals["exact"], count))
    return outcomes


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
    if sample_count < 1:
        raise ConfigError(f"sample count must be >= 1, got {sample_count!r}")

    _check_forward(forward, scenario, geometry)
    unit = cov_template.with_amplitude(1.0)
    base = np.empty((sample_count, unit.dim))
    for start, size in _block_starts(unit.dim, sample_count):
        base[start:start + size] = sample_perturbations(unit, size, seed, start=start)
    # The linear snapshot is homogeneous in the amplitude: synthesize it once.
    y_lin = snapshots_from_perturbations(forward, scenario, geometry, base, "linear")
    y_exact = np.empty_like(y_lin)
    p95_contrast, p95_snapshot = [], []
    for s in grid:
        # Each chunk's contrast errors go straight into the selector.
        selector = NearestRankSelector(sample_count * geometry.frequencies.size
                                       * geometry.n_cells, 0.95)
        for rows, contrast in _exact_chunks(scenario, geometry, base, scale=s):
            deviation = _linear_contrast(forward, base[rows])
            deviation *= s
            deviation -= contrast
            err = np.abs(deviation)
            err /= np.maximum(np.abs(contrast), DENOMINATOR_FLOOR)
            selector.add(err)
            _born_sum(forward, contrast, y_exact[rows])
        p95_contrast.append(selector.value())

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
