"""Monte Carlo synthesis of Born snapshots and closure/validity metrics.

Snapshot ensembles come in two flavors sharing kernels, discretization and
perturbation draws: ``linear`` applies the stacked observation operator to
each perturbation sample, ``exact`` re-evaluates the constitutive law cell
by cell and sums the Born integrand with the exact contrast. Both apply
the operator through its factors, the kernels K and the sensitivities Psi
of ``ForwardMatrix``, which keeps no dense matrix. Comparing
the two isolates the constitutive linearization error; comparing their
sample covariances with the propagated theoretical covariance closes the
loop on the statistical chain. Closure has one path:
:func:`shared_closure_covariances` streams both sample covariances of
every scenario of a run from one draw, and :func:`closure_from_covariances`
compares them with the theory. Synthesis is noise-free throughout: the
additive noise floor enters analytically downstream. A forward operator
assembled on another geometry than the one passed is refused.

Memory does not grow with the sample count times 5P. Both Monte Carlo
passes draw, synthesize and reduce the samples in the blocks of
:func:`_block_starts`, at most SAMPLE_BLOCK samples and SAMPLE_BLOCK_BYTES
bytes of samples, and evaluate exact contrast in chunks of at most
EXACT_CHUNK_VALUES values. Each array is released before its successor is
allocated: a scenario's samples and snapshots before the next scenario
mixes the block (a dropped scenario's kept error included), the block's
normals, or the scan's base samples and linear snapshots, before the next
draw, and a chunk's contrast before the next chunk is evaluated.

Closure draws each block's standard normals once for all scenarios and
reduces the block's snapshots into one MN x MN sum of y y^H per mode and
scenario. At its peak it holds two blocks, the normals and one scenario's
samples, and two chunks while one is evaluated: the contrast being
written and the Cole-Cole kernel's real and imaginary parts. The validity
scan holds one block of base samples and its linear snapshots, which it
synthesizes once, and per chunk the linear contrast, formed once for all
amplitudes, and one amplitude's exact evaluation. It keeps the L
per-sample snapshot errors of each amplitude; each amplitude's L N P
contrast errors stream into its own :class:`NearestRankSelector`, which
keeps at most 1.25 times a twentieth of them at the 95th percentile.
"""

from __future__ import annotations

import dataclasses
import math
import traceback

import numpy as np

from .constitutive import (
    DENOMINATOR_FLOOR,
    N_PARAMS,
    exact_contrast_field,
)
from .errors import ConfigError, GprClutterError, TauFloorError, UndefinedSpectrumError
from .forward import ForwardMatrix
from .randfield import (
    EXACT_CHUNK_VALUES,
    PerturbationCovariance,
    _mix,
    sample_perturbations,
    standard_normal_draws,
)
from .scene import Scenario, SceneGeometry
from .spectra import ClutterCovariance, spectral_summary

SNAPSHOT_MODES = ("linear", "exact")

DEFAULT_AMPLITUDE_GRID = (0.0625, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0)
DEFAULT_VALIDITY_SAMPLE_COUNT = 200
DEFAULT_VALIDITY_THRESHOLD = 0.05

#: Samples drawn, synthesized and accumulated at a time, at most. Fixed, so
#: the summation order, and with it every output byte, does not depend on
#: the machine.
SAMPLE_BLOCK = 64

#: Bytes of float samples per block, at most (at least one sample). A block
#: of 5P-entry samples holds min(SAMPLE_BLOCK, SAMPLE_BLOCK_BYTES // (8 * 5P))
#: samples: 64 at P=525, 30 at P=1728, 1 at P=32000. The sampler holds the
#: normals and the mixed rows of one block, and one row group of the
#: spatial mix.
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
    in a buffer of at most k + k // SLACK_DIVISOR entries. A chunk that does
    not fit is merged with the buffer by one partition that keeps the k
    largest of both. From then on the buffer's floor (the k-th largest
    value so far) only rises, and values at or below it are dropped as they
    arrive. The result is the selected value itself, so it equals a
    sort-based nearest rank exactly. NaN counts as the largest value, as in
    ``np.sort``.
    """

    #: The slack beyond k is k // SLACK_DIVISOR values, so a merge comes at
    #: most once per that many new candidates. The validity scan holds one
    #: selector per amplitude: a slack of k costs it 1.7 MB more memory at the
    #: default size than this one, for 3.5 ms less time per scenario.
    SLACK_DIVISOR = 4

    def __init__(self, count: int, q: float):
        if count < 1:
            raise ConfigError("percentile of an empty sample")
        if not 0.0 <= q <= 1.0:
            raise ConfigError(f"percentile level must lie in [0, 1], got {q!r}")
        self.count = int(count)
        self.seen = 0
        self._keep = self.count - max(int(math.ceil(q * self.count)), 1) + 1
        self._buffer = np.empty(min(self._keep + self._keep // self.SLACK_DIVISOR, self.count))
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
        if self._filled + values.size > self._buffer.size:
            # Keep the k largest of the buffer and the chunk, smallest first.
            values = np.concatenate((self._buffer[:self._filled], values))
            cut = values.size - self._keep
            values.partition(cut)
            values = values[cut:]
            self._filled = 0
            self._floor = values[0]
        self._buffer[self._filled:self._filled + values.size] = values
        self._filled += values.size

    def value(self) -> float:
        """The percentile, once all ``count`` values have arrived."""
        if self.seen != self.count:
            raise ConfigError(f"percentile of {self.seen} values, {self.count} announced")
        kept = self._buffer[:self._filled]
        cut = self._filled - self._keep
        kept.partition(cut)
        return float(kept[cut])


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


def _exact_chunks(geometry: SceneGeometry, count: int):
    """Row slices of ``count`` samples, one exact-contrast chunk each.

    A chunk's (rows, N, P) contrast holds at most EXACT_CHUNK_VALUES values
    unless one sample alone exceeds that.
    """
    step = max(1, EXACT_CHUNK_VALUES // (geometry.frequencies.size * geometry.n_cells))
    for row in range(0, count, step):
        yield slice(row, min(row + step, count))


def _exact_contrast(
    scenario: Scenario,
    geometry: SceneGeometry,
    samples: np.ndarray,
    scale: float = 1.0,
    start: int = 0,
) -> np.ndarray:
    """Exact per-cell contrast of ``scale * samples``, shape (L, N, P).

    ``samples[0]`` is sample ``start`` of the ensemble: a tau-floor error
    names the samples and the offending (sample, 0, cell) index in ensemble
    numbering.
    """
    omegas = 2.0 * np.pi * geometry.frequencies
    per_channel = samples.reshape(samples.shape[0], N_PARAMS, geometry.n_cells)
    # (5, L, 1, P) perturbations against (N, 1) frequencies; 1.0 * x is x,
    # so unit scale needs no scaled copy.
    delta = per_channel.transpose(1, 0, 2)[:, :, None, :]
    if scale != 1.0:
        delta = scale * delta
    try:
        return exact_contrast_field(scenario.background, delta, omegas[:, None])
    except TauFloorError as exc:
        first, last = start, start + samples.shape[0] - 1
        index = (first + exc.index[0],) + exc.index[1:]
        where = f"samples {first}..{last}: "
        raise TauFloorError(index, exc.value, exc.floor, where) from exc


def _contrast_errors(exact: np.ndarray, linear: np.ndarray, scale: float) -> np.ndarray:
    """|exact - scale * linear| / max(|exact|, DENOMINATOR_FLOOR); overwrites ``exact``.

    The deviation is formed in the exact contrast's memory. Rounding is
    symmetric, so |a - b| here equals |b - a| bit for bit.
    """
    denominator = np.maximum(np.abs(exact), DENOMINATOR_FLOOR)
    exact -= linear * scale
    errors = np.abs(exact)
    errors /= denominator
    return errors


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

    for rows in _exact_chunks(geometry, samples.shape[0]):
        # No name keeps a chunk's contrast once its sum is written, so the
        # next chunk is evaluated without it.
        _born_sum(forward, _exact_contrast(scenario, geometry, samples[rows],
                                           start=start + rows.start), out[rows])
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
            try:
                _add_outer_products(models[index], geometry, normals, start, totals)
            except GprClutterError as exc:
                outcomes[index] = _without_locals(exc)
                del sums[index]
        del normals  # freed before the next block's draw
    for index, totals in sums.items():
        outcomes[index] = (_hermitian_mean(totals["linear"], count),
                           _hermitian_mean(totals["exact"], count))
    return outcomes


def _add_outer_products(
    model: tuple[ForwardMatrix, Scenario, PerturbationCovariance],
    geometry: SceneGeometry,
    normals: np.ndarray,
    start: int,
    totals: dict[str, np.ndarray],
) -> None:
    """Add y y^H of one block, mixed by ``model``, to its sum per mode.

    The block's samples and snapshots are this call's own: they are freed
    when it returns, before the next model mixes the block.
    """
    forward, scenario, cov = model
    samples = _mix(cov, normals)
    for mode, total in totals.items():
        snapshots = snapshots_from_perturbations(
            forward, scenario, geometry, samples, mode, start=start)
        total += snapshots.T @ snapshots.conj()
        del snapshots  # freed before the next mode's synthesis


def _without_locals(error: GprClutterError) -> GprClutterError:
    """``error``, with the locals of the finished frames in its traceback and its causes' cleared.

    A dropped model's error is kept until closure returns; those frames
    would otherwise keep the model's block of samples alive.
    """
    link = error
    while link is not None:
        traceback.clear_frames(link.__traceback__)
        link = link.__cause__ or link.__context__
    return error


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
    sample_count: int = DEFAULT_VALIDITY_SAMPLE_COUNT,
    threshold: float = DEFAULT_VALIDITY_THRESHOLD,
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
    # Per amplitude: one selector of the contrast errors and the relative
    # snapshot errors, both filled chunk by chunk.
    selectors = [NearestRankSelector(sample_count * geometry.frequencies.size
                                     * geometry.n_cells, 0.95) for _ in grid]
    snapshot_errors = np.empty((len(grid), sample_count))
    for start, size in _block_starts(unit.dim, sample_count):
        base = sample_perturbations(unit, size, seed, start=start)
        # The linear snapshot is homogeneous in the amplitude: synthesize it once.
        y_lin = snapshots_from_perturbations(forward, scenario, geometry, base, "linear")
        for rows in _exact_chunks(geometry, size):
            # The linear contrast is homogeneous in the amplitude too: once per chunk.
            linear = _linear_contrast(forward, base[rows])
            y_exact = np.empty_like(y_lin[rows])
            ensemble = slice(start + rows.start, start + rows.stop)
            for s, selector, rel in zip(grid, selectors, snapshot_errors):
                contrast = _exact_contrast(scenario, geometry, base[rows], scale=s,
                                           start=ensemble.start)
                _born_sum(forward, contrast, y_exact)
                norms = np.linalg.norm(y_exact, axis=1)
                rel[ensemble] = (np.linalg.norm(y_exact - s * y_lin[rows], axis=1)
                                 / np.maximum(norms, DENOMINATOR_FLOOR))
                selector.add(_contrast_errors(contrast, linear, s))
                del contrast  # freed before the next amplitude's evaluation
            del linear, y_exact  # freed before the next chunk's
        del base, y_lin  # freed before the next block's draw
    p95_contrast = [selector.value() for selector in selectors]
    p95_snapshot = [nearest_rank_percentile(rel, 0.95) for rel in snapshot_errors]

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
