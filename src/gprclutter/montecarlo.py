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

Contrast is laid out frequency outermost, (N, L, P) for N frequencies, L
samples and P cells: (5, 1, L, P) perturbations meet (N, 1, 1)
frequencies, so each full-size operation of :func:`exact_contrast_field`
reads contiguous (L, P) operands and broadcasts only along the outermost
axis; a stride-0 axis inside the array would be walked value by value.
The linear contrast has the same layout, and the Born sum multiplies each
frequency's contiguous (L, P) slice by its transmit's kernels.

Exact contrast has one path, :func:`_exact_walk`, for exact synthesis and
the validity scan alike. It evaluates the samples in chunks of at most
EXACT_CHUNK_VALUES values (:func:`_exact_chunks`), each at every scale it
is given, forms each Born sum in an array of its own and hands contrast
and snapshots on in ensemble order; exact synthesis copies each chunk's
snapshots into its rows.

Memory does not grow with the sample count times 5P. Both Monte Carlo
passes draw, synthesize and reduce the samples in the blocks of
:func:`_block_starts`, at most SAMPLE_BLOCK samples and SAMPLE_BLOCK_BYTES
bytes of samples. Each array is released before its successor is
allocated: a scenario's samples and snapshots before the next scenario
mixes the block (a dropped scenario's kept error included), the block's
normals, or the scan's base samples and snapshots, before the next draw,
and a chunk's contrast and snapshots before the next chunk or scale is
evaluated.

Closure draws from the run's one :class:`SpatialCorrelation`: a scenario
on another is refused before the first draw. Each block's standard normals
are drawn once and mixed once by its root, in place for a separable factor
(:meth:`SpatialCorrelation.mix`); each
scenario then applies only its 5x5 parameter factor and reduces the
block's snapshots into one MN x MN sum of y y^H per mode. At its peak it
holds two blocks, the spatially mixed normals and one scenario's samples,
and two chunks while one is evaluated: the contrast being written and the
Cole-Cole kernel's real and imaginary parts. The validity scan holds one
block of base samples and its linear snapshots, which it synthesizes
once; per chunk it holds the linear contrast, formed once for all
amplitudes, and one amplitude's exact contrast and snapshots. It keeps
the L per-sample snapshot errors of each amplitude; each amplitude's L N P
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
from .forward import ForwardMatrix, frobenius_norm
from .randfield import (
    EXACT_CHUNK_VALUES,
    PerturbationCovariance,
    _parameter_mix,
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
    """First-order per-cell contrast of each sample at each frequency, shape (N, L, P).

    Frequency outermost and C-contiguous, as :func:`_exact_walk` lays out
    the exact contrast it is compared with.
    """
    per_channel = samples.reshape(samples.shape[0], N_PARAMS, forward.n_cells)
    contrast = np.empty((forward.n_tx, samples.shape[0], forward.n_cells), dtype=complex)
    # The same per-sample (N, 5) x (5, P) products as an (L, N, P) result,
    # written through its transposed view.
    np.matmul(forward.sensitivities.T, per_channel, out=contrast.transpose(1, 0, 2))
    return contrast


def _exact_chunks(geometry: SceneGeometry, count: int):
    """Row slices of ``count`` samples, in order, one exact-contrast chunk each.

    A chunk's (N, rows, P) contrast holds at most EXACT_CHUNK_VALUES values
    unless one sample alone exceeds that: there are ceil(count / cap)
    chunks for a cap of that many rows, at least one, and their sizes
    differ by at most one, the larger first. 64 samples at P = 525 give 13,
    13, 13, 13 and 12 rows rather than a ragged 4-row tail, the chunk that
    costs most per value. No samples give no chunk.
    """
    if count == 0:
        return
    cap = max(1, EXACT_CHUNK_VALUES // (geometry.frequencies.size * geometry.n_cells))
    chunks = -(-count // cap)
    size, larger = divmod(count, chunks)
    row = 0
    for chunk in range(chunks):
        rows = size + (chunk < larger)
        yield slice(row, row + rows)
        row += rows


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


def _exact_walk(forward: ForwardMatrix, scenario: Scenario, geometry: SceneGeometry,
                samples: np.ndarray, scales: tuple[float, ...], *, start: int):
    """Exact contrast and Born snapshots of each ``scale * samples``, chunk by chunk.

    For each chunk of :func:`_exact_chunks` in order, and each scale in
    order, yields (rows, k, contrast, snapshots): the (N, rows, P) exact
    contrast of ``scales[k] * samples[rows]`` and its (rows, M N) Born sum.
    Each (chunk, scale) gets a contrast and snapshots of its own, which the
    walk never writes again, and consumers see the chunks in ensemble
    order. The walk drops both once handed on, so a consumer that drops
    them too holds one (chunk, scale) at a time. ``samples[0]`` is sample ``start`` of the ensemble: a
    tau-floor error names the chunk's samples and the offending (sample, 0,
    cell) index in ensemble numbering.
    """
    omegas = 2.0 * np.pi * geometry.frequencies[:, None, None]
    # Transmit n's (P, M) kernels: one stacked product, a GEMM per transmit,
    # reads the contiguous (rows, P) slice contrast[n] and writes the
    # columns of transmit n in place.
    kernels = forward.kernels.reshape(forward.n_tx, forward.n_rx, -1).transpose(0, 2, 1)
    for rows in _exact_chunks(geometry, samples.shape[0]):
        # (5, 1, rows, P) against (N, 1, 1): see the module docstring.
        unit = samples[rows].reshape(-1, N_PARAMS, geometry.n_cells).transpose(1, 0, 2)[:, None]
        for k, scale in enumerate(scales):
            try:
                # 1.0 * x is x, so unit scale needs no scaled copy.
                contrast = exact_contrast_field(
                    scenario.background, unit if scale == 1.0 else scale * unit, omegas)
            except TauFloorError as exc:
                first, last = start + rows.start, start + rows.stop - 1
                _, sample, cell = exc.index
                raise TauFloorError((first + sample, 0, cell), exc.value, exc.floor,
                                    f"samples {first}..{last}: ") from exc
            snapshots = np.empty((rows.stop - rows.start, forward.shape[0]), dtype=complex)
            np.matmul(contrast, kernels,
                      out=snapshots.reshape(-1, forward.n_tx, forward.n_rx).transpose(1, 0, 2))
            yield rows, k, contrast, snapshots
            del contrast, snapshots  # freed before the next evaluation


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

    ``linear`` applies the forward operator through its factors,
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
    count, channels = samples.shape[0], forward.shape[0]
    if mode == "linear":
        # y = sum_q D_q K x_q. The L * 5 rows x_q of the samples meet K^T in
        # one real GEMM, which reads K once, with each complex entry of K^T
        # split into adjacent (real, imag) columns; the float product read
        # as complex is K x_q for every sample and parameter. Weighted by
        # psi_q, the 5 parameter blocks are summed in order.
        columns = np.ascontiguousarray(forward.kernels.T).view(float)
        per_row = (samples.reshape(count * N_PARAMS, forward.n_cells) @ columns).view(complex)
        per_channel = per_row.reshape(count, N_PARAMS, channels)
        per_channel *= forward.row_sensitivities()
        return per_channel.sum(axis=1)

    out = np.empty((count, channels), dtype=complex)
    for rows, _, contrast, snapshots in _exact_walk(forward, scenario, geometry, samples, (1.0,),
                                                    start=start):
        out[rows] = snapshots
        del contrast, snapshots  # freed before the next chunk is evaluated
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

    ``models`` holds (forward, scenario, cov) triples on ``geometry`` that
    share one ``cov.spatial``. Before the first draw each model's forward,
    dimension and parameter factor are checked, the first passing model's
    spatial root too, and every later model must hold that same instance.
    The standard normals of each block of :func:`_block_starts` are drawn
    once and mixed once by that root; each model applies its parameter
    factor, synthesizes the samples in both modes and adds their y y^H into
    one MN x MN sum per mode. A model's sums equal those of
    :func:`sample_covariance` on its full snapshot arrays up to summation
    order (Chan, Golub & LeVeque, Am. Stat. 1983). Sample i is the same for
    every model, and the same as a one-model run gives.

    Returns, per model, its (linear, exact) sample covariances, or the
    :class:`GprClutterError` of the failed check, or of the tau floor in a
    block, that dropped it; the other models go on.
    """
    if count < 2:
        raise ConfigError("closure needs at least two snapshots per mode")
    dim = N_PARAMS * geometry.n_cells
    outcomes: list = [None] * len(models)
    sums, correlation, owner = {}, None, None
    for index, (forward, scenario, cov) in enumerate(models):
        try:
            _check_forward(forward, scenario, geometry)
            if cov.dim != dim:
                raise ConfigError(
                    f"covariance of dimension {cov.dim}, not 5 x {geometry.n_cells} cells")
            _ = cov.param_cholesky
            if correlation is None:
                _ = cov.spatial.root
                correlation, owner = cov.spatial, scenario
            elif cov.spatial is not correlation:
                raise ConfigError(
                    f"scenario {scenario.id}: spatial correlation is not that of scenario "
                    f"{owner.id}; closure mixes one spatial root")
        except GprClutterError as exc:
            outcomes[index] = exc
            continue
        size = forward.shape[0]
        sums[index] = {mode: np.zeros((size, size), dtype=complex) for mode in SNAPSHOT_MODES}
    for start, size in _block_starts(dim, count):
        if not sums:
            break
        # No name keeps the normals: a dense root's GEMM frees them.
        spatial = correlation.mix(standard_normal_draws(dim, size, seed, start=start))
        for index in list(sums):
            try:
                _add_outer_products(models[index], geometry, spatial, start, sums[index])
            except TauFloorError as exc:
                outcomes[index] = _without_locals(exc)
                del sums[index]
        del spatial  # freed before the next block's draw
    for index, totals in sums.items():
        outcomes[index] = (_hermitian_mean(totals["linear"], count),
                           _hermitian_mean(totals["exact"], count))
    return outcomes


def _add_outer_products(
    model: tuple[ForwardMatrix, Scenario, PerturbationCovariance],
    geometry: SceneGeometry,
    spatial: np.ndarray,
    start: int,
    totals: dict[str, np.ndarray],
) -> None:
    """Add y y^H of one block, mixed by ``model``'s parameter factor, to its sum per mode.

    ``spatial`` is the block's :meth:`SpatialCorrelation.mix` rows, shared by every
    model. The block's samples and snapshots are this call's own: they are
    freed when it returns, before the next model mixes the block.
    """
    forward, scenario, cov = model
    samples = _parameter_mix(cov, spatial)
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
) -> ClosureReport:
    """Closure metrics given precomputed sample covariances.

    eps_cov is the relative Frobenius error per synthesis mode; eps_lambda
    compares the full descending eigenvalue vectors of the exact-mode
    estimate; eps_sub is the normalized distance || P_theory - P_exact ||_F
    / sqrt(2 p) between orthogonal projectors onto the dominant-p
    eigenspaces, with p the theory's p_0.9.
    """
    norm_theory = frobenius_norm(theory.matrix)
    if norm_theory == 0.0:
        raise UndefinedSpectrumError("closure undefined for a zero theoretical covariance")
    eps_cov_lin = float(frobenius_norm(cov_linear - theory.matrix) / norm_theory)
    eps_cov_exact = float(frobenius_norm(cov_exact - theory.matrix) / norm_theory)

    summary_theory = spectral_summary(theory)
    summary_exact = spectral_summary(
        ClutterCovariance(matrix=cov_exact, provenance="monte-carlo-exact")
    )
    lam_theory = summary_theory.eigenvalues
    lam_exact = summary_exact.eigenvalues
    eps_lambda = float(frobenius_norm(lam_exact - lam_theory) / frobenius_norm(lam_theory))

    p = summary_theory.p_rho[0.9]
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
        subspace_dim=p,
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
    snapshot errors are per-sample relative vector errors ||y - s y_lin||
    / ||y||, 0 for a zero snapshot y. Both use the
    nearest-rank 95th percentile. The recommended amplitude is the largest
    grid value such that it and every smaller grid value stay below the
    threshold on both metrics.
    """
    grid = tuple(float(s) for s in amplitude_grid)
    if len(grid) == 0:
        raise ConfigError("amplitude_grid must not be empty")
    if not all(0.0 < s < math.inf for s in grid) or list(grid) != sorted(grid):
        raise ConfigError(f"amplitude_grid must be positive, finite and ascending, got {grid!r}")
    if not 0.0 < threshold < math.inf:
        raise ConfigError(f"threshold must be positive and finite, got {threshold!r}")
    if sample_count < 1:
        raise ConfigError(f"sample count must be >= 1, got {sample_count!r}")

    _check_forward(forward, scenario, geometry)
    unit = cov_template.with_amplitude(1.0)
    # Per amplitude: one selector of the contrast errors and the relative
    # snapshot errors, both filled chunk by chunk.
    selectors = [NearestRankSelector(sample_count * geometry.frequencies.size
                                     * geometry.n_cells, 0.95) for _ in grid]
    snapshot_errors = np.zeros((len(grid), sample_count))
    for start, size in _block_starts(unit.dim, sample_count):
        base = sample_perturbations(unit, size, seed, start=start)
        # The linear snapshot is homogeneous in the amplitude: synthesize it once.
        y_lin = snapshots_from_perturbations(forward, scenario, geometry, base, "linear")
        for rows, k, contrast, y in _exact_walk(forward, scenario, geometry, base, grid,
                                                start=start):
            if k == 0:
                # The linear contrast is homogeneous in the amplitude too: once
                # per chunk, formed after the previous chunk's is freed.
                linear = None
                linear = _linear_contrast(forward, base[rows])
            s = grid[k]
            norm = frobenius_norm(y, axis=1)
            np.divide(frobenius_norm(y - s * y_lin[rows], axis=1), norm, where=norm > 0.0,
                      out=snapshot_errors[k, start + rows.start:start + rows.stop])
            selectors[k].add(_contrast_errors(contrast, linear, s))
            del contrast, y  # freed before the next evaluation
        del base, y_lin, linear  # freed before the next block's draw
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
