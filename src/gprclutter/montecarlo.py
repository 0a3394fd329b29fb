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
:func:`shared_closure_covariances` streams the linear sample covariance of
every scenario of a run from one draw, and the exact-mode covariance as a
control variate on it, which needs exact snapshots of the draw's first
tenth only; :func:`closure_from_covariances` compares them with the
theory. Synthesis is noise-free throughout: the additive noise floor
enters analytically downstream. Every path takes the
forward operator alone: its frequencies come from ``forward.geometry`` and
its background from ``forward.scenario``.

Contrast is laid out frequency outermost, (N, L, P) for N frequencies, L
samples and P cells: (5, 1, L, P) perturbations meet (N, 1, 1)
frequencies, so each full-size operation of :func:`exact_contrast_field`
reads contiguous (L, P) operands and broadcasts only along the outermost
axis; a stride-0 axis inside the array would be walked value by value.
The linear contrast has the same layout, and the Born sum multiplies each
frequency's contiguous (L, P) slice by its transmit's kernels.

Exact contrast has one path, :func:`_exact_walk`, for exact synthesis and
the validity scan alike. It evaluates the samples in chunks of at most
EXACT_CHUNK_VALUES values, each at every scale it is given, forms each
Born sum in an array of its own and hands contrast and snapshots on in
ensemble order; exact synthesis copies each chunk's snapshots into its
rows.

Memory does not grow with the sample count times 5P. Both Monte Carlo
passes draw, synthesize and reduce the samples in blocks of at most
SAMPLE_BLOCK samples and SAMPLE_BLOCK_BYTES bytes of samples. Blocks and
chunks alike are the balanced :func:`row_slices` under their cap, in
order, the larger first. Each array is released before its successor is
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
block's snapshots into two MN x MN sums, of the linear y y^H and of the
exact correction. At its peak it holds two blocks, the spatially mixed
normals and one scenario's samples, and two chunks while one is evaluated: the contrast being written and the
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
    PARAMETER_NAMES,
    check_tau_floor,
    exact_contrast_field,
)
from .errors import (ConfigError, DomainError, GprClutterError, NonFiniteError, TauFloorError,
                     UndefinedSpectrumError)
from .forward import ForwardMatrix, frobenius_norm
from .randfield import (
    EXACT_CHUNK_VALUES,
    PerturbationCovariance,
    _parameter_mix,
    row_slices,
    sample_perturbations,
    standard_normal_draws,
)
from .spectra import ClutterCovariance, SpectralSummary, spectral_summary

SNAPSHOT_MODES = ("linear", "exact")

DEFAULT_AMPLITUDE_GRID = (0.0625, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0)
DEFAULT_VALIDITY_SAMPLE_COUNT = 200
DEFAULT_VALIDITY_THRESHOLD = 0.05

#: Samples drawn, synthesized and accumulated at a time, at most. Fixed, so
#: the summation order, and with it every output byte, does not depend on
#: the machine.
SAMPLE_BLOCK = 64

#: Bytes of float samples per block, at most (at least one sample). A block
#: of 5P-entry samples holds at most min(SAMPLE_BLOCK, SAMPLE_BLOCK_BYTES //
#: (8 * 5P)) samples: 64 at P=525, 30 at P=1728, 1 at P=32000. The sampler holds the
#: normals and the mixed rows of one block, and one row group of the
#: spatial mix.
SAMPLE_BLOCK_BYTES = 2 * 2**20

#: Closure forms exact snapshots for the first L' = ceil(L / EXACT_SUBSET_DIVISOR)
#: samples of its draw only. A tenth keeps every exact column's paired move
#: against the full-L exact estimate within a tenth of its spread across seeds.
EXACT_SUBSET_DIVISOR = 10


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


def _exact_walk(forward: ForwardMatrix, samples: np.ndarray, scales: tuple[float, ...], *,
                start: int):
    """Exact contrast and Born snapshots of each ``scale * samples``, chunk by chunk.

    For each chunk of :func:`row_slices` (at most EXACT_CHUNK_VALUES values
    of contrast) in order, and each scale in order, yields (rows, k,
    contrast, snapshots): the (N, rows, P) exact contrast of
    ``scales[k] * samples[rows]`` and its (rows, M N) Born sum.
    Each (chunk, scale) gets a contrast and snapshots of its own, which the
    walk never writes again, and consumers see the chunks in ensemble
    order. The walk drops both once handed on, so a consumer that drops
    them too holds one (chunk, scale) at a time. ``samples[0]`` is sample
    ``start`` of the ensemble: a tau-floor or non-finite error names the chunk's
    samples and the offending (sample, frequency or 0, cell) in ensemble numbering.
    """
    omegas = 2.0 * np.pi * forward.geometry.frequencies[:, None, None]
    # Transmit n's (P, M) kernels: one stacked product, a GEMM per transmit,
    # reads the contiguous (rows, P) slice contrast[n] and writes the
    # columns of transmit n in place.
    kernels = forward.kernels.reshape(forward.n_tx, forward.n_rx, -1).transpose(0, 2, 1)
    for rows in _exact_chunks(forward, len(samples)):
        # (5, 1, rows, P) against (N, 1, 1): see the module docstring.
        unit = samples[rows].reshape(-1, N_PARAMS, forward.n_cells).transpose(1, 0, 2)[:, None]
        for k, scale in enumerate(scales):
            try:
                # 1.0 * x is x, so unit scale needs no scaled copy.
                contrast = exact_contrast_field(
                    forward.scenario.background, unit if scale == 1.0 else scale * unit, omegas)
            except (TauFloorError, NonFiniteError) as exc:
                raise _in_ensemble(exc, start, rows.start, rows) from exc
            snapshots = np.empty((rows.stop - rows.start, forward.shape[0]), dtype=complex)
            np.matmul(contrast, kernels,
                      out=snapshots.reshape(-1, forward.n_tx, forward.n_rx).transpose(1, 0, 2))
            yield rows, k, contrast, snapshots
            del contrast, snapshots  # freed before the next evaluation


def _exact_chunks(forward: ForwardMatrix, count: int) -> list[slice]:
    """The exact walk's chunks of ``count`` samples: at most EXACT_CHUNK_VALUES values of contrast."""
    return row_slices(count, EXACT_CHUNK_VALUES // (forward.n_tx * forward.n_cells))


def _in_ensemble(error: DomainError, start: int, offset: int, chunk: slice) -> DomainError:
    """``error`` at (frequency, sample, cell) of the block rows from ``offset``, renumbered.

    The block's first row is sample ``start`` of the ensemble; the message
    names the ensemble samples of ``chunk``, the block's chunk that holds
    the sample.
    """
    frequency, sample, cell = error.index
    return error.moved((start + offset + sample, frequency, cell),
                       f"samples {start + chunk.start}..{start + chunk.stop - 1}: ")


def snapshots_from_perturbations(forward: ForwardMatrix, samples: np.ndarray, mode: str, *,
                                 start: int = 0) -> np.ndarray:
    """Noise-free Born snapshots of given perturbation samples, shape (L, MN).

    ``linear`` applies the forward operator through its factors,
    y = sum_q D_q K x_q; ``exact`` evaluates the exact contrast per cell and
    frequency, at the forward's own frequencies and background, and
    contracts it against the same two-way kernels K.
    ``samples[0]`` is sample ``start`` of the ensemble, as errors report it.
    """
    if mode not in SNAPSHOT_MODES:
        raise ConfigError(f"unknown snapshot mode {mode!r} (known: {SNAPSHOT_MODES})")
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
    for rows, _, contrast, snapshots in _exact_walk(forward, samples, (1.0,), start=start):
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


def _hermitian_mean(total: np.ndarray, count: int) -> np.ndarray:
    """The Hermitian part of total / count, for a sum of count outer products."""
    matrix = total / count
    return 0.5 * (matrix + matrix.conj().T)


def shared_closure_covariances(
    models: list[tuple[ForwardMatrix, PerturbationCovariance]],
    count: int,
    seed: int,
) -> list[tuple[np.ndarray, np.ndarray] | GprClutterError]:
    """Closure covariance estimates of several models from one draw of ``count`` samples.

    ``models`` holds (forward, cov) pairs that share one ``cov.spatial``,
    whose cell count sets the dimension of every draw. Before the first
    draw each model's dimension and parameter factor are checked, the first
    passing model's spatial root too, and every later model must hold that
    same instance.
    The standard normals of each block of :func:`row_slices` are drawn
    once and mixed once by that root; each model applies its parameter
    factor and adds the y y^H of its linear snapshots into one MN x MN sum,
    and, for the first L' = ceil(L / EXACT_SUBSET_DIVISOR) samples only,
    y_e y_e^H - y y^H of their exact snapshots y_e into a second
    (:func:`_add_outer_products`). A model's sums equal those of
    :func:`sample_covariance` on its full snapshot arrays up to summation
    order (Chan, Golub & LeVeque, Am. Stat. 1983). Sample i is the same for
    every model, and the same as a one-model run gives.

    Returns, per model, its linear sample covariance R_lin(L) and the
    control-variate estimate R_lin(L) + [R_exact(L') - R_lin(L')] of the
    exact-mode covariance (Nelson, Oper. Res. 1990; Giles, Acta Numer.
    2015), or the :class:`GprClutterError` of the failed check, or the
    DomainError of its exact contrast or tau floor in a block, that dropped
    it; the other models go on.
    """
    if count < 2:
        raise ConfigError("closure needs at least two snapshots per mode")
    outcomes: list = [None] * len(models)
    sums, correlation, owner = {}, None, None
    for index, (forward, cov) in enumerate(models):
        try:
            if cov.dim != N_PARAMS * forward.n_cells:
                raise ConfigError(
                    f"covariance of dimension {cov.dim}, not 5 x {forward.n_cells} cells")
            _ = cov.param_cholesky
            if correlation is None:
                _ = cov.spatial.root
                correlation, owner = cov.spatial, forward.scenario
            elif cov.spatial is not correlation:
                raise ConfigError(
                    f"scenario {forward.scenario.id}: spatial correlation is not that of "
                    f"scenario {owner.id}; closure mixes one spatial root")
        except GprClutterError as exc:
            outcomes[index] = exc
            continue
        size = forward.shape[0]
        sums[index] = {term: np.zeros((size, size), dtype=complex)
                       for term in ("linear", "correction")}
    if not sums:
        return outcomes
    exact_count = -(-count // EXACT_SUBSET_DIVISOR)
    dim = N_PARAMS * correlation.n_cells
    for block in row_slices(count, min(SAMPLE_BLOCK, SAMPLE_BLOCK_BYTES // (8 * dim))):
        if not sums:
            break
        # No name keeps the normals: a dense root's GEMM frees them.
        spatial = correlation.mix(standard_normal_draws(
            dim, block.stop - block.start, seed, start=block.start))
        for index in list(sums):
            try:
                _add_outer_products(models[index], spatial, block.start, exact_count,
                                    sums[index])
            except DomainError as exc:
                outcomes[index] = _without_locals(exc)
                del sums[index]
        del spatial  # freed before the next block's draw
    for index, totals in sums.items():
        linear = _hermitian_mean(totals["linear"], count)
        outcomes[index] = (linear, linear + _hermitian_mean(totals["correction"], exact_count))
    return outcomes


def _add_outer_products(
    model: tuple[ForwardMatrix, PerturbationCovariance],
    spatial: np.ndarray,
    start: int,
    exact_count: int,
    totals: dict[str, np.ndarray],
) -> None:
    """Add one block's outer products, mixed by ``model``'s parameter factor, to its two sums.

    ``spatial`` is the block's :meth:`SpatialCorrelation.mix` rows, shared
    by every model, and its first row is sample ``start``. Every row adds
    y y^H of its linear snapshot y to ``totals["linear"]``. The rows of
    samples below ``exact_count`` add y_e y_e^H - y y^H of their exact
    snapshots y_e to ``totals["correction"]``. The other rows form no exact
    contrast; their perturbed tau is checked against the floor as the exact
    walk checks it, and a hit is named as the walk would name it. The
    block's samples and snapshots are this call's own: they are freed when
    it returns, before the next model mixes the block.
    """
    forward, cov = model
    samples = _parameter_mix(cov, spatial)
    linear = snapshots_from_perturbations(forward, samples, "linear", start=start)
    totals["linear"] += linear.T @ linear.conj()
    exact_rows = min(max(exact_count - start, 0), len(samples))
    if exact_rows:
        exact = snapshots_from_perturbations(forward, samples[:exact_rows], "exact", start=start)
        linear = linear[:exact_rows]
        # (y_e - y)(y_e + y)^H, whose Hermitian part is y_e y_e^H - y y^H: one
        # product, of the small difference.
        totals["correction"] += (exact - linear).T @ (exact + linear).conj()
    if exact_rows < len(samples):
        tau = PARAMETER_NAMES.index("tau") * forward.n_cells
        try:
            check_tau_floor(forward.scenario.background,
                            samples[None, exact_rows:, tau:tau + forward.n_cells])
        except TauFloorError as exc:
            row = exact_rows + exc.index[1]
            chunk = next(rows for rows in _exact_chunks(forward, len(samples))
                         if row < rows.stop)
            raise _in_ensemble(exc, start, exact_rows, chunk) from exc


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
    theory_summary: SpectralSummary,
    cov_linear: np.ndarray,
    cov_exact: np.ndarray,
    sample_count: int,
) -> ClosureReport:
    """Closure metrics given sample covariances and the theory's spectral summary.

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

    summary_exact = spectral_summary(
        ClutterCovariance(matrix=cov_exact, provenance="monte-carlo-exact")
    )
    lam_theory = theory_summary.eigenvalues
    lam_exact = summary_exact.eigenvalues
    eps_lambda = float(frobenius_norm(lam_exact - lam_theory) / frobenius_norm(lam_theory))

    p = theory_summary.p_rho[0.9]
    basis_theory = theory_summary.eigenvectors[:, :p]
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

    unit = cov_template.with_amplitude(1.0)
    # Per amplitude: one selector of the contrast errors and the relative
    # snapshot errors, both filled chunk by chunk.
    selectors = [NearestRankSelector(sample_count * forward.n_tx * forward.n_cells, 0.95)
                 for _ in grid]
    snapshot_errors = np.zeros((len(grid), sample_count))
    for block in row_slices(sample_count, min(SAMPLE_BLOCK, SAMPLE_BLOCK_BYTES // (8 * unit.dim))):
        start = block.start
        base = sample_perturbations(unit, block.stop - start, seed, start=start)
        # The linear snapshot is homogeneous in the amplitude: synthesize it once.
        y_lin = snapshots_from_perturbations(forward, base, "linear")
        for rows, k, contrast, y in _exact_walk(forward, base, grid, start=start):
            if k == 0:
                # The linear contrast is homogeneous in the amplitude too: once
                # per chunk, formed after the previous chunk's is freed.
                linear = None
                linear = _linear_contrast(forward, base[rows])
            s = grid[k]
            # Both row norms in one call: each row is scaled and summed alone.
            norm, error = frobenius_norm(np.stack((y, y - s * y_lin[rows])), axis=-1)
            np.divide(error, norm, where=norm > 0.0,
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
