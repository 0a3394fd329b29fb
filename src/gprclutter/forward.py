"""Scalar background propagation kernels and the Born observation operator.

The background is a homogeneous dispersive whole space, so both the
transmit and the receive kernel reduce to the scalar Green function

    g(r; omega) = exp(-j k_b(omega) r) / (4 pi r),
    k_b = omega sqrt(mu0 eps_b(omega)),  Im k_b <= 0,

with the square-root branch chosen so fields decay with distance under the
e^{j omega t} convention. The receive functional is a point sample, and the
transmit amplitude factor is one for every channel. The kernel is kept
behind this module's small surface so a layered half-space response can be
swapped in without touching the covariance layer.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterator

import numpy as np

from .constants import MU_0
from .constitutive import (
    N_PARAMS,
    ColeColeParams,
    complex_permittivity,
    positive_omega,
    sensitivity_components,
)
from .errors import AssemblyError, ConfigError
from .scene import DistanceTable, Scenario, SceneGeometry, distance_table

#: Identifier recorded in persisted metadata.
KERNEL_NAME = "homogeneous-dispersive-scalar"


def background_wavenumber(background: ColeColeParams, omega) -> complex | np.ndarray:
    """Complex background wavenumber with the decaying branch (Im k <= 0).

    Broadcasts over ``omega`` (rad/s); a scalar gives a complex. A
    non-positive frequency is a DomainError that names it.
    """
    omega = positive_omega(omega)
    eps_b = complex_permittivity(*background.as_array(), omega)
    k = omega * np.sqrt(MU_0 * eps_b)
    k = np.where(k.imag > 0.0, -k, k)
    return complex(k) if k.ndim == 0 else k


def transmit_kernels(
    background: ColeColeParams,
    geometry: SceneGeometry,
    table: DistanceTable | None = None,
    out: np.ndarray | None = None,
) -> Iterator[np.ndarray]:
    """Two-way kernels one transmitter at a time: block n = 0, ..., N - 1, shape (M, Q).

    Entry (m, q) of block n is g(rx_m, x_q; omega_n) * g(x_q, tx_n; omega_n)
    for the Q points whose antenna distances ``table`` holds. Without a
    table the points are the cells and each block carries the cell volume:
    block n is then rows n M to (n + 1) M - 1 of the forward operator's
    kernels. With ``out``, shape (N, M, Q), block n is written into
    ``out[n]``; otherwise each block is a new array.

    The Green function (4 pi r included) is evaluated when the first block
    is asked for, once per distinct distance and distinct frequency, all
    wavenumbers in one call, and the tables of the receivers and of each
    transmitter are gathered from it; equal inputs give equal bits, so the
    kernels are those of an evaluation per pair.
    """
    volume = None
    if table is None:
        table, volume = geometry.cell_distances(), geometry.cell_volume
    r = table.distances
    frequencies, which = np.unique(geometry.frequencies, return_inverse=True)
    k = background_wavenumber(background, 2.0 * np.pi * frequencies)
    greens = -1j * k[:, None] * r
    np.exp(greens, out=greens)
    greens /= 4.0 * np.pi * r

    # The blocks are formed in a function so this frame keeps none of them
    # while the caller works on the next.
    def block(n, green):
        gathered = green[table.rx_index]
        values = np.multiply(gathered, green[table.tx_index[n]],
                             out=gathered if out is None else out[n])
        if volume is not None:
            values *= volume
        return values

    for n, row in enumerate(which):
        yield block(n, greens[row])


def born_kernel_tensor(background: ColeColeParams, geometry: SceneGeometry) -> np.ndarray:
    """Two-way channel kernels including the cell volume, shape (N, M, P).

    Entry (n, m, p) is g(rx_m, cell_p; omega_n) * g(cell_p, tx_n; omega_n)
    * cell volume: the Born integrand of channel (m, n) at cell p with the
    contrast factored out. Shared by forward assembly and the exact-contrast
    snapshot synthesizer so both use identical kernels and discretization.
    """
    # The output comes before the Green table, which then frees memory above
    # it, not a hole below: allocated after it, it raised the peak memory of
    # a closure run at P = 1728 by 0.9 MB.
    kernels = np.empty((geometry.n_tx, geometry.n_rx, geometry.n_cells), dtype=complex)
    for _ in transmit_kernels(background, geometry, out=kernels):
        pass
    return kernels


@dataclasses.dataclass(frozen=True, eq=False)
class ForwardMatrix:
    """The stacked Born observation operator, shape (M N, 5 P), in factored form.

    Row (m, n) -> n * M + m; column (q, p) -> q * P + p, i.e. channels are
    stacked transmit-major and columns parameter-block major. Entries carry
    units of m^3 per physical unit of the corresponding parameter channel.

    The background is homogeneous, so block q is the two-way kernel matrix
    with each row scaled by the sensitivity of its transmit frequency:
    A_q = D_q K with K = ``kernels`` (M N x P, rows ordered like A) and
    D_q = diag(psi_q(omega_n)) repeated over the M receivers, psi_q(omega_n)
    = ``sensitivities[q, n]``. The dense matrix is never kept: every
    computation, the discrepancy of two operators included, works on the
    factors, and ``build-forward`` forms the dense matrix only to write it.
    ``background`` and ``geometry_fingerprint`` record what it was built for.
    """

    kernels: np.ndarray
    sensitivities: np.ndarray
    n_tx: int
    n_rx: int
    n_cells: int
    background: ColeColeParams
    geometry_fingerprint: str

    def __post_init__(self):
        for name, expected in (
            ("kernels", (self.n_tx * self.n_rx, self.n_cells)),
            ("sensitivities", (N_PARAMS, self.n_tx)),
        ):
            value = getattr(self, name)
            if value.shape != expected:
                raise AssemblyError(f"forward {name} shape {value.shape} != {expected}")
            value.flags.writeable = False

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_tx * self.n_rx, N_PARAMS * self.n_cells)

    def row_sensitivities(self) -> np.ndarray:
        """psi_q(omega_n) of every row (m, n), shape (5, M N)."""
        return np.repeat(self.sensitivities, self.n_rx, axis=1)


@dataclasses.dataclass(frozen=True, eq=False)
class SteeringVector:
    """Unit-norm two-way channel response of a point target."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if not np.all(np.isfinite(values)):
            channel = int(np.argmin(np.isfinite(values.ravel())))
            raise AssemblyError(f"non-finite steering vector entry at channel {channel}")
        norm = np.linalg.norm(values)
        if abs(norm - 1.0) > 1e-12:
            raise AssemblyError(f"steering vector norm {float(norm)!r} deviates from 1")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


def assemble_forward(scenario: Scenario, geometry: SceneGeometry) -> ForwardMatrix:
    """Assemble the Born observation operator for one scenario.

    Entry at row (m, n), column (q, p) is the receive kernel times the
    contrast sensitivity psi_q(omega_n) times the transmit kernel times the
    cell volume. The background is homogeneous, so psi_q depends only on
    the channel frequency and the operator is kept as its two factors.
    """
    n_tx, n_rx, n_cells = geometry.n_tx, geometry.n_rx, geometry.n_cells
    kernels = born_kernel_tensor(scenario.background, geometry).reshape(n_tx * n_rx, n_cells)
    omegas = 2.0 * np.pi * geometry.frequencies
    psi = sensitivity_components(*scenario.background.as_array(), omegas)  # (5, N)

    check_kernels(kernels, n_rx)
    check_sensitivities(psi)

    return ForwardMatrix(
        kernels=kernels,
        sensitivities=psi,
        n_tx=n_tx,
        n_rx=n_rx,
        n_cells=n_cells,
        background=scenario.background,
        geometry_fingerprint=geometry.fingerprint(),
    )


def steering_vector(geometry: SceneGeometry, scenario: Scenario, target) -> SteeringVector:
    """Unit-norm steering vector of a point target below the surface."""
    target = np.asarray(target, dtype=float)
    if target.shape != (3,):
        raise ConfigError(f"target must be a 3D point, got shape {target.shape}")
    if target[2] <= 0.0:
        raise ConfigError(f"target depth must be positive, got z={float(target[2])!r}")
    table = distance_table(geometry, target[None, :])
    values = np.concatenate(
        [block.ravel() for block in transmit_kernels(scenario.background, geometry, table)])
    return SteeringVector(values=values / np.linalg.norm(values))


def forward_discrepancy(candidate: ForwardMatrix, reference: ForwardMatrix) -> float:
    """Relative Frobenius discrepancy ||candidate - reference|| / ||reference||.

    The second argument sets the normalization. For a medium change S -> S'
    the convention is forward_discrepancy(A_{S'}, A_S): the discrepancy of
    the destination operator measured against the starting one. Both
    operators must be assembled on one geometry.

    Computed from the factors: with A_1 = candidate, A_2 = reference,
    dK = K_1 - K_2 and dpsi = psi_1 - psi_2, row r of block q of A_1 - A_2
    is psi_1 dK_r + dpsi K_2,r, so

        ||A_1 - A_2||^2 = sum_r |psi_1|^2 ||dK_r||^2 + |dpsi|^2 ||K_2,r||^2
                          + 2 Re(psi_1 conj(dpsi) <dK_r, K_2,r>),

    each psi product summed over the 5 channels of row r. The row sums
    (:func:`kernel_row_sums`) may be taken over any split of the rows, so
    kernel-diff forms them one transmit block at a time. Equal operators
    give exactly 0.
    """
    if candidate.shape != reference.shape:
        raise AssemblyError(
            f"shape mismatch {candidate.shape} vs {reference.shape}"
        )
    if candidate.geometry_fingerprint != reference.geometry_fingerprint:
        raise ConfigError(
            f"forward operators assembled on geometries {candidate.geometry_fingerprint} "
            f"and {reference.geometry_fingerprint}"
        )
    row_sums = kernel_row_sums(candidate.kernels, reference.kernels)
    return relative_discrepancy(candidate.sensitivities, reference.sensitivities,
                                candidate.n_rx, row_sums)


def check_kernels(kernels: np.ndarray, n_rx: int, first_row: int = 0) -> None:
    """Raise an AssemblyError naming the first non-finite entry of forward kernel rows.

    ``kernels`` holds rows ``first_row`` onward of an operator's kernels,
    row (m, n) -> n * n_rx + m.
    """
    finite = np.isfinite(kernels)
    if not finite.all():
        row, p = divmod(int(np.argmin(finite)), kernels.shape[1])
        n, m = divmod(first_row + row, n_rx)
        raise AssemblyError(f"non-finite forward kernel at (m={m}, n={n}, p={p})")


def check_sensitivities(psi: np.ndarray) -> None:
    """Raise an AssemblyError naming the first non-finite forward sensitivity psi[q, n]."""
    finite = np.isfinite(psi)
    if not finite.all():
        q, n = divmod(int(np.argmin(finite)), psi.shape[1])
        raise AssemblyError(f"non-finite forward sensitivity at (q={q}, n={n})")


def kernel_row_sums(candidate: np.ndarray, reference: np.ndarray) -> tuple[np.ndarray, ...]:
    """||dK_r||^2, ||K_r||^2 and <dK_r, K_r> of every row r, with dK = candidate - reference
    and K = reference, two (rows, P) blocks of kernels. dK is the one temporary.
    """
    d_kernels = candidate - reference
    # Squared row norms on the float views: each (re, im) pair summed together.
    d_norms = _row_dots(d_kernels.view(float), d_kernels.view(float))
    norms = _row_dots(reference.view(float), reference.view(float))
    # <dK_r, K_r> = sum_p dK_rp conj(K_rp)
    inner = (_row_dots(d_kernels.view(float), reference.view(float))
             + 1j * (_row_dots(d_kernels.imag, reference.real)
                     - _row_dots(d_kernels.real, reference.imag)))
    return d_norms, norms, inner


def relative_discrepancy(candidate_psi: np.ndarray, reference_psi: np.ndarray, n_rx: int,
                         row_sums: tuple[np.ndarray, ...]) -> float:
    """||A_1 - A_2|| / ||A_2|| from the sensitivities (5, N) of A_1 and A_2 and the
    :func:`kernel_row_sums` of all their kernel rows, see :func:`forward_discrepancy`.
    """
    d_norms, norms, inner = row_sums
    psi = np.repeat(candidate_psi, n_rx, axis=1)
    psi_reference = np.repeat(reference_psi, n_rx, axis=1)
    d_psi = psi - psi_reference
    total = (np.sum(np.abs(psi) ** 2, axis=0) @ d_norms
             + np.sum(np.abs(d_psi) ** 2, axis=0) @ norms
             + 2.0 * np.real(np.sum(psi * d_psi.conj(), axis=0) @ inner))
    scale = np.sum(np.abs(psi_reference) ** 2, axis=0) @ norms
    return math.sqrt(max(float(total), 0.0)) / math.sqrt(float(scale))


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_p a[r, p] b[r, p] for every row r, without a temporary array."""
    return np.einsum("ij,ij->i", a, b)
