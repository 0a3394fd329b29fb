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


def _two_way_kernels(
    background: ColeColeParams, geometry: SceneGeometry, table: DistanceTable
) -> np.ndarray:
    """Two-way kernels g(rx_m, x_q; omega_n) * g(x_q, tx_n; omega_n), shape (N, M, Q).

    ``table`` holds the antenna distances of the Q points. The Green
    function (4 pi r included) is evaluated once per distinct distance and
    distinct frequency, all wavenumbers in one call, and the tables of the
    receivers and of each transmitter are gathered from it; equal inputs
    give equal bits, so the kernels are those of an evaluation per pair.
    Each frequency's product is written into the output.
    """
    # The output comes before the temporaries, which then free memory above
    # it, not a hole below: allocated after them, it raised the peak memory
    # of a closure run at P = 1728 by 0.9 MB.
    kernels = np.empty((geometry.n_tx,) + table.rx_index.shape, dtype=complex)
    r = table.distances
    frequencies, which = np.unique(geometry.frequencies, return_inverse=True)
    k = background_wavenumber(background, 2.0 * np.pi * frequencies)
    greens = np.exp(-1j * k[:, None] * r)
    greens /= 4.0 * np.pi * r
    for n, row in enumerate(which):
        green = greens[row]
        np.multiply(green[table.rx_index], green[table.tx_index[n]], out=kernels[n])
    return kernels


def born_kernel_tensor(background: ColeColeParams, geometry: SceneGeometry) -> np.ndarray:
    """Two-way channel kernels including the cell volume, shape (N, M, P).

    Entry (n, m, p) is g(rx_m, cell_p; omega_n) * g(cell_p, tx_n; omega_n)
    * cell volume: the Born integrand of channel (m, n) at cell p with the
    contrast factored out. Shared by forward assembly and the exact-contrast
    snapshot synthesizer so both use identical kernels and discretization.
    """
    kernels = _two_way_kernels(background, geometry, geometry.cell_distances())
    kernels *= geometry.cell_volume
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

    if not np.all(np.isfinite(kernels)):
        row, p = divmod(int(np.flatnonzero(~np.isfinite(kernels.ravel()))[0]), n_cells)
        n, m = divmod(row, n_rx)
        raise AssemblyError(f"non-finite forward kernel at (m={m}, n={n}, p={p})")
    if not np.all(np.isfinite(psi)):
        q, n = divmod(int(np.flatnonzero(~np.isfinite(psi.ravel()))[0]), n_tx)
        raise AssemblyError(f"non-finite forward sensitivity at (q={q}, n={n})")

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
    values = _two_way_kernels(scenario.background, geometry, table).ravel()
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

    each psi product summed over the 5 channels of row r. dK is the one
    (M N, P) temporary. Equal operators give exactly 0.
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
    kernels = reference.kernels
    d_kernels = candidate.kernels - kernels
    psi = candidate.row_sensitivities()
    psi_reference = reference.row_sensitivities()
    d_psi = psi - psi_reference
    # Squared row norms on the float views: each (re, im) pair summed together.
    d_norms = _row_dots(d_kernels.view(float), d_kernels.view(float))
    norms = _row_dots(kernels.view(float), kernels.view(float))
    # <dK_r, K_2,r> = sum_p dK_rp conj(K_2,rp)
    inner = (_row_dots(d_kernels.view(float), kernels.view(float))
             + 1j * (_row_dots(d_kernels.imag, kernels.real)
                     - _row_dots(d_kernels.real, kernels.imag)))
    total = (np.sum(np.abs(psi) ** 2, axis=0) @ d_norms
             + np.sum(np.abs(d_psi) ** 2, axis=0) @ norms
             + 2.0 * np.real(np.sum(psi * d_psi.conj(), axis=0) @ inner))
    scale = np.sum(np.abs(psi_reference) ** 2, axis=0) @ norms
    return math.sqrt(max(float(total), 0.0)) / math.sqrt(float(scale))


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_p a[r, p] b[r, p] for every row r, without a temporary array."""
    return np.einsum("ij,ij->i", a, b)
