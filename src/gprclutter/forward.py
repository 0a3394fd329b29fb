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
import functools

import numpy as np

from .constants import MU_0
from .constitutive import (
    N_PARAMS,
    ColeColeParams,
    complex_permittivity,
    sensitivity_components,
)
from .errors import AssemblyError, ConfigError, NearSingularityError
from .scene import Scenario, SceneGeometry

#: Kernel evaluations closer than this to the source are refused.
MIN_SEPARATION = 1e-6

#: Identifier recorded in persisted metadata.
KERNEL_NAME = "homogeneous-dispersive-scalar"


def background_wavenumber(background: ColeColeParams, omega: float) -> complex:
    """Complex background wavenumber with the decaying branch (Im k <= 0)."""
    eps_b = complex_permittivity(*background.as_array(), omega)
    k = omega * np.sqrt(MU_0 * eps_b)
    if k.imag > 0.0:
        k = -k
    return complex(k)


def _two_way_kernels(
    background: ColeColeParams, geometry: SceneGeometry, points: np.ndarray
) -> np.ndarray:
    """Two-way kernels g(rx_m, x_q; omega_n) * g(x_q, tx_n; omega_n), shape (N, M, Q).

    The receiver-point and transmitter-point distances are taken once for
    the point set (Q, 3); the Green function is evaluated once per frequency.
    """
    distances = []
    for antennas in (geometry.rx_positions, geometry.tx_positions):
        diff = antennas[:, None, :] - points[None, :, :]
        r = np.sqrt(np.sum(diff * diff, axis=-1))
        if np.any(r < MIN_SEPARATION):
            ia, ib = np.unravel_index(int(np.argmin(r)), r.shape)
            raise NearSingularityError(
                f"separation {float(r[ia, ib])!r} m between antenna {ia} and point {ib} "
                f"below the {MIN_SEPARATION} m kernel minimum"
            )
        distances.append(r)
    r_rx, r_tx = distances
    kernels = np.empty((geometry.n_tx, geometry.n_rx, len(points)), dtype=complex)
    for n in range(geometry.n_tx):
        k = background_wavenumber(background, 2.0 * np.pi * geometry.frequencies[n])
        g_rx = np.exp(-1j * k * r_rx) / (4.0 * np.pi * r_rx)
        g_tx = np.exp(-1j * k * r_tx[n]) / (4.0 * np.pi * r_tx[n])
        kernels[n] = g_rx * g_tx
    return kernels


def born_kernel_tensor(background: ColeColeParams, geometry: SceneGeometry) -> np.ndarray:
    """Two-way channel kernels including the cell volume, shape (N, M, P).

    Entry (n, m, p) is g(rx_m, cell_p; omega_n) * g(cell_p, tx_n; omega_n)
    * cell volume: the Born integrand of channel (m, n) at cell p with the
    contrast factored out. Shared by forward assembly and the exact-contrast
    snapshot synthesizer so both use identical kernels and discretization.
    """
    return _two_way_kernels(background, geometry, geometry.cell_centers) * geometry.cell_volume


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
    = ``sensitivities[q, n]``. The dense ``entries`` are assembled from the
    factors on first access and cached; only ``build-forward`` and
    ``kernel-diff`` need them, every other computation uses the factors.
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

    @functools.cached_property
    def entries(self) -> np.ndarray:
        """The dense (M N, 5 P) matrix, entry psi_q(omega_n) * K[(m, n), p]."""
        psi = self.row_sensitivities().T  # (M N, 5)
        entries = (psi[:, :, None] * self.kernels[:, None, :]).reshape(self.shape)
        entries.flags.writeable = False
        return entries

    def row_sensitivities(self) -> np.ndarray:
        """psi_q(omega_n) of every row (m, n), shape (5, M N)."""
        return np.repeat(self.sensitivities, self.n_rx, axis=1)


@dataclasses.dataclass(frozen=True, eq=False)
class SteeringVector:
    """Unit-norm two-way channel response of a point target."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
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
    values = _two_way_kernels(scenario.background, geometry, target[None, :]).ravel()
    return SteeringVector(values=values / np.linalg.norm(values))


def forward_discrepancy(candidate: ForwardMatrix, reference: ForwardMatrix) -> float:
    """Relative Frobenius discrepancy ||candidate - reference|| / ||reference||.

    The second argument sets the normalization. For a medium change S -> S'
    the convention is forward_discrepancy(A_{S'}, A_S): the discrepancy of
    the destination operator measured against the starting one.
    """
    if candidate.shape != reference.shape:
        raise AssemblyError(
            f"shape mismatch {candidate.shape} vs {reference.shape}"
        )
    return float(
        np.linalg.norm(candidate.entries - reference.entries)
        / np.linalg.norm(reference.entries)
    )
