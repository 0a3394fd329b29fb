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


def transmit_kernels(k: np.ndarray, table: DistanceTable, n: int,
                     volume: float | None = None) -> np.ndarray:
    """Two-way kernels of transmitter n, shape (M, Q).

    Entry (m, q) is g(rx_m, x_q; omega_n) * g(x_q, tx_n; omega_n) for the Q
    points whose antenna distances ``table`` holds, times ``volume`` if
    given; ``k`` holds the background wavenumbers of the N transmit
    frequencies. With the cell table and the cell volume this is rows n M
    to (n + 1) M - 1 of the forward operator's kernels.

    The Green function (4 pi r included) is evaluated once per distinct
    distance and gathered for the receivers and for transmitter n; equal
    inputs give equal bits, so the kernels are those of an evaluation per pair.
    A kernel that is not finite is an AssemblyError naming its (m, n, p).
    """
    r = table.distances
    with np.errstate(over="ignore", invalid="ignore"):
        green = -1j * k[n] * r
        np.exp(green, out=green)
        green /= 4.0 * np.pi * r
        kernels = green[table.rx_index]
        kernels *= green[table.tx_index[n]]
        if volume is not None:
            kernels *= volume
    if not np.isfinite(kernels).all():
        m, p = np.unravel_index(int(np.argmin(np.isfinite(kernels))), kernels.shape)
        raise AssemblyError(f"non-finite forward kernel at (m={m}, n={n}, p={p})")
    return kernels


def born_kernel_tensor(background: ColeColeParams, geometry: SceneGeometry) -> np.ndarray:
    """Two-way channel kernels including the cell volume, shape (N, M, P).

    Entry (n, m, p) is g(rx_m, cell_p; omega_n) * g(cell_p, tx_n; omega_n)
    * cell volume: the Born integrand of channel (m, n) at cell p with the
    contrast factored out.
    """
    table = geometry.cell_distances()
    k = background_wavenumber(background, 2.0 * np.pi * geometry.frequencies)
    kernels = np.empty((geometry.n_tx, geometry.n_rx, geometry.n_cells), dtype=complex)
    for n in range(geometry.n_tx):
        kernels[n] = transmit_kernels(k, table, n, geometry.cell_volume)
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
    Its four fields are the two factors, ``kernels`` and ``sensitivities``,
    and the ``scenario`` and ``geometry`` it was assembled for: the Monte
    Carlo layer reads the background of the one and the frequencies of the
    other.
    """

    kernels: np.ndarray
    sensitivities: np.ndarray
    scenario: Scenario
    geometry: SceneGeometry

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
    def n_tx(self) -> int:
        return self.geometry.n_tx

    @property
    def n_rx(self) -> int:
        return self.geometry.n_rx

    @property
    def n_cells(self) -> int:
        return self.geometry.n_cells

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
    the channel frequency and the operator is kept as its two factors,
    psi formed first: a medium whose psi and kernels both fail reports psi.
    """
    omegas = 2.0 * np.pi * geometry.frequencies
    psi = sensitivity_components(*scenario.background.as_array(), omegas)  # (5, N)
    kernels = born_kernel_tensor(scenario.background, geometry).reshape(-1, geometry.n_cells)
    return ForwardMatrix(kernels=kernels, sensitivities=psi, scenario=scenario, geometry=geometry)


def steering_vector(geometry: SceneGeometry, scenario: Scenario, target) -> SteeringVector:
    """Unit-norm steering vector of a point target below the surface."""
    target = np.asarray(target, dtype=float)
    if target.shape != (3,):
        raise ConfigError(f"target must be a 3D point, got shape {target.shape}")
    if not np.all(np.isfinite(target)):
        raise ConfigError(f"target must be finite, got {target.tolist()!r}")
    if target[2] <= 0.0:
        raise ConfigError(f"target depth must be positive, got z={float(target[2])!r}")
    table = distance_table(geometry, target[None, :])
    k = background_wavenumber(scenario.background, 2.0 * np.pi * geometry.frequencies)
    values = np.concatenate([transmit_kernels(k, table, n).ravel()
                             for n in range(geometry.n_tx)])
    return SteeringVector(values=values / frobenius_norm(values))


def forward_discrepancy(candidate: ForwardMatrix, reference: ForwardMatrix) -> float:
    """Relative Frobenius discrepancy ||candidate - reference|| / ||reference||.

    The second argument sets the normalization. For a medium change S -> S'
    the convention is forward_discrepancy(A_{S'}, A_S): the discrepancy of
    the destination operator measured against the starting one. Both
    operators must be assembled on one geometry.

    Computed from the factors, one transmit block at a time
    (:func:`block_discrepancy`), whose norms are summed with math.hypot in
    transmit order. Equal operators give exactly 0, a candidate of zero
    kernels exactly 1; a zero or overflowing norm is refused (:func:`discrepancy_ratio`).
    """
    if candidate.geometry.fingerprint() != reference.geometry.fingerprint():
        raise ConfigError(
            f"forward operators assembled on geometries {candidate.geometry.fingerprint()} "
            f"and {reference.geometry.fingerprint()}"
        )
    n_rx = candidate.n_rx
    total = (0.0, 0.0)
    for n in range(candidate.n_tx):
        rows = slice(n * n_rx, (n + 1) * n_rx)
        total = tuple(map(math.hypot, total, block_discrepancy(
            candidate.sensitivities[:, n], candidate.kernels[rows],
            reference.sensitivities[:, n], reference.kernels[rows])))
    return discrepancy_ratio(*total)


@np.errstate(over="ignore", invalid="ignore")
def block_discrepancy(candidate_psi: np.ndarray, candidate_kernels: np.ndarray,
                      reference_psi: np.ndarray, reference_kernels: np.ndarray
                      ) -> tuple[float, float]:
    """(||A_c - A_r||_F, ||A_r||_F) over one transmit block of two operators.

    Every row of transmit block n carries one sensitivity 5-vector psi (the
    ``sensitivities[:, n]`` of the operator), and the block's kernels K are
    (M, P). With dpsi = psi_c - psi_r = c psi_r + psi_perp, c = <psi_r, dpsi>
    / |psi_r|^2 (0 if psi_r = 0) and psi_perp orthogonal to psi_r, the block
    difference splits into two orthogonal parts:

        ||A_c - A_r|| = hypot(|psi_perp| ||K_c||, |psi_r| ||(K_c - K_r) + c K_c||),
        ||A_r|| = |psi_r| ||K_r||.

    Both parts are nonnegative, so nothing cancels: equal blocks give
    exactly 0, and zero candidate kernels give exactly ||A_r||. The
    difference term has two forms. Where |1 + c| >= 1/16 it is
    (K_c - K_r) + c K_c: K_c - K_r is exact for nearly equal kernels, so
    this form is the accurate one for close operators, and kernel-diff's
    recorded values come from it. Where |1 + c| < 1/16 that sum would
    cancel and lose more than 4 bits, so it is formed as a K_c - K_r,
    a = <psi_r, psi_c> / |psi_r|^2 = 1 + c, with psi_perp = psi_c - a psi_r.
    Every norm is a :func:`frobenius_norm`, so kernels whose squares
    underflow keep their norm; one beyond the float range comes out
    infinite or NaN, for :func:`discrepancy_ratio` to refuse.
    """
    psi_sq = np.vdot(reference_psi, reference_psi).real
    a = np.vdot(reference_psi, candidate_psi) / psi_sq if psi_sq > 0.0 else 1.0
    if abs(a) >= 1.0 / 16.0:
        d_psi = candidate_psi - reference_psi
        c = np.vdot(reference_psi, d_psi) / psi_sq if psi_sq > 0.0 else 0.0
        perp = d_psi - c * reference_psi
        d_kernels = candidate_kernels - reference_kernels
        d_kernels += c * candidate_kernels
    else:
        perp = candidate_psi - a * reference_psi
        d_kernels = a * candidate_kernels
        d_kernels -= reference_kernels
    psi_norm = frobenius_norm(reference_psi)
    return (math.hypot(frobenius_norm(perp) * frobenius_norm(candidate_kernels),
                       psi_norm * frobenius_norm(d_kernels)),
            float(psi_norm * frobenius_norm(reference_kernels)))


def discrepancy_ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator of Frobenius norms summed over transmit blocks.

    A norm or a ratio beyond the float range, or a reference of zero norm, is an
    AssemblyError; one beyond the float range states both norms.
    """
    if not (math.isfinite(numerator) and math.isfinite(denominator)):
        raise AssemblyError(
            f"forward operator norm exceeds the float range (difference norm {numerator!r}, "
            f"reference norm {denominator!r}): its relative discrepancy is undefined")
    if not denominator > 0.0:
        raise AssemblyError("reference forward operator has zero norm: "
                            "its relative discrepancy is undefined")
    ratio = numerator / denominator
    if ratio == math.inf:
        raise AssemblyError("relative discrepancy exceeds the float range")
    return ratio


def frobenius_norm(x, axis=None):
    """``np.linalg.norm(x, axis=axis)`` whose squares neither underflow nor overflow.

    x is scaled by 2^-e before the norm is taken and the norm by 2^e after,
    where 2^e bounds the largest real or imaginary part of x (along
    ``axis`` if given; np.frexp, e at least -1021). A power of two commutes
    with every rounding wherever nothing is subnormal, so there the result
    is ``np.linalg.norm``'s, bit for bit. A zero x has norm exactly 0.
    """
    x = np.asarray(x)
    largest = np.maximum(np.abs(x.real), np.abs(x.imag)).max(axis=axis, keepdims=True,
                                                            initial=0.0)
    exponent = np.maximum(np.frexp(largest)[1], -1021)
    norm = np.linalg.norm(x * np.ldexp(1.0, -exponent), axis=axis)
    return np.ldexp(norm, exponent.reshape(np.shape(norm)))
