"""Cole-Cole constitutive layer.

Evaluates the complex permittivity of a dispersive conducting medium

    eps_c(omega) = eps0 * [eps_inf + delta_eps / (1 + (j omega tau)^(1-alpha))
                           - j sigma / (omega eps0)]

under the e^{j omega t} convention, together with its five closed-form
parameter derivatives, the dimensionless contrast sensitivities psi, and
the exact electromagnetic contrast of stacked perturbed states. The
first-order contrast of a perturbation delta is psi @ delta. The exact
contrast differences only the relaxation term, the one nonlinear term, and
divides by the same background eps_c that psi and the forward operator use.

All evaluation cores broadcast over numpy arrays; ``eval_permittivity`` and
``eval_sensitivities`` evaluate one state at one frequency as plain values.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .constants import EPSILON_0
from .errors import DomainError, SingularBackgroundError, TauFloorError

PARAMETER_NAMES = ("eps_inf", "delta_eps", "tau", "alpha", "sigma")

#: Number of Cole-Cole parameter channels.
N_PARAMS = len(PARAMETER_NAMES)

#: Finite-difference step of each channel, relative to its parameter value.
FD_REL_STEP = 1e-5

#: Absolute finite-difference steps used when a parameter is exactly zero
#: (matched to the natural scale of each channel).
FD_STEP_FLOORS = np.array([1e-5, 1e-5, 1e-17, 1e-5, 1e-9])

#: Relative-error denominators are floored here so exactly-zero channels
#: report zero error instead of 0/0.
DENOMINATOR_FLOOR = 1e-30

#: Exact contrast evaluation refuses perturbed relaxation times at or below
#: this fraction of the background value instead of silently clamping.
TAU_FLOOR_FRACTION = 1e-3


@dataclasses.dataclass(frozen=True)
class ColeColeParams:
    """One Cole-Cole parameter state (eps_inf, delta_eps, tau, alpha, sigma).

    ``tau`` is in seconds, ``sigma`` in S/m, the rest dimensionless. The
    constructor only enforces evaluability (finite values, tau > 0);
    background states additionally satisfy :meth:`validate_background`.
    Perturbed states may carry small negative ``delta_eps`` or ``alpha``
    excursions and remain evaluable.
    """

    eps_inf: float
    delta_eps: float
    tau: float
    alpha: float
    sigma: float

    def __post_init__(self):
        values = self.as_array()
        if not np.all(np.isfinite(values)):
            bad = PARAMETER_NAMES[int(np.flatnonzero(~np.isfinite(values))[0])]
            raise DomainError(f"non-finite Cole-Cole parameter {bad!r}")
        if self.tau <= 0.0:
            raise DomainError(f"relaxation time tau must be positive, got {self.tau!r}")

    def validate_background(self) -> "ColeColeParams":
        """Enforce the stricter invariants of a background (unperturbed) state."""
        if self.eps_inf <= 0.0:
            raise DomainError(f"background eps_inf must be positive, got {self.eps_inf!r}")
        if self.delta_eps < 0.0:
            raise DomainError(f"background delta_eps must be nonnegative, got {self.delta_eps!r}")
        if not 0.0 <= self.alpha < 1.0:
            raise DomainError(f"background alpha must lie in [0, 1), got {self.alpha!r}")
        if self.sigma < 0.0:
            raise DomainError(f"background sigma must be nonnegative, got {self.sigma!r}")
        return self

    def as_array(self) -> np.ndarray:
        return np.array([self.eps_inf, self.delta_eps, self.tau, self.alpha, self.sigma])

    @classmethod
    def from_array(cls, values) -> "ColeColeParams":
        values = np.asarray(values, dtype=float)
        if values.shape != (5,):
            raise DomainError(f"expected 5 Cole-Cole parameters, got shape {values.shape}")
        return cls(*values.tolist())


def complex_permittivity(eps_inf, delta_eps, tau, alpha, sigma, omega) -> np.ndarray:
    """Broadcasting core of the Cole-Cole law. Returns eps_c in F/m.

    The fractional power uses the principal branch; with omega*tau > 0 the
    base j*omega*tau has argument pi/2, so the branch is smooth over the
    whole admissible alpha range.
    """
    return _cole_cole(eps_inf, delta_eps, tau, alpha, sigma, omega)[1]


def _cole_cole(eps_inf, delta_eps, tau, alpha, sigma, omega) -> tuple[np.ndarray, np.ndarray]:
    """u = (j omega tau)^(1-alpha) and eps_c of :func:`complex_permittivity`."""
    omega = np.asarray(omega, dtype=float)
    u = (1j * omega * np.asarray(tau)) ** (1.0 - np.asarray(alpha))
    relative = eps_inf + delta_eps / (1.0 + u) - 1j * np.asarray(sigma) / (omega * EPSILON_0)
    return u, EPSILON_0 * relative


def positive_omega(omega) -> np.ndarray:
    """``omega`` (rad/s) as a float array, every entry positive.

    A non-positive or NaN entry is a DomainError that names it, and its
    index when ``omega`` is an array.
    """
    omega = np.asarray(omega, dtype=float)
    bad = ~(omega > 0.0)
    if np.any(bad):
        if omega.ndim == 0:
            raise DomainError(f"angular frequency must be positive, got {float(omega)!r}")
        at = np.unravel_index(int(np.argmax(bad)), omega.shape)
        where = ", ".join(str(int(i)) for i in at)
        raise DomainError(
            f"angular frequency must be positive, got omega[{where}] = {float(omega[at])!r}")
    return omega


def eval_permittivity(params: ColeColeParams, omega: float) -> complex:
    """Cole-Cole permittivity eps_c (F/m) of one state at omega (rad/s)."""
    value = complex(complex_permittivity(*params.as_array(), positive_omega(omega)))
    if not np.isfinite(value):
        raise _overflow_error(params, float(omega))
    return value


def _overflow_error(params: ColeColeParams, omega: float) -> DomainError:
    """The error of a permittivity that is not finite, naming the parameter that made it so."""
    culprit = _nonfinite_culprit(params, omega)
    return DomainError(f"permittivity overflow at omega={omega!r}; offending parameter {culprit!r}")


def _nonfinite_culprit(params: ColeColeParams, omega: float) -> str:
    if not np.isfinite(omega * params.tau):
        return "tau"
    u, _ = _cole_cole(*params.as_array(), omega)
    if not np.isfinite(u):
        return "alpha"
    if not np.isfinite(params.sigma / (omega * EPSILON_0)):
        return "sigma"
    return "delta_eps"


def sensitivity_components(eps_inf, delta_eps, tau, alpha, sigma, omega) -> np.ndarray:
    """Broadcasting core for the five contrast sensitivities.

    Returns an array with a leading axis of length 5 ordered as
    ``PARAMETER_NAMES``. The derivatives of the Cole-Cole law are, with
    u = (j omega tau)^(1-alpha) and Log the principal branch:

        dF/deps_inf   = eps0
        dF/ddelta_eps = eps0 / (1 + u)
        dF/dtau       = -eps0 delta_eps (1-alpha) u / (tau (1+u)^2)
        dF/dalpha     =  eps0 delta_eps u Log(j omega tau) / (1+u)^2
        dF/dsigma     = -j / omega

    and psi_q = (1/eps_b) dF/dmu_q.
    """
    omega = np.asarray(omega, dtype=float)
    tau = np.asarray(tau)
    u, eps_b = _cole_cole(eps_inf, delta_eps, tau, alpha, sigma, omega)
    if np.any(eps_b == 0.0):
        raise SingularBackgroundError("background permittivity is zero")
    log_base = np.log(1j * omega * tau)
    one_plus_u_sq = (1.0 + u) ** 2
    shape = np.broadcast(u, omega).shape
    components = np.empty((5,) + shape, dtype=complex)
    components[0] = EPSILON_0
    components[1] = EPSILON_0 / (1.0 + u)
    components[2] = -EPSILON_0 * delta_eps * (1.0 - alpha) * u / (tau * one_plus_u_sq)
    components[3] = EPSILON_0 * delta_eps * u * log_base / one_plus_u_sq
    components[4] = -1j / omega
    return components / eps_b


def eval_sensitivities(params: ColeColeParams, omega: float) -> np.ndarray:
    """Contrast sensitivities psi_q = (1/eps_b) dF/dmu_q of one background state.

    Returns a (5,) complex array ordered as ``PARAMETER_NAMES``; entry q is
    the dimensionless contrast of a unit physical perturbation of parameter q.
    """
    return sensitivity_components(*params.as_array(), positive_omega(omega)).reshape(5)


def finite_difference_check(params: ColeColeParams, omega) -> np.ndarray:
    """Relative error of each analytic sensitivity against central differences.

    Broadcasts over ``omega`` (rad/s): the result has shape (5,) plus the
    shape of ``omega``, channel leading. The step for channel q is
    ``FD_REL_STEP * |mu_q|``, falling back to ``FD_STEP_FLOORS[q]`` when the
    parameter is exactly zero. The difference quotient divides by the
    actually realized step (x_plus - x_minus) so that affine channels are
    exact up to arithmetic rounding. Channels where both the analytic and
    the differenced derivative vanish report zero. The background and its
    10 stepped states go through one evaluation of the Cole-Cole law at
    every frequency.
    """
    omega = positive_omega(omega)
    base = params.as_array()
    steps = np.diag(np.where(base != 0.0, FD_REL_STEP * np.abs(base), FD_STEP_FLOORS))
    plus, minus = base + steps, base - steps  # row q: channel q stepped
    states = np.vstack((base, plus, minus)).T.reshape((5, 11) + (1,) * omega.ndim)
    values = complex_permittivity(*states, omega)  # (11,) + omega.shape
    if not np.all(np.isfinite(values)):
        # A stepped parameter that is itself not finite is named by from_array.
        state, *at = np.unravel_index(int(np.argmin(np.isfinite(values))), values.shape)
        raise _overflow_error(ColeColeParams.from_array(states[:, state].ravel()),
                              float(omega[tuple(at)]))
    eps_b, f_plus, f_minus = values[0], values[1:6], values[6:]
    psi = sensitivity_components(*base, omega)
    realized = (np.diagonal(plus) - np.diagonal(minus)).reshape((5,) + (1,) * omega.ndim)
    psi_fd = (f_plus - f_minus) / (realized * eps_b)
    return np.abs(psi - psi_fd) / np.maximum(np.abs(psi_fd), DENOMINATOR_FLOOR)


def _relaxation(delta_eps, tau, alpha, omega) -> tuple[np.ndarray, np.ndarray]:
    """Real part and minus the imaginary part of delta_eps / (1 + u), with

        u = (j omega tau)^(1-alpha) = exp((1-alpha)(ln omega + ln tau)) e^{j pi (1-alpha)/2},

    the principal branch for omega tau > 0. The three parameters share one
    shape (or are scalars) that broadcasts against ``omega``; both results
    have at least one dimension. The logarithm of tau and the cosine and
    sine of the phase are taken at the parameters' own shape, so a state
    shared by many frequencies pays for them once; 1 / (1 + u) is formed in
    real arithmetic.
    """
    omega = np.atleast_1d(omega)  # the in-place updates below need arrays
    order = 1.0 - np.asarray(alpha)
    phase = 0.5 * np.pi * order
    magnitude = np.log(omega) + np.log(tau)
    magnitude *= order
    np.exp(magnitude, out=magnitude)
    re = magnitude * np.cos(phase)
    re += 1.0
    im = magnitude
    im *= np.sin(phase)
    scale = re * re
    scale += im * im
    np.divide(delta_eps, scale, out=scale)
    re *= scale
    im *= scale
    return re, im


@functools.lru_cache(maxsize=8)
def _background_terms(background: ColeColeParams, omega_bytes: bytes, shape: tuple[int, ...]):
    """Read-only terms of the background at the float frequencies ``omega_bytes`` of ``shape``.

    Returns the real part and minus the imaginary part of the background's
    relaxation term, 1 / (omega eps0) and eps0 / eps_b. The frequencies come
    as bytes because arrays do not hash. Every chunk of a scenario shares
    one background and one frequency set, so the terms are formed once per
    pair, and read-only because every caller shares them.
    """
    omega = np.frombuffer(omega_bytes).reshape(shape)
    base = background.as_array()
    terms = tuple(np.asarray(term) for term in (
        *_relaxation(base[1], base[2], base[3], omega),
        1.0 / (omega * EPSILON_0),
        EPSILON_0 / _cole_cole(*base, omega)[1],
    ))
    for term in terms:
        term.flags.writeable = False
    return terms


def exact_contrast_field(background: ColeColeParams, delta_mu: np.ndarray, omega) -> np.ndarray:
    """Vectorized exact contrast for stacked perturbations.

    ``delta_mu`` has shape (5, ...) with the parameter channel leading;
    ``omega`` broadcasts against the trailing shape. Raises TauFloorError
    with the offending index into ``delta_mu[2]`` if any perturbed tau hits
    the hard floor.

    Only the relaxation term is nonlinear, so the contrast is formed as

        (eps0 / eps_b) [d_eps_inf + R(mu_b + delta) - R(mu_b) - j d_sigma / (omega eps0)],

    with R = delta_eps / (1 + (j omega tau)^(1-alpha)) from
    :func:`_relaxation` for both states, in real arithmetic, and eps_b the
    value of the :func:`complex_permittivity` core, so eps0 / eps_b is the
    eps_inf sensitivity bit for bit. A zero perturbation gives exactly zero
    contrast. The background terms are formed once per (background,
    frequencies) pair. Perturbations shaped (5, 1, L, P) against frequencies
    shaped (N, 1, 1) give an (N, L, P) contrast: the per-state logarithm and
    phase are evaluated once per (sample, cell), not once per frequency, and
    every full-size operation broadcasts only along the outermost axis.
    """
    delta_mu = np.asarray(delta_mu, dtype=float)
    if delta_mu.shape[:1] != (len(PARAMETER_NAMES),):
        raise DomainError(
            f"expected 5 stacked Cole-Cole perturbations, got shape {delta_mu.shape}"
        )
    base = background.as_array()
    perturbed_tau = base[2] + delta_mu[2]
    floor = TAU_FLOOR_FRACTION * base[2]
    if np.any(perturbed_tau <= floor):
        index = tuple(int(i) for i in np.unravel_index(
            int(np.argmax(perturbed_tau <= floor)), perturbed_tau.shape))
        raise TauFloorError(index, float(perturbed_tau[index]), float(floor))
    omega = np.asarray(omega, dtype=float)
    re_b, im_b, loss_per_sigma, scale = _background_terms(background, omega.tobytes(), omega.shape)
    re, im = _relaxation(base[1] + delta_mu[1], perturbed_tau, base[3] + delta_mu[3], omega)
    contrast = np.empty(re.shape, dtype=complex)
    re -= re_b
    np.add(re, delta_mu[0], out=contrast.real)
    # The imaginary part -(im - im_b + s), s = d_sigma / (omega eps0), as
    # (im_b - im) - s, with s written into re's buffer: no chunk is allocated.
    np.subtract(im_b, im, out=im)
    np.multiply(delta_mu[4], loss_per_sigma, out=re)
    np.subtract(im, re, out=contrast.imag)
    contrast *= scale
    return contrast
