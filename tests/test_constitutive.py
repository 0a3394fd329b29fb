"""Constitutive layer: permittivity, sensitivities, contrast linearization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gprclutter import EPSILON_0, ColeColeParams, get_scenario, scenario_registry
from gprclutter.constitutive import (
    FD_STEP_FLOORS,
    _background_terms,
    _relaxation,
    complex_permittivity,
    eval_permittivity,
    eval_sensitivities,
    exact_contrast_field,
    finite_difference_check,
    sensitivity_components,
)
from gprclutter.errors import DomainError
from oracles import exact_contrast, finite_difference_errors

OMEGA_100MHZ = 2.0 * math.pi * 100e6
FDA_FREQUENCIES = 100e6 + 20e6 * np.arange(8)


def test_s1_permittivity_matches_independent_loss_term():
    # Oracle: the conduction loss sigma / (omega eps0) computed separately.
    s1 = get_scenario("S1").background
    loss = s1.sigma / (OMEGA_100MHZ * EPSILON_0)
    assert abs(loss - 1.7975e-3) < 1e-7
    relative = eval_permittivity(s1, OMEGA_100MHZ) / EPSILON_0
    assert relative.real == pytest.approx(3.0285, abs=0.0)
    assert relative.imag == pytest.approx(-loss, rel=1e-14)


def test_dispersionless_lossless_state_is_purely_real():
    params = ColeColeParams(4.2, 0.0, 1e-12, 0.0, 0.0)
    value = eval_permittivity(params, OMEGA_100MHZ)
    assert value == EPSILON_0 * 4.2
    assert value.imag == 0.0


def test_ice_static_limit_reaches_full_relaxation_strength():
    s3 = get_scenario("S3").background
    relative = eval_permittivity(s3, 1e-3) / EPSILON_0
    assert relative.real == pytest.approx(s3.eps_inf + s3.delta_eps, rel=1e-12)
    assert relative.real == pytest.approx(91.5, rel=1e-4)


def test_loss_tangent_sign_convention(registry):
    # e^{j omega t} convention: lossy media have nonpositive imaginary part.
    for scenario in registry.values():
        for freq in FDA_FREQUENCIES:
            value = eval_permittivity(scenario.background, 2 * math.pi * freq)
            assert value.imag <= 0.0
            assert np.isfinite(value)


def test_loss_sign_holds_for_random_admissible_backgrounds():
    rng = np.random.default_rng(13)
    for _ in range(200):
        params = ColeColeParams(
            eps_inf=float(rng.uniform(1.0, 40.0)),
            delta_eps=float(rng.uniform(0.0, 100.0)),
            tau=float(10.0 ** rng.uniform(-13, -4)),
            alpha=float(rng.uniform(0.0, 0.99)),
            sigma=float(10.0 ** rng.uniform(-7, -1)),
        ).validate_background()
        omega = float(10.0 ** rng.uniform(7, 10))
        value = eval_permittivity(params, omega)
        assert value.imag <= 0.0
        assert np.isfinite(value)


def test_omega_must_be_positive():
    with pytest.raises(DomainError):
        eval_permittivity(get_scenario("S1").background, 0.0)


def test_overflowing_relaxation_time_raises_domain_error():
    params = ColeColeParams(3.0, 1.0, 1e300, 0.5, 0.0)
    with pytest.raises(DomainError, match="tau"), np.errstate(over="ignore", invalid="ignore"):
        eval_permittivity(params, OMEGA_100MHZ)


@pytest.mark.parametrize("params, culprit", [
    # (j omega tau)^40 overflows: Python's complex power would raise a bare OverflowError.
    (ColeColeParams(3.0, 1.0, 1e2, -39.0, 0.0), "alpha"),
    (ColeColeParams(3.0, 1.0, 1e-9, 0.0, 1e308), "sigma"),
])
@pytest.mark.parametrize("evaluate", [eval_permittivity, finite_difference_check])
def test_overflow_names_the_offending_parameter(params, culprit, evaluate):
    with pytest.raises(DomainError, match=f"offending parameter '{culprit}'"), \
            np.errstate(over="ignore", invalid="ignore"):
        evaluate(params, OMEGA_100MHZ)


def test_eps_inf_sensitivity_is_vacuum_over_background(registry):
    for scenario in registry.values():
        eps_b = eval_permittivity(scenario.background, OMEGA_100MHZ)
        psi = eval_sensitivities(scenario.background, OMEGA_100MHZ)
        assert psi[0] == pytest.approx(EPSILON_0 / eps_b, rel=1e-14)


def test_dispersionless_scenarios_have_dead_tau_alpha_channels():
    psi = eval_sensitivities(get_scenario("S1").background, OMEGA_100MHZ)
    assert psi[2] == 0.0
    assert psi[3] == 0.0


def test_synthetic_reference_sensitivities_match_finite_differences():
    errors = finite_difference_check(get_scenario("S_syn").background, OMEGA_100MHZ)
    assert errors.max() < 1e-7


def test_all_scenarios_all_frequencies_below_derivative_gate(registry):
    worst = 0.0
    for scenario in registry.values():
        for freq in FDA_FREQUENCIES:
            errors = finite_difference_check(scenario.background, 2 * math.pi * freq)
            worst = max(worst, errors.max())
    assert worst < 1e-5


def test_lunar_regolith_row_is_nearly_exact():
    worst = max(
        finite_difference_check(get_scenario("S1").background, 2 * math.pi * f).max()
        for f in FDA_FREQUENCIES
    )
    assert worst < 1e-9


def test_affine_eps_inf_channel_error_sits_at_rounding_level(registry):
    # The derivative is constant, so central differencing is exact up to
    # floating-point rounding of the permittivity evaluations. That floor
    # measures around 1e-11 relative; 1e-10 bounds it with margin.
    for scenario in registry.values():
        for freq in FDA_FREQUENCIES:
            errors = finite_difference_check(scenario.background, 2 * math.pi * freq)
            assert errors[0] < 1e-10


def test_step_sweep_shows_truncation_decay_then_rounding_plateau():
    background = get_scenario("S_syn").background
    errs = {
        step: finite_difference_errors(background, OMEGA_100MHZ, rel_step=step).max()
        for step in (1e-3, 1e-4, 1e-5, 1e-6)
    }
    assert errs[1e-3] > 10.0 * errs[1e-4] > 100.0 * errs[1e-5]
    assert errs[1e-6] > errs[1e-5] / 10.0  # rounding stops the decay


def test_broadcast_check_agrees_with_one_scalar_check_per_frequency(registry):
    omegas = 2.0 * math.pi * FDA_FREQUENCIES
    for scenario in registry.values():
        errors = finite_difference_check(scenario.background, omegas)
        assert errors.shape == (5, len(omegas))
        reference = np.stack([finite_difference_errors(scenario.background, omega)
                              for omega in omegas], axis=1)
        assert np.abs(errors - reference).max() <= 2.2e-8
        scalar = finite_difference_check(scenario.background, omegas[3])
        assert scalar.shape == (5,)
        assert np.abs(scalar - errors[:, 3]).max() <= 2.2e-8


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
def test_a_non_positive_frequency_among_many_is_named(bad):
    omegas = 2.0 * math.pi * FDA_FREQUENCIES
    omegas[6] = bad
    with pytest.raises(DomainError, match=rf"omega\[6\] = {bad!r}"):
        finite_difference_check(get_scenario("S_syn").background, omegas)
    with pytest.raises(DomainError, match=rf"positive, got {bad!r}$"):
        eval_sensitivities(get_scenario("S_syn").background, bad)


def test_overflow_among_many_frequencies_names_the_parameter():
    params = ColeColeParams(3.0, 1.0, 1e300, 0.5, 0.0)
    omegas = 2.0 * math.pi * FDA_FREQUENCIES
    with pytest.raises(DomainError, match="permittivity overflow at omega=.*'tau'"), \
            np.errstate(over="ignore", invalid="ignore"):
        finite_difference_check(params, omegas)


def test_fd_floors_apply_to_zero_valued_parameters():
    assert FD_STEP_FLOORS.shape == (5,)
    # S1 has delta_eps = alpha = 0; the check must still return finite errors.
    errors = finite_difference_check(get_scenario("S1").background, OMEGA_100MHZ)
    assert np.all(np.isfinite(errors))
    # Dead channels (tau, alpha under delta_eps = 0) report exactly zero.
    assert errors[2] == 0.0
    assert errors[3] == 0.0


def test_zero_perturbation_gives_zero_contrast(registry):
    zero = np.zeros(5)
    for scenario in registry.values():
        psi = eval_sensitivities(scenario.background, OMEGA_100MHZ)
        assert exact_contrast_field(scenario.background, zero[:, None], OMEGA_100MHZ) == 0.0
        assert psi @ zero == 0.0


def test_eps_inf_channel_is_exactly_affine(registry):
    background = get_scenario("S_syn").background
    delta = np.array([0.37, 0.0, 0.0, 0.0, 0.0])
    eps_b = eval_permittivity(background, OMEGA_100MHZ)
    exact = exact_contrast_field(background, delta[:, None], OMEGA_100MHZ)[0]
    assert exact == pytest.approx(EPSILON_0 * 0.37 / eps_b, rel=1e-13)
    # The exact contrast scales its numerator by eps0 / eps_b, the eps_inf
    # sensitivity itself, and the relaxation terms cancel exactly.
    psi = eval_sensitivities(background, OMEGA_100MHZ)
    assert exact == psi @ delta
    omegas = 2 * math.pi * FDA_FREQUENCIES
    for scenario in registry.values():
        draws = np.zeros((5, 64, 1))
        draws[0] = np.linspace(-1.0, 1.0, 64)[:, None]
        psi = sensitivity_components(*scenario.background.as_array(), omegas)
        exact = exact_contrast_field(scenario.background, draws, omegas)
        assert np.array_equal(exact, draws[0] * psi[0])


def test_single_channel_unit_perturbation_returns_sensitivity():
    psi = eval_sensitivities(get_scenario("S_syn").background, OMEGA_100MHZ)
    for q in range(5):
        unit = np.zeros(5)
        unit[q] = 1.0
        assert psi @ unit == psi[q]


def test_linearization_error_scales_quadratically():
    # Amplitude-sweep oracle: fixed perturbation direction, halving scales.
    scenario = get_scenario("S_syn")
    direction = scenario.d_mu.copy()
    psi = eval_sensitivities(scenario.background, OMEGA_100MHZ)
    scales = np.array([1.0, 0.5, 0.25, 0.125, 0.0625])
    errors = []
    for s in scales:
        delta = s * direction
        exact = exact_contrast_field(scenario.background, delta[:, None], OMEGA_100MHZ)[0]
        errors.append(abs(exact - psi @ delta))
    slope = np.polyfit(np.log(scales), np.log(errors), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_synthetic_reference_p95_cell_error_below_threshold():
    # Random per-cell perturbations at unit amplitude stay inside the
    # 0.05 admissibility threshold at the 95th percentile.
    scenario = get_scenario("S_syn")
    rng = np.random.default_rng(20260405)
    draws = scenario.d_mu[:, None] * rng.standard_normal((5, 4000))
    exact = exact_contrast_field(scenario.background, draws, OMEGA_100MHZ)
    psi = eval_sensitivities(scenario.background, OMEGA_100MHZ)
    linear = psi @ draws
    ratio = np.abs(exact - linear) / np.maximum(np.abs(exact), 1e-30)
    p95 = np.sort(ratio)[int(np.ceil(0.95 * ratio.size)) - 1]
    assert p95 < 0.05


def test_perturbed_tau_below_floor_raises():
    background = get_scenario("S_syn").background
    delta = np.zeros(5)
    delta[2] = -background.tau  # would drive tau to zero
    with pytest.raises(DomainError, match="tau"):
        exact_contrast_field(background, delta[:, None], OMEGA_100MHZ)


def test_cached_background_terms_are_read_only_and_follow_the_frequencies():
    # The background terms are cached per (background, frequencies): a switch
    # to another frequency set and back gives the values of a cold cache.
    background = get_scenario("S4").background
    rng = np.random.default_rng(5)
    draws = 0.01 * background.as_array()[:, None, None, None] * rng.standard_normal((5, 1, 3, 4))
    ladders = [2.0 * np.pi * (100e6 + delta_f * np.arange(8))[:, None, None]
               for delta_f in (20e6, 40e6)]
    cold = []
    for omega in ladders:
        _background_terms.cache_clear()
        cold.append((_background_terms(background, omega.tobytes(), omega.shape),
                     exact_contrast_field(background, draws, omega)))
    _background_terms.cache_clear()
    for which in (0, 1, 0):
        omega = ladders[which]
        contrast = exact_contrast_field(background, draws, omega)
        terms = _background_terms(background, omega.tobytes(), omega.shape)
        assert np.array_equal(contrast, cold[which][1])
        for term, reference in zip(terms, cold[which][0]):
            assert term.shape == omega.shape and np.array_equal(term, reference)
            assert not term.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                term += 0.0
    # The first two calls filled the cache; every later lookup hit it.
    assert _background_terms.cache_info().misses == 2
    assert np.array_equal(cold[0][0][3], EPSILON_0 / complex_permittivity(
        *background.as_array(), ladders[0]))


def test_exact_contrast_field_matches_scalar_route():
    background = get_scenario("S4").background
    rng = np.random.default_rng(3)
    draws = 0.01 * background.as_array()[:, None] * rng.standard_normal((5, 8))
    field = exact_contrast_field(background, draws, OMEGA_100MHZ)
    for i in range(8):
        # A column evaluated without its neighbours gives the same bits. It
        # is repeated to the stack's width because numpy's in-place complex
        # multiply rounds a one-element array differently in the last bit.
        alone = exact_contrast_field(background, np.repeat(draws[:, i:i + 1], 8, axis=1),
                                     OMEGA_100MHZ)
        assert np.array_equal(alone, np.full(8, field[i]))
        # The oracle takes the complex power, not the factored kernel. The
        # gap is at most 5.0e-14 on these draws and 3.6e-13 over seeds 0-19
        # at this scale; the oracle's contrast is a difference of two
        # permittivities, so cancellation widens it at smaller perturbations.
        oracle = exact_contrast(background, draws[:, i], OMEGA_100MHZ)
        assert abs(field[i] - oracle) <= 1e-12 * abs(oracle)


def test_background_validation_rejects_bad_states():
    with pytest.raises(DomainError):
        ColeColeParams(3.0, 0.0, -1e-12, 0.0, 1e-5)
    with pytest.raises(DomainError):
        ColeColeParams(3.0, 0.0, 1e-12, 1.5, 1e-5).validate_background()
    with pytest.raises(DomainError):
        ColeColeParams(-3.0, 0.0, 1e-12, 0.0, 1e-5).validate_background()
    with pytest.raises(DomainError):
        ColeColeParams(3.0, -0.1, 1e-12, 0.0, 1e-5).validate_background()
    with pytest.raises(DomainError):
        ColeColeParams(3.0, 0.0, 1e-12, 0.0, -1e-5).validate_background()


def test_scenario_registry_is_importable_via_package():
    assert set(scenario_registry()) == {"S1", "S2", "S3", "S4", "S_syn", "S_balance"}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    eps_inf=st.floats(1.0, 40.0),
    delta_eps=st.floats(-0.5, 100.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-12),
    log_tau=st.floats(-13.0, -4.0),
    alpha=st.floats(-0.05, 0.99),
    log_sigma=st.floats(-7.0, -1.0),
    log_omega=st.floats(7.0, 10.0),
)
def test_factored_kernel_matches_complex_power(
    eps_inf, delta_eps, log_tau, alpha, log_sigma, log_omega
):
    # Oracle: the relaxation term with the principal complex power
    # (j omega tau)^(1-alpha), on admissible and slightly perturbed states,
    # and the permittivity it makes with the complex-power core.
    tau, sigma, omega = 10.0**log_tau, 10.0**log_sigma, np.array([10.0**log_omega])
    u = (1j * omega * tau) ** (1.0 - alpha)
    re, minus_im = _relaxation(delta_eps, tau, alpha, omega)
    relaxation = re - 1j * minus_im
    assert abs(relaxation - delta_eps / (1.0 + u)) <= 1e-13 * abs(delta_eps / (1.0 + u))
    full = EPSILON_0 * (eps_inf + relaxation - 1j * sigma / (omega * EPSILON_0))
    reference = complex_permittivity(eps_inf, delta_eps, tau, alpha, sigma, omega)
    assert abs(full - reference) <= 1e-13 * abs(reference)


def test_sigma_only_exact_contrast_equals_linear(registry):
    # The permittivity is affine in sigma, so the exact contrast of a
    # conductivity-only perturbation is its first-order contrast. The two
    # routes round differently, d_sigma times 1 / (omega eps0), then eps0 / eps_b,
    # against d_sigma times (-j / omega) / eps_b, so they agree to a few ulp
    # relative: at most 5.0e-16 over 30 seeds, every scenario and 40
    # frequencies from 50 MHz to 1.5 GHz.
    omegas = 2 * math.pi * FDA_FREQUENCIES
    rng = np.random.default_rng(11)
    for scenario in registry.values():
        draws = np.zeros((5, 64, 1))
        draws[4] = 3.0 * scenario.d_mu[4] * rng.standard_normal((64, 1))
        exact = exact_contrast_field(scenario.background, draws, omegas)  # (64, N)
        psi = sensitivity_components(*scenario.background.as_array(), omegas)  # (5, N)
        linear = draws[4] * psi[4]
        assert np.max(np.abs(exact - linear) / np.abs(linear)) <= 1e-15
