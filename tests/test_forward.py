"""Green kernel, Born operator assembly, steering vectors, discrepancies."""

import dataclasses
import math

import numpy as np
import pytest

from gprclutter import (
    ColeColeParams,
    GeometryConfig,
    assemble_forward,
    build_default_geometry,
    eval_permittivity,
    eval_sensitivities,
    forward_discrepancy,
    get_scenario,
    steering_vector,
)
from gprclutter import forward as forward_module
from gprclutter.constants import MU_0
from gprclutter.constitutive import sensitivity_components
from gprclutter.errors import AssemblyError, ConfigError, NearSingularityError
from gprclutter.forward import background_wavenumber, born_kernel_tensor
from gprclutter.scene import Scenario, default_perturbation_scales
from oracles import green_kernel

OMEGA_100MHZ = 2.0 * math.pi * 100e6

VACUUM = ColeColeParams(1.0, 0.0, 1e-12, 0.0, 0.0)


def test_vacuum_kernel_amplitude_at_unit_distance():
    g = green_kernel((0, 0, 0), (0, 0, 1.0), OMEGA_100MHZ, VACUUM)
    assert abs(g) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-12)
    assert abs(g) == pytest.approx(7.9577e-2, rel=1e-4)


def test_lossy_kernel_decays_faster_than_geometric():
    background = get_scenario("S4").background
    radii = np.linspace(0.05, 1.0, 12)
    scaled = [
        abs(green_kernel((0, 0, 0), (0, 0, r), OMEGA_100MHZ, background)) * 4 * math.pi * r
        for r in radii
    ]
    assert np.all(np.diff(scaled) < 0.0)


def test_kernel_phase_matches_independent_wavenumber():
    # Oracle: rebuild k_b from the permittivity evaluation and compare the
    # full complex factor exp(-j k r).
    background = get_scenario("S2").background
    r = 0.3
    eps_b = eval_permittivity(background, OMEGA_100MHZ)
    k_oracle = OMEGA_100MHZ * np.sqrt(MU_0 * eps_b)
    if k_oracle.imag > 0:
        k_oracle = -k_oracle
    g = green_kernel((0, 0, 0), (0, 0.3, 0), OMEGA_100MHZ, background)
    expected = np.exp(-1j * k_oracle * r) / (4 * math.pi * r)
    assert g == pytest.approx(expected, rel=1e-12)
    assert np.angle(g * 4 * math.pi * r) == pytest.approx(
        math.remainder(-k_oracle.real * r, 2 * math.pi), rel=1e-9
    )


def test_wavenumber_branch_decays(registry):
    for scenario in registry.values():
        k = background_wavenumber(scenario.background, OMEGA_100MHZ)
        assert k.imag <= 0.0
        assert k.real > 0.0


def test_kernel_reciprocity_is_exact():
    background = get_scenario("S3").background
    a, b = (0.12, 0.0, 0.0), (-0.3, 0.0, 0.4)
    assert green_kernel(a, b, OMEGA_100MHZ, background) == green_kernel(
        b, a, OMEGA_100MHZ, background
    )


def test_kernel_minimum_separation(geometry):
    target = geometry.rx_positions[2] + np.array([0.0, 0.0, 1e-7])
    with pytest.raises(NearSingularityError, match="below the 1e-06 m kernel minimum") as info:
        steering_vector(geometry, get_scenario("S1"), target)
    # The separation prints as a plain number, not as np.float64(1e-07).
    assert "np.float64" not in str(info.value)


def test_toy_forward_shape(small_geometry):
    forward = assemble_forward(get_scenario("S1"), small_geometry)
    assert forward.shape == (4, 30)
    # row n * M + m, column q * P + p: receiver 1, transmitter 1, channel 4, cell 5
    assert forward.entries[1 * 2 + 1, 4 * 6 + 5] == (
        forward.sensitivities[4, 1] * forward.kernels[3, 5])


def test_two_by_two_with_three_cells_is_4x15():
    geometry = build_default_geometry(GeometryConfig(n_tx=2, n_rx=2, n_x=3, n_z=1))
    forward = assemble_forward(get_scenario("S2"), geometry)
    assert forward.shape == (4, 15)


def test_dispersionless_scenarios_have_zero_tau_alpha_blocks(geometry):
    forward = assemble_forward(get_scenario("S1"), geometry)
    blocks = forward.entries.reshape(forward.shape[0], 5, geometry.n_cells)
    assert np.all(blocks[:, 2] == 0.0)
    assert np.all(blocks[:, 3] == 0.0)
    assert np.any(blocks[:, 0] != 0.0)


def test_single_cell_entry_is_the_hand_composed_product(tiny_geometry):
    # Brute-force oracle: recompose one entry from scalar kernel calls.
    scenario = get_scenario("S_syn")
    forward = assemble_forward(scenario, tiny_geometry)
    cell = tiny_geometry.cell_centers[0]
    for n in range(2):
        omega = 2 * math.pi * tiny_geometry.frequencies[n]
        psi = eval_sensitivities(scenario.background, omega)
        for m in range(2):
            g_r = green_kernel(tiny_geometry.rx_positions[m], cell, omega, scenario.background)
            g_t = green_kernel(cell, tiny_geometry.tx_positions[n], omega, scenario.background)
            for q in range(5):
                expected = g_r * psi[q] * g_t * tiny_geometry.cell_volume
                got = forward.entries[n * 2 + m, q * tiny_geometry.n_cells]
                assert got == pytest.approx(expected, rel=1e-13)


def test_snapshot_linearity_against_brute_force_loop(small_geometry):
    # A @ dmu must equal the doubly nested Born sum over cells and channels.
    scenario = get_scenario("S4")
    forward = assemble_forward(scenario, small_geometry)
    rng = np.random.default_rng(11)
    dmu = rng.standard_normal(forward.shape[1]) * np.repeat(scenario.d_mu, small_geometry.n_cells)
    fast = forward.entries @ dmu
    slow = np.zeros(forward.shape[0], dtype=complex)
    for n in range(small_geometry.n_tx):
        omega = 2 * math.pi * small_geometry.frequencies[n]
        psi = eval_sensitivities(scenario.background, omega)
        for m in range(small_geometry.n_rx):
            row = n * small_geometry.n_rx + m
            for p, cell in enumerate(small_geometry.cell_centers):
                g_r = green_kernel(small_geometry.rx_positions[m], cell, omega,
                                   scenario.background)
                g_t = green_kernel(cell, small_geometry.tx_positions[n], omega,
                                   scenario.background)
                for q in range(5):
                    slow[row] += (
                        g_r * psi[q] * g_t * small_geometry.cell_volume
                        * dmu[q * small_geometry.n_cells + p]
                    )
    assert np.linalg.norm(fast - slow) / np.linalg.norm(slow) < 1e-12


@pytest.mark.parametrize("sid", ["S1", "S4", "S_balance"])
def test_entries_match_the_dense_assembly_loop(geometry, sid):
    # Oracle: the dense block-by-block assembly from the kernel tensor.
    scenario = get_scenario(sid)
    kernels = born_kernel_tensor(scenario.background, geometry)
    psi = sensitivity_components(*scenario.background.as_array(),
                                 2.0 * np.pi * geometry.frequencies)
    n_tx, n_rx, n_cells = geometry.n_tx, geometry.n_rx, geometry.n_cells
    expected = np.empty((n_rx * n_tx, 5 * n_cells), dtype=complex)
    for n in range(n_tx):
        for q in range(5):
            expected[n * n_rx:(n + 1) * n_rx, q * n_cells:(q + 1) * n_cells] = (
                psi[q, n] * kernels[n])
    entries = assemble_forward(scenario, geometry).entries
    assert entries.tobytes() == expected.tobytes()
    assert not entries.flags.writeable


def test_non_finite_factor_is_an_assembly_error(small_geometry, monkeypatch):
    scenario = get_scenario("S4")
    kernels = born_kernel_tensor(scenario.background, small_geometry)
    kernels[1, 0, 4] = np.inf
    monkeypatch.setattr(forward_module, "born_kernel_tensor", lambda *args: kernels)
    with pytest.raises(AssemblyError, match=r"kernel at \(m=0, n=1, p=4\)"):
        assemble_forward(scenario, small_geometry)
    monkeypatch.undo()

    psi = sensitivity_components(*scenario.background.as_array(),
                                 2.0 * np.pi * small_geometry.frequencies)
    psi[3, 1] = np.nan
    monkeypatch.setattr(forward_module, "sensitivity_components", lambda *args: psi)
    with pytest.raises(AssemblyError, match=r"sensitivity at \(q=3, n=1\)"):
        assemble_forward(scenario, small_geometry)


def test_assembly_is_deterministic(geometry):
    first = assemble_forward(get_scenario("S3"), geometry)
    second = assemble_forward(get_scenario("S3"), geometry)
    assert np.array_equal(first.entries, second.entries)


def test_steering_vector_unit_norm(geometry, registry):
    for sid in ("S1", "S4"):
        steering = steering_vector(geometry, registry[sid], (0.0, 0.0, 0.2625))
        assert np.linalg.norm(steering.values) == pytest.approx(1.0, abs=1e-12)


def test_steering_rejects_surface_targets(geometry):
    with pytest.raises(ConfigError):
        steering_vector(geometry, get_scenario("S1"), (0.0, 0.0, 0.0))
    with pytest.raises(ConfigError):
        steering_vector(geometry, get_scenario("S1"), (0.0, 0.0, -0.1))


def test_steering_rejects_targets_on_elements(geometry):
    target = geometry.tx_positions[3] + np.array([0.0, 0.0, 1e-9])
    with pytest.raises(NearSingularityError):
        steering_vector(geometry, get_scenario("S1"), target)


def test_mirror_symmetry_under_degenerate_fda():
    # With delta_f = 0 the array is mirror symmetric about its center
    # x = 0.0125 m: reflection swaps TX and RX lines, so channel (m, n)
    # maps to (M-1-n, N-1-m). The oracle applies that permutation.
    geometry = build_default_geometry(GeometryConfig(delta_f=0.0))
    scenario = get_scenario("S2")
    steering = steering_vector(geometry, scenario, (0.0125, 0.0, 0.3)).values
    n_rx = geometry.n_rx
    permuted = np.empty_like(steering)
    for n in range(geometry.n_tx):
        for m in range(n_rx):
            permuted[n * n_rx + m] = steering[(7 - m) * n_rx + (7 - n)]
    assert np.allclose(steering, permuted, rtol=0.0, atol=1e-12)


def test_steering_parallel_to_matching_forward_column(geometry):
    # At a cell center the eps_inf column of A and the steering vector are
    # the same kernel product up to the (weakly frequency-dependent)
    # sensitivity scale, so their directions coincide to high accuracy.
    scenario = get_scenario("S1")
    forward = assemble_forward(scenario, geometry)
    p = 10 * 21 + 10  # interior cell
    target = geometry.cell_centers[p]
    steering = steering_vector(geometry, scenario, target).values
    column = forward.entries[:, p]  # channel q = 0
    cosine = abs(np.vdot(steering, column)) / np.linalg.norm(column)
    assert cosine > 1.0 - 1e-6


def test_steering_at_a_cell_center_is_its_normalized_kernel_column(geometry):
    # Steering vectors and forward kernels come from one two-way kernel routine.
    scenario = get_scenario("S4")
    forward = assemble_forward(scenario, geometry)
    for p in (0, 10 * 21 + 10, geometry.n_cells - 1):
        column = forward.kernels[:, p]
        steering = steering_vector(geometry, scenario, geometry.cell_centers[p]).values
        assert np.linalg.norm(steering - column / np.linalg.norm(column)) <= 1e-14


def test_discrepancy_identity_and_scaling(geometry):
    forward = assemble_forward(get_scenario("S1"), geometry)
    assert forward_discrepancy(forward, forward) == 0.0
    doubled = dataclasses.replace(forward, kernels=2.0 * forward.kernels)
    assert forward_discrepancy(forward, doubled) == pytest.approx(0.5, rel=1e-12)
    assert forward_discrepancy(doubled, forward) == pytest.approx(1.0, rel=1e-12)


def test_discrepancy_shape_mismatch(geometry, small_geometry):
    big = assemble_forward(get_scenario("S1"), geometry)
    small = assemble_forward(get_scenario("S1"), small_geometry)
    with pytest.raises(AssemblyError):
        forward_discrepancy(big, small)


def test_medium_change_ordering(geometry):
    # Recomputation oracle for the qualitative medium-dependence ordering:
    # leaving S2 changes the operator the most, S1 -> S2 the least.
    forwards = {sid: assemble_forward(get_scenario(sid), geometry)
                for sid in ("S1", "S2", "S3")}
    d12 = forward_discrepancy(forwards["S2"], forwards["S1"])
    d13 = forward_discrepancy(forwards["S3"], forwards["S1"])
    d23 = forward_discrepancy(forwards["S3"], forwards["S2"])
    assert d23 > d13 > d12 > 0.0


def test_free_space_background_kernel_is_usable(geometry):
    background = VACUUM.validate_background()
    scenario = Scenario(id="free_space", label="Free space", background=background,
                        d_mu=default_perturbation_scales(background))
    forward = assemble_forward(scenario, geometry)
    assert np.all(np.isfinite(forward.entries))
