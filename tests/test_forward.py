"""Green kernel, Born operator assembly, steering vectors, discrepancies."""

import dataclasses
import itertools
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
    scenario_registry,
    steering_vector,
)
from gprclutter import forward as forward_module
from gprclutter import scene
from gprclutter.constants import MU_0
from gprclutter.constitutive import sensitivity_components
from gprclutter.errors import (
    AssemblyError, ConfigError, DomainError, NearSingularityError, NonFiniteError)
from gprclutter.forward import (
    SteeringVector,
    background_wavenumber,
    block_discrepancy,
    born_kernel_tensor,
    discrepancy_ratio,
    frobenius_norm,
)
from gprclutter.harness.experiments import free_space_scenario
from gprclutter.scene import Scenario, default_perturbation_scales
from oracles import (
    born_kernel_reference,
    dense_discrepancy,
    dense_entries,
    green_kernel,
    mp_discrepancy,
    mp_frobenius_norm,
)

OMEGA_100MHZ = 2.0 * math.pi * 100e6

VACUUM = ColeColeParams(1.0, 0.0, 1e-12, 0.0, 0.0)

FDA_FREQUENCIES = 100e6 + 20e6 * np.arange(8)


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


def test_wavenumbers_broadcast_over_frequency(registry):
    omegas = 2.0 * np.pi * FDA_FREQUENCIES
    for scenario in registry.values():
        k = background_wavenumber(scenario.background, omegas)
        assert k.shape == omegas.shape
        for omega, value in zip(omegas, k):
            assert value == background_wavenumber(scenario.background, omega)


@pytest.mark.parametrize("bad", [0.0, -1e8, np.nan])
def test_a_non_positive_frequency_among_many_is_named(bad):
    omegas = 2.0 * np.pi * FDA_FREQUENCIES
    omegas[5] = bad
    with pytest.raises(DomainError, match=rf"omega\[5\] = {bad!r}"):
        background_wavenumber(get_scenario("S4").background, omegas)


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
    assert dense_entries(forward)[1 * 2 + 1, 4 * 6 + 5] == (
        forward.sensitivities[4, 1] * forward.kernels[3, 5])


def test_two_by_two_with_three_cells_is_4x15():
    geometry = build_default_geometry(GeometryConfig(n_tx=2, n_rx=2, n_x=3, n_z=1))
    forward = assemble_forward(get_scenario("S2"), geometry)
    assert forward.shape == (4, 15)


def test_dispersionless_scenarios_have_zero_tau_alpha_blocks(geometry):
    forward = assemble_forward(get_scenario("S1"), geometry)
    blocks = dense_entries(forward).reshape(forward.shape[0], 5, geometry.n_cells)
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
                got = dense_entries(forward)[n * 2 + m, q * tiny_geometry.n_cells]
                assert got == pytest.approx(expected, rel=1e-13)


def test_snapshot_linearity_against_brute_force_loop(small_geometry):
    # A @ dmu must equal the doubly nested Born sum over cells and channels.
    scenario = get_scenario("S4")
    forward = assemble_forward(scenario, small_geometry)
    rng = np.random.default_rng(11)
    dmu = rng.standard_normal(forward.shape[1]) * np.repeat(scenario.d_mu, small_geometry.n_cells)
    fast = dense_entries(forward) @ dmu
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
    entries = dense_entries(assemble_forward(scenario, geometry))
    assert entries.tobytes() == expected.tobytes()


@pytest.mark.parametrize("sid", sorted(scenario_registry()))
def test_kernel_tensor_equals_the_per_frequency_reference(sid):
    # The regular grid repeats distances, the jittered cells do not. A
    # steering vector is the normalized kernel column of a one-cell grid of
    # unit volume at its target.
    scenario = get_scenario(sid)
    jitter = np.random.default_rng(7).uniform(-0.01, 0.01, (30, 3)) * [1.0, 0.0, 1.0]
    targets = ((0.0, 0.0, 0.3), (0.0125, 0.0, 0.3), (-0.11, 0.0, 0.0625))
    for delta_f in (0.0, 20e6):
        geometry = build_default_geometry(GeometryConfig(n_x=6, n_z=5, delta_f=delta_f))
        jittered = dataclasses.replace(geometry, cell_centers=geometry.cell_centers + jitter)
        for grid in (geometry, jittered):
            kernels = born_kernel_tensor(scenario.background, grid)
            assert kernels.tobytes() == born_kernel_reference(scenario.background, grid).tobytes()
        for target in targets:
            cell = dataclasses.replace(geometry, cell_centers=np.array([target]),
                                       cell_volume=1.0, grid_dims=(1, 1))
            column = born_kernel_reference(scenario.background, cell).ravel()
            steering = steering_vector(geometry, scenario, target).values
            assert steering.tobytes() == (column / np.linalg.norm(column)).tobytes()


def test_one_distance_table_per_geometry(monkeypatch):
    # Every kernel build on one geometry object reads the same antenna-cell
    # table; a new geometry object builds its own.
    built = []
    original = scene.distance_table

    def counting(geometry, points):
        built.append(geometry)
        return original(geometry, points)

    monkeypatch.setattr(scene, "distance_table", counting)
    geometry = build_default_geometry(GeometryConfig(n_x=6, n_z=5))
    first = born_kernel_tensor(get_scenario("S1").background, geometry)
    for sid in ("S1", "S4", "S_syn"):
        assemble_forward(get_scenario(sid), geometry)
    assert born_kernel_tensor(get_scenario("S1").background, geometry).tobytes() == first.tobytes()
    assert built == [geometry]
    assemble_forward(get_scenario("S1"), build_default_geometry(GeometryConfig(n_x=6, n_z=5)))
    assert len(built) == 2
    table = geometry.cell_distances()
    assert table.rx_index.dtype == table.tx_index.dtype == np.int32
    assert not table.distances.flags.writeable


def test_cells_at_an_antenna_are_refused_by_name(tiny_geometry):
    cells = tiny_geometry.tx_positions[1:2] + np.array([[0.0, 0.0, 1e-7]])
    geometry = dataclasses.replace(tiny_geometry, cell_centers=cells)
    with pytest.raises(NearSingularityError,
                       match=r"between antenna 1 and point 0 below the 1e-06 m kernel minimum"):
        born_kernel_tensor(get_scenario("S1").background, geometry)


@pytest.mark.parametrize("delta_f", [0.0, 20e6])
def test_each_kernel_slab_equals_that_of_a_one_frequency_geometry(delta_f):
    # At delta_f = 0 one receive Green table serves every transmitter; each
    # slab must still equal the one a geometry of that transmitter alone gives.
    geometry = build_default_geometry(GeometryConfig(n_x=6, n_z=5, delta_f=delta_f))
    background = get_scenario("S4").background
    kernels = born_kernel_tensor(background, geometry)
    for n in range(geometry.n_tx):
        alone = dataclasses.replace(geometry, tx_positions=geometry.tx_positions[n:n + 1],
                                    frequencies=geometry.frequencies[n:n + 1])
        assert kernels[n].tobytes() == born_kernel_tensor(background, alone)[0].tobytes()


def test_non_finite_factor_is_an_assembly_error(small_geometry, monkeypatch):
    scenario = get_scenario("S4")
    kernels = born_kernel_tensor(scenario.background, small_geometry)
    kernels[1, 0, 4] = np.inf
    monkeypatch.setattr(forward_module, "born_kernel_tensor", lambda *args: kernels)
    with pytest.raises(AssemblyError, match=r"kernel at \(m=0, n=1, p=4\)"):
        assemble_forward(scenario, small_geometry)
    monkeypatch.undo()

    # The Cole-Cole cores refuse values that are not finite, naming the parameter.
    lossy = dataclasses.replace(scenario, background=ColeColeParams(3.0, 1.0, 1e-9, 0.0, 1e308))
    with pytest.raises(NonFiniteError, match="offending parameter 'sigma'"):
        assemble_forward(lossy, small_geometry)


def test_assembly_is_deterministic(geometry):
    first = assemble_forward(get_scenario("S3"), geometry)
    second = assemble_forward(get_scenario("S3"), geometry)
    assert np.array_equal(first.kernels, second.kernels)
    assert np.array_equal(first.sensitivities, second.sensitivities)


def test_steering_vector_unit_norm(geometry, registry):
    for sid in ("S1", "S4"):
        steering = steering_vector(geometry, registry[sid], (0.0, 0.0, 0.2625))
        assert np.linalg.norm(steering.values) == pytest.approx(1.0, abs=1e-12)


def test_steering_rejects_surface_targets(geometry):
    with pytest.raises(ConfigError):
        steering_vector(geometry, get_scenario("S1"), (0.0, 0.0, 0.0))
    with pytest.raises(ConfigError):
        steering_vector(geometry, get_scenario("S1"), (0.0, 0.0, -0.1))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_steering_vector_refuses_non_finite_values(bad):
    values = np.full(4, 0.5, dtype=complex)
    values[2] = bad
    with pytest.raises(AssemblyError, match="non-finite steering vector entry at channel 2"):
        SteeringVector(values=values)


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
    column = dense_entries(forward)[:, p]  # channel q = 0
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
    silent = dataclasses.replace(forward, sensitivities=np.zeros_like(forward.sensitivities))
    assert forward_discrepancy(silent, forward) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(AssemblyError, match="zero norm"):
        forward_discrepancy(forward, silent)


def test_discrepancy_shape_mismatch(geometry, small_geometry):
    big = assemble_forward(get_scenario("S1"), geometry)
    small = assemble_forward(get_scenario("S1"), small_geometry)
    with pytest.raises(AssemblyError):
        forward_discrepancy(big, small)


def _agrees_with_dense(value, dense):
    return value == dense if dense == 0.0 else abs(value - dense) <= 1e-12 * dense


def test_factored_discrepancy_matches_the_dense_norm():
    # Oracle: the Frobenius norm of the dense operators' difference, on
    # every ordered pair of the registry scenarios and free space. With
    # cells 2 km deep, S4's and S_syn's kernels are exactly 0: the
    # discrepancy toward them is exactly 1, and from them it is undefined.
    scenarios = [*scenario_registry().values(), free_space_scenario()]
    for geometry in (build_default_geometry(GeometryConfig(n_x=6, n_z=5)),
                     build_default_geometry(GeometryConfig(n_x=6, n_z=5, dz=2000))):
        forwards = [assemble_forward(scenario, geometry) for scenario in scenarios]
        assert len(forwards) == 7
        norms = {id(f): np.linalg.norm(dense_entries(f)) for f in forwards}
        for candidate, reference in itertools.product(forwards, forwards):
            if norms[id(reference)] == 0.0:
                with pytest.raises(AssemblyError, match="zero norm"):
                    forward_discrepancy(candidate, reference)
                continue
            dense = dense_discrepancy(candidate, reference)
            factored = forward_discrepancy(candidate, reference)
            if candidate is reference:
                assert factored == 0.0
            if norms[id(candidate)] == 0.0:
                assert factored == 1.0
            assert _agrees_with_dense(factored, dense)
            # The comparison resolves a kernel wrong by one part in 1e9, except
            # where one operator dwarfs the other (S4 and S_syn, by 1e4 and
            # more): the ratio is then near 1 whatever the smaller one's scale.
            if 0.1 <= norms[id(candidate)] / norms[id(reference)] <= 10.0:
                nudged = dataclasses.replace(candidate, kernels=candidate.kernels * (1 + 1e-9))
                assert not _agrees_with_dense(forward_discrepancy(nudged, reference), dense)
    # The deep geometry, last, did zero exactly these two media's kernels.
    assert {f.scenario.background for f in forwards if norms[id(f)] == 0.0} == {
        get_scenario(sid).background for sid in ("S4", "S_syn")}


def test_discrepancy_of_kernels_whose_squares_underflow_matches_mpmath():
    # Cells 400 m deep: S4's and S_syn's largest kernels are below 1e-200
    # and 1e-120, so their squares underflow in double precision, and S4's
    # operator once read as of zero norm. Each pair's blocks are scaled by
    # powers of two before squaring: every ordered pair of the registry
    # media and free space matches the high-precision oracle, the pairs
    # whose ratio is about 1e239 included.
    geometry = build_default_geometry(GeometryConfig(n_tx=2, n_rx=2, n_x=3, n_z=2, dz=400))
    forwards = [assemble_forward(scenario, geometry)
                for scenario in (*scenario_registry().values(), free_space_scenario())]
    largest = {f.scenario.background: np.abs(f.kernels).max() for f in forwards}
    assert 0.0 < largest[get_scenario("S4").background] < 1e-200
    assert 0.0 < largest[get_scenario("S_syn").background] < 1e-120
    for candidate, reference in itertools.product(forwards, forwards):
        oracle = mp_discrepancy(candidate, reference)
        assert oracle is not None
        assert forward_discrepancy(candidate, reference) == pytest.approx(oracle, rel=1e-12)


def test_a_discrepancy_beyond_the_float_range_is_an_assembly_error(small_geometry):
    forward = assemble_forward(get_scenario("S1"), small_geometry)
    tiny = dataclasses.replace(forward, kernels=forward.kernels * 2.0**-1030)
    assert forward_discrepancy(tiny, forward) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(AssemblyError, match="float range"):
        forward_discrepancy(forward, tiny)


@pytest.mark.parametrize("dtype", [float, complex])
def test_frobenius_norm_is_numpys_in_range_and_does_not_underflow_or_overflow(dtype):
    rng = np.random.default_rng(11)
    x = rng.standard_normal((6, 9)).astype(dtype)
    if dtype is complex:
        x += 1j * rng.standard_normal((6, 9))
    for axis in (None, 1):
        # In range the scaling by powers of two commutes with every rounding.
        assert (np.asarray(frobenius_norm(x, axis)).tobytes()
                == np.asarray(np.linalg.norm(x, axis=axis)).tobytes())
        for scale in (1e-250, 1e250):
            # Here np.linalg.norm's squares underflow to 0 or overflow to inf.
            oracle = mp_frobenius_norm(x * scale, axis)
            assert frobenius_norm(x * scale, axis) == pytest.approx(oracle, rel=1e-14)
        assert np.all(frobenius_norm(np.zeros_like(x), axis) == 0.0)


def _transmit_block(forward, n):
    """Transmit block n of an operator: its sensitivities (5,) and kernels (M, P)."""
    return forward.sensitivities[:, n], forward.kernels[n * forward.n_rx:(n + 1) * forward.n_rx]


def _dense_block(psi, kernels):
    return np.kron(psi[:, None], kernels)


def test_block_discrepancy_is_two_nonnegative_terms_of_the_dense_block(small_geometry):
    forwards = [assemble_forward(scenario, small_geometry)
                for scenario in (*scenario_registry().values(), free_space_scenario())]
    for candidate, reference in itertools.product(forwards, forwards):
        for n in range(small_geometry.n_tx):
            c_block, r_block = _transmit_block(candidate, n), _transmit_block(reference, n)
            numerator, denominator = block_discrepancy(*c_block, *r_block)
            dense = _dense_block(*r_block)
            assert numerator >= 0.0
            assert numerator**2 == pytest.approx(
                np.linalg.norm(_dense_block(*c_block) - dense) ** 2, rel=1e-12)
            assert denominator**2 == pytest.approx(np.linalg.norm(dense) ** 2, rel=1e-12)
            if candidate is reference:
                assert numerator == 0.0
    # Blocks one rounding apart: the numerator is a norm of two parts, never negative.
    psi, kernels = _transmit_block(forwards[0], 0)
    for scale in (1 + 2**-52, 1 - 2**-53, 1j):
        assert block_discrepancy(psi * scale, kernels, psi, kernels)[0] >= 0.0
        assert block_discrepancy(psi, kernels * scale, psi, kernels)[0] >= 0.0


def test_scaling_both_sensitivities_leaves_the_block_ratio(small_geometry):
    candidate = _transmit_block(assemble_forward(get_scenario("S2"), small_geometry), 1)
    reference = _transmit_block(assemble_forward(get_scenario("S3"), small_geometry), 1)

    def scaled_ratio(factor=1.0):
        numerator, denominator = block_discrepancy(factor * candidate[0], candidate[1],
                                                   factor * reference[0], reference[1])
        return numerator**2 / denominator**2

    ratio = scaled_ratio()
    assert discrepancy_ratio(*block_discrepancy(*candidate, *reference)) == pytest.approx(
        np.sqrt(ratio), rel=1e-15)
    assert scaled_ratio(2.0**-40) == ratio  # a power of two scales without rounding
    assert scaled_ratio(3.7e4 * np.exp(0.3j)) == pytest.approx(ratio, rel=1e-13)


def test_discrepancy_refuses_operators_of_another_geometry(small_geometry):
    # Same shape, another frequency increment.
    other = build_default_geometry(GeometryConfig(
        n_tx=2, n_rx=2, n_x=3, n_z=2, dx=0.1, dz=0.05, delta_f=40e6))
    first = assemble_forward(get_scenario("S1"), small_geometry)
    second = assemble_forward(get_scenario("S1"), other)
    assert first.shape == second.shape
    with pytest.raises(ConfigError) as info:
        forward_discrepancy(first, second)
    assert small_geometry.fingerprint() in str(info.value)
    assert other.fingerprint() in str(info.value)


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
    assert np.all(np.isfinite(dense_entries(forward)))
