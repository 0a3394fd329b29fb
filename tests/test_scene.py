"""Scenario registry values, geometry construction, grid invariants."""

import dataclasses
import hashlib
import importlib.util
import math
import sys

import numpy as np
import pytest

from gprclutter import GeometryConfig, build_default_geometry, get_scenario
from gprclutter import scene
from gprclutter.errors import ConfigError
from gprclutter.harness import config as config_module
from gprclutter.harness.config import ExperimentConfig, config_hash
from gprclutter.scene import SceneGeometry, coerce_fields, default_perturbation_scales

REGISTRY_VALUES = {
    "S1": (3.0285, 0.0, 1e-12, 0.0, 1e-5),
    "S2": (9.0, 0.0, 1e-12, 0.0, 1e-5),
    "S3": (3.16, 88.34, 2.1e-5, 0.0, 1e-5),
    "S4": (21.60, 30.49, 3.60e-8, 0.45, 1.95e-2),
    "S_syn": (4.0, 2.0, 1.0610e-9, 0.25, 5e-3),
    "S_balance": (5.43374, 0.110543, 6.12549e-6, 0.49, 6.89221e-5),
}


def test_registry_values_bit_match(registry):
    for sid, expected in REGISTRY_VALUES.items():
        values = registry[sid].background.as_array()
        assert tuple(values) == expected, sid


def test_registry_scales_are_positive(registry):
    for scenario in registry.values():
        assert scenario.d_mu.shape == (5,)
        assert np.all(scenario.d_mu > 0.0)


def test_default_scales_follow_the_documented_rule(registry):
    s4 = registry["S4"]
    expected = np.array([
        0.005 * 21.60, 0.005 * 30.49, 0.005 * 3.60e-8, 0.001, 0.005 * 1.95e-2,
    ])
    assert np.allclose(s4.d_mu, expected, rtol=1e-14)
    s1 = registry["S1"]
    # Zero / tiny channels fall back to the floors.
    assert s1.d_mu[1] == 0.005   # delta_eps floor
    assert s1.d_mu[3] == 0.001   # fixed alpha scale
    assert s1.d_mu[4] == 5e-7    # sigma floor
    assert s1.d_mu[2] == 0.005 * 1e-12  # tau is always relative


def test_registry_scenarios_are_built_once():
    assert get_scenario("S4") is get_scenario("S4")
    registry = scene.scenario_registry()
    assert registry is not scene.scenario_registry()
    assert all(registry[sid] is get_scenario(sid) for sid in REGISTRY_VALUES)


def test_unknown_scenario_id_raises():
    with pytest.raises(ConfigError, match="unknown scenario"):
        get_scenario("S99")


def test_default_geometry_matches_common_settings(geometry):
    assert geometry.n_tx == 8
    assert geometry.n_rx == 8
    assert geometry.n_cells == 525
    assert geometry.grid_dims == (25, 21)
    assert math.isclose(geometry.cell_volume, 1.25e-3, rel_tol=1e-12)
    assert geometry.frequencies[0] == 100e6
    assert geometry.frequencies[7] == 240e6
    assert np.allclose(np.diff(geometry.frequencies), 20e6)


def test_degenerate_fda_ladder_collapses_to_f0():
    geometry = build_default_geometry(GeometryConfig(delta_f=0.0))
    assert np.all(geometry.frequencies == 100e6)


def test_element_layout_is_interleaved_and_on_surface(geometry):
    tx_x = geometry.tx_positions[:, 0]
    rx_x = geometry.rx_positions[:, 0]
    assert tx_x[0] == pytest.approx(-0.175)
    assert tx_x[-1] == pytest.approx(0.175)
    assert np.allclose(rx_x - tx_x, 0.025)
    assert np.all(geometry.tx_positions[:, 2] == 0.0)
    assert np.all(geometry.rx_positions[:, 2] == 0.0)


def test_cell_grid_is_regular(geometry):
    xs = np.unique(geometry.cell_centers[:, 0])
    zs = np.unique(geometry.cell_centers[:, 2])
    assert len(xs) == 25
    assert len(zs) == 21
    assert np.allclose(np.diff(xs), 0.05)
    assert np.allclose(np.diff(zs), 0.025)
    assert zs[0] == pytest.approx(0.0125)
    assert zs[-1] == pytest.approx(0.5125)
    assert np.all(geometry.cell_centers[:, 2] > 0.0)
    # p = ix * n_z + iz ordering
    assert geometry.cell_centers[0, 0] == xs[0]
    assert geometry.cell_centers[20, 2] == zs[20]
    assert geometry.cell_centers[21, 0] == xs[1]


def test_randomized_valid_configs_satisfy_invariants():
    rng = np.random.default_rng(7)
    for _ in range(25):
        cfg = GeometryConfig(
            n_tx=int(rng.integers(1, 6)),
            n_rx=int(rng.integers(1, 6)),
            f0=float(rng.uniform(5e7, 5e8)),
            delta_f=float(rng.choice([0.0, 1e6, 2e7])),
            element_spacing=float(rng.uniform(0.01, 0.2)),
            n_x=int(rng.integers(1, 12)),
            n_z=int(rng.integers(1, 12)),
            dx=float(rng.uniform(0.01, 0.2)),
            dz=float(rng.uniform(0.01, 0.2)),
            strip_width=float(rng.uniform(0.1, 2.0)),
        )
        geometry = build_default_geometry(cfg)
        assert geometry.n_cells == cfg.n_x * cfg.n_z
        assert math.isclose(geometry.cell_volume, cfg.dx * cfg.dz * cfg.strip_width,
                            rel_tol=1e-12)
        assert np.all(geometry.cell_centers[:, 2] > 0.0)
        if cfg.delta_f > 0:
            assert np.all(np.diff(geometry.frequencies) > 0.0)
        assert len(np.unique(geometry.cell_centers[:, 0])) == cfg.n_x
        assert len(np.unique(geometry.cell_centers[:, 2])) == cfg.n_z


def test_invalid_configs_raise():
    with pytest.raises(ConfigError):
        GeometryConfig(n_tx=0)
    with pytest.raises(ConfigError):
        GeometryConfig(dx=-0.1)
    with pytest.raises(ConfigError):
        GeometryConfig(f0=0.0)
    with pytest.raises(ConfigError):
        GeometryConfig(delta_f=-1.0)


def test_a_config_field_type_without_a_parser_is_refused():
    # Every config field is parsed by its declared type, so a field of a
    # type the parser table lacks fails at construction, not in a run.
    @dataclasses.dataclass(frozen=True)
    class Block:
        gain: complex = 1j

        def __post_init__(self):
            coerce_fields(self)

    with pytest.raises(TypeError, match="Block.gain: no config parser"):
        Block()


def test_inconsistent_grid_dims_rejected(geometry):
    with pytest.raises(ConfigError, match="inconsistent"):
        SceneGeometry(
            tx_positions=geometry.tx_positions,
            rx_positions=geometry.rx_positions,
            frequencies=geometry.frequencies,
            cell_centers=geometry.cell_centers,
            cell_volume=geometry.cell_volume,
            grid_dims=(25, 20),
        )


@pytest.mark.parametrize("field, index", [
    ("tx_positions", (3, 0)), ("rx_positions", (0, 1)),
    ("cell_centers", (7, 2)), ("frequencies", (2,)),
])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_geometry_arrays_are_refused_by_name(geometry, field, index, bad):
    # A NaN depth passes a "<= 0" check, and NaN frequencies gave an
    # all-NaN steering vector.
    value = np.array(getattr(geometry, field))
    value[index] = bad
    with pytest.raises(ConfigError, match=rf"{field} must be finite, got {bad!r} at index"):
        dataclasses.replace(geometry, **{field: value})


@pytest.mark.parametrize("frequencies", [np.zeros(8), -100e6 - 20e6 * np.arange(8)])
def test_non_positive_frequencies_are_refused(geometry, frequencies):
    with pytest.raises(ConfigError, match="frequencies must be positive, got .* at index 0"):
        dataclasses.replace(geometry, frequencies=frequencies)


@pytest.mark.parametrize("volume", [0.0, -1.0, np.nan, np.inf])
def test_cell_volume_must_be_positive_and_finite(geometry, volume):
    with pytest.raises(ConfigError, match="cell volume must be positive and finite"):
        dataclasses.replace(geometry, cell_volume=volume)


def test_fingerprint_distinguishes_geometries(geometry):
    other = build_default_geometry(GeometryConfig(delta_f=0.0))
    assert geometry.fingerprint() != other.fingerprint()
    assert geometry.fingerprint() == build_default_geometry().fingerprint()
    # Every summary records the fingerprint: its bytes must not drift.
    assert geometry.fingerprint() == "2cee97b183a0b2b5"


def test_digests_fall_back_to_hashlib_with_the_same_bytes(monkeypatch):
    # An interpreter built without the built-in SHA-256 modules: a fresh copy
    # of scene.py must take hashlib's and give the pinned digests.
    for name in ("_sha2", "_sha256"):
        monkeypatch.setitem(sys.modules, name, None)
    spec = importlib.util.spec_from_file_location("gprclutter._scene_without_builtin_sha",
                                                  scene.__file__)
    fresh = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, fresh)
    spec.loader.exec_module(fresh)
    assert fresh._sha256 is hashlib.sha256
    assert fresh.build_default_geometry().fingerprint() == "2cee97b183a0b2b5"
    monkeypatch.setattr(config_module, "short_digest", fresh.short_digest)
    assert config_hash(ExperimentConfig()) == "ff32d3d94016b87b"


def test_scale_rule_floors_only_lift(registry):
    # All channels except the fixed alpha scale are at least the relative rate.
    for scenario in registry.values():
        scales = default_perturbation_scales(scenario.background)
        background = scenario.background.as_array()
        keep = [0, 1, 2, 4]
        assert np.all(scales[keep] >= 0.005 * np.abs(background[keep]) - 1e-30)
        assert scales[3] == 0.001
