"""Configuration parsing, strictness, and round-trip stability."""

import re

import pytest

from gprclutter.errors import ConfigError
from gprclutter.harness.config import (
    ExperimentConfig,
    config_hash,
    config_from_dict,
    dump_config,
    load_config,
    parse_config,
)


def test_default_config_round_trips_to_a_fixed_point():
    config = ExperimentConfig()
    text = dump_config(config)
    reparsed = parse_config(text)
    assert reparsed == config
    assert dump_config(reparsed) == text


def test_file_round_trip(tmp_path):
    config = ExperimentConfig(scenarios=("S2", "S4"), output_dir="out")
    path = tmp_path / "config.yaml"
    path.write_text(dump_config(config))
    assert load_config(str(path)) == config


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown top-level"):
        parse_config("scenarios: [S1]\nfrobnicate: 3\n")


def test_unknown_nested_key_rejected():
    with pytest.raises(ConfigError, match="unknown keys in geometry"):
        parse_config("geometry:\n  n_tx: 8\n  antenna_gain: 3\n")
    with pytest.raises(ConfigError, match="unknown keys in random_field"):
        parse_config("random_field:\n  wavelength: 3\n")


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigError, match="unknown scenario"):
        parse_config("scenarios: [S1, S9]\n")


def test_bad_block_shape_rejected():
    with pytest.raises(ConfigError, match="mapping"):
        parse_config("geometry: [1, 2, 3]\n")


def test_empty_target_grid_rejected():
    with pytest.raises(ConfigError, match="^target_grid must hold at least one entry"):
        parse_config("experiments: {target_grid: []}\n")


@pytest.mark.parametrize("text, key", [
    ("scenarios: []\n", "scenarios"),
    *((f"experiments: {{{key}: []}}\n", key) for key in (
        "amplitude_grid", "delta_f_grid", "corr_length_grid", "rho_c_grid", "weight_presets",
        "kappa_grid", "snr_grid_db", "boundary_scenarios", "kernel_diff_scenarios")),
    ("scenarios: [S1, S2, S1]\n", "scenarios"),
    ("experiments: {boundary_scenarios: [S4, S4]}\n", "boundary_scenarios"),
    ("experiments: {kernel_diff_scenarios: [S1, S2, S2]}\n", "kernel_diff_scenarios"),
    ("experiments: {validity_threshold: 0}\n", "validity_threshold"),
    ("experiments: {validity_threshold: -1}\n", "validity_threshold"),
    ("experiments: {target: [0, 0.2]}\n", "target"),
    ("experiments: {target: [0, 0, 0.1, 0.2]}\n", "target"),
    ("experiments: {target: [0, 0, 0]}\n", "target"),
    ("experiments: {target: [0, 0, -0.2]}\n", "target"),
    ("experiments: {target_grid: [[0, 0, 0.2], [0, 0.2]]}\n", r"target_grid\[1\]"),
    ("experiments: {target_grid: [[0, 0, -0.2]]}\n", r"target_grid\[0\]"),
    ("experiments: {validity_sample_count: 0}\n", "validity_sample_count"),
    ("random_field: {kernel: matern}\n", "kernel"),
    ("scenarios: S1\n", "scenarios"),
    ("experiments: {weight_presets: uniform}\n", "weight_presets"),
    ("experiments: {boundary_scenarios: S4}\n", "boundary_scenarios"),
    ("experiments: {kernel_diff_scenarios: S1}\n", "kernel_diff_scenarios"),
    ("random_field: {weights: '11111'}\n", "weights"),
    ("experiments: {target: '012'}\n", "target"),
    ("experiments: {kappa_grid: '14'}\n", "kappa_grid"),
    ("experiments: {target_grid: abc}\n", "target_grid"),
])
def test_malformed_values_rejected_by_key(text, key):
    with pytest.raises(ConfigError, match=rf"^{key} (must|repeats)"):
        parse_config(text)


def test_weights_length_validated():
    with pytest.raises(ConfigError, match="weights"):
        parse_config("random_field:\n  weights: [1, 1, 1]\n")


def test_partial_blocks_merge_with_defaults():
    config = parse_config("geometry:\n  delta_f: 0.0\nrandom_field:\n  seed: 7\n")
    assert config.geometry.delta_f == 0.0
    assert config.geometry.n_tx == 8
    assert config.random_field.seed == 7
    assert config.random_field.corr_length == 0.15


def test_malformed_yaml_is_a_config_error():
    with pytest.raises(ConfigError, match="malformed"):
        parse_config("geometry: [unclosed\n")


def test_unsigned_exponent_literals_coerce():
    # YAML 1.1 reads 1.0e8 (no exponent sign) as a string; numeric config
    # fields coerce it anyway.
    config = parse_config("geometry:\n  f0: 1.0e8\n  delta_f: 2.0e7\n")
    assert config.geometry.f0 == 1e8
    assert config.geometry.delta_f == 2e7


def test_non_numeric_values_rejected():
    with pytest.raises(ConfigError, match="must be a number"):
        parse_config("geometry:\n  f0: fast\n")
    with pytest.raises(ConfigError, match="must be an integer"):
        parse_config("geometry:\n  n_tx: 2.5\n")
    with pytest.raises(ConfigError, match="weights must be numbers"):
        parse_config("random_field:\n  weights: [1, 1, heavy, 1, 1]\n")


@pytest.mark.parametrize("text, key", [
    ("experiments: {kappa_grid: [.nan]}\n", "kappa_grid"),
    ("experiments: {snr_grid_db: [0, -.inf]}\n", "snr_grid_db"),
    ("experiments: {amplitude_grid: [1e400]}\n", "amplitude_grid"),
    ("experiments: {target_grid: [[0, 0, .inf]]}\n", "target_grid[0]"),
    ("experiments: {validity_threshold: .nan}\n", "validity_threshold"),
    ("random_field: {weights: [1, 1, .nan, 1, 1]}\n", "weights"),
    ("random_field: {corr_length: .inf}\n", "corr_length"),
    ("random_field: {sample_count: .nan}\n", "sample_count"),
    ("geometry: {f0: 1e400}\n", "f0"),
    ("geometry: {n_x: .inf}\n", "n_x"),
])
def test_non_finite_numbers_rejected_by_key(text, key):
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be finite"):
        parse_config(text)


def test_empty_document_gives_defaults():
    assert parse_config("") == ExperimentConfig()


def test_hash_tracks_content():
    base = ExperimentConfig()
    assert config_hash(base) == config_hash(ExperimentConfig())
    changed = base.replace(scenarios=("S1",))
    assert config_hash(changed) != config_hash(base)


def test_defaults_match_common_settings_table():
    config = ExperimentConfig()
    assert config.random_field.corr_length == 0.15
    assert config.random_field.rho_c == 0.3
    assert config.random_field.weights == (1.0,) * 5
    assert config.random_field.sample_count == 2000
    assert config.random_field.seed == 20260405
    assert config.experiments.amplitude_grid == (0.0625, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0)
    assert config.geometry.f0 == 100e6
    assert config.geometry.delta_f == 20e6


def test_config_from_dict_type_check():
    with pytest.raises(ConfigError):
        config_from_dict([1, 2])
