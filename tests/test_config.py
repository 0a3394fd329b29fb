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
    ("random_field: {sample_count: 0}\n", "sample_count"),
    ("random_field: {kernel: matern}\n", "kernel"),
    ("scenarios: S1\n", "scenarios"),
    ("experiments: {weight_presets: uniform}\n", "weight_presets"),
    ("experiments: {boundary_scenarios: S4}\n", "boundary_scenarios"),
    ("experiments: {kernel_diff_scenarios: S1}\n", "kernel_diff_scenarios"),
    ("random_field: {weights: '11111'}\n", "weights"),
    ("experiments: {target: '012'}\n", "target"),
    ("experiments: {kappa_grid: '14'}\n", "kappa_grid"),
    ("experiments: {target_grid: abc}\n", "target_grid"),
    *((f"geometry: {{{key}: 0}}\n", key) for key in ("n_tx", "n_rx", "n_x", "n_z")),
    *((f"geometry: {{{key}: -1}}\n", key) for key in (
        "element_spacing", "dx", "dz", "strip_width", "f0")),
    ("geometry: {delta_f: -1}\n", "delta_f"),
    ("scenarios: [S1, S9]\n", r"scenarios\[1\]"),
    ("experiments: {lx_scan_scenario: S9}\n", "lx_scan_scenario"),
    ("experiments: {coupling_scenario: S9}\n", "coupling_scenario"),
    ("experiments: {boundary_scenarios: [S9]}\n", r"boundary_scenarios\[0\]"),
    ("experiments: {kernel_diff_scenarios: [S1, S9]}\n", r"kernel_diff_scenarios\[1\]"),
    ("experiments: {weight_presets: [uniform, foo]}\n", r"weight_presets\[1\]"),
    ("experiments: {corr_length_grid: [0.1, -0.2]}\n", r"corr_length_grid\[1\]"),
    ("experiments: {amplitude_grid: [1.0, 0.5]}\n", r"amplitude_grid\[1\]"),
    ("experiments: {amplitude_grid: [0.0, 0.5]}\n", r"amplitude_grid\[0\]"),
    ("experiments: {kappa_grid: [0.0]}\n", r"kappa_grid\[0\]"),
    ("experiments: {rho_c_grid: [0.3, 1.5]}\n", r"rho_c_grid\[1\]"),
    ("experiments: {rho_c_grid: [-0.1]}\n", r"rho_c_grid\[0\]"),
    ("experiments: {delta_f_grid: [-1.0e+6]}\n", r"delta_f_grid\[0\]"),
    ("random_field: {corr_length: -0.1}\n", "corr_length"),
    ("random_field: {corr_length: 0}\n", "corr_length"),
    ("random_field: {rho_c: 1.0}\n", "rho_c"),
    ("random_field: {amplitude: -1.0}\n", "amplitude"),
    ("random_field: {weights: [1, 1, 1, -1, 1]}\n", r"weights\[3\]"),
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
    # Every summary records the hash: its bytes must not drift.
    assert config_hash(base) == "ff32d3d94016b87b"
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


#: Every field away from its default; the floats include values whose
#: shortest repr is long or in exponent form, and output_dir needs quoting.
ALL_OFF_DEFAULT = """
scenarios: [S4, S1]
output_dir: "out dir/#1: ü"
geometry: {n_tx: 4, n_rx: 6, element_spacing: 0.0333333333333333, f0: 1.5e8,
           delta_f: 1.0e-3, n_x: 7, n_z: 5, dx: 0.07, dz: 0.031, strip_width: 2.5}
random_field: {corr_length: 0.123456789012345, rho_c: 0.45, weights: [1, 2, 0.5, 1e-3, 3],
               amplitude: 0.75, sample_count: 123, seed: 7, kernel: exponential}
experiments:
  amplitude_grid: [1.0e-5, 0.1]
  validity_sample_count: 17
  validity_threshold: 0.125
  delta_f_grid: [0, 1.0e+9]
  corr_length_grid: [0.3]
  rho_c_grid: [0.1, 0.2]
  weight_presets: [conductivity]
  kappa_grid: [3.0e+20]
  snr_grid_db: [-10.5]
  target: [0.1, 0.0, 0.3]
  target_grid: [[0.1, 0.2, 0.3]]
  lx_scan_scenario: S3
  coupling_scenario: S1
  boundary_scenarios: [S1]
  kernel_diff_scenarios: [S4, S_syn]
"""


def test_libyaml_and_python_dumpers_emit_identical_text(monkeypatch):
    yaml = pytest.importorskip("yaml")
    if not hasattr(yaml, "CSafeDumper"):
        pytest.skip("PyYAML built without libyaml")
    from gprclutter.harness import config as config_module

    default = config_module.config_to_dict(ExperimentConfig())
    blocks = config_module.config_to_dict(parse_config(ALL_OFF_DEFAULT))
    for key, value in blocks.items():
        fields = value.items() if isinstance(value, dict) else [(key, value)]
        for name, field in fields:
            reference = default[key][name] if isinstance(value, dict) else default[key]
            assert field != reference, name
    texts = {}
    for dumper in (yaml.SafeDumper, yaml.CSafeDumper):
        monkeypatch.setattr(config_module, "YAML_DUMPER", dumper)
        config = parse_config(ALL_OFF_DEFAULT)  # a fresh object: the hash is cached per config
        texts[dumper] = (dump_config(config), config_hash(config))
    assert texts[yaml.SafeDumper] == texts[yaml.CSafeDumper]
    assert parse_config(texts[yaml.CSafeDumper][0]) == parse_config(ALL_OFF_DEFAULT)


def test_libyaml_and_python_loaders_read_the_same_configs(monkeypatch):
    yaml = pytest.importorskip("yaml")
    if not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML built without libyaml")
    from test_readme import _block

    # YAML 1.1 reads 1.0e8 (no exponent sign) as a string under both.
    documents = (_block("yaml"), ALL_OFF_DEFAULT, "geometry:\n  f0: 1.0e8\n")
    malformed = "geometry: [unclosed\n"
    for text in documents:
        assert (yaml.load(text, Loader=yaml.CSafeLoader)
                == yaml.load(text, Loader=yaml.SafeLoader))
    assert yaml.load(documents[2], Loader=yaml.CSafeLoader)["geometry"]["f0"] == "1.0e8"
    configs = [parse_config(text) for text in documents]
    with pytest.raises(ConfigError, match="malformed"):
        parse_config(malformed)
    monkeypatch.delattr(yaml, "CSafeLoader")  # parse_config falls back to SafeLoader
    assert [parse_config(text) for text in documents] == configs
    with pytest.raises(ConfigError, match="malformed"):
        parse_config(malformed)
