"""Experiment configuration: YAML blocks, strict parsing, round-trip."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import io

import yaml

from ..errors import ConfigError
from ..montecarlo import DEFAULT_AMPLITUDE_GRID
from ..randfield import SPATIAL_KERNELS
from ..scene import GeometryConfig, coerce_fields, config_from_mapping, scenario_registry

DEFAULT_SEED = 20260405

WEIGHT_PRESETS = ("uniform", "permittivity", "relaxation", "conductivity")


@dataclasses.dataclass(frozen=True)
class RandomFieldConfig:
    corr_length: float = 0.15
    rho_c: float = 0.3
    weights: tuple[float, ...] = (1.0, 1.0, 1.0, 1.0, 1.0)
    amplitude: float = 1.0
    sample_count: int = 2000
    seed: int = DEFAULT_SEED
    kernel: str = "squared_exponential"

    def __post_init__(self):
        coerce_fields(self)
        if len(self.weights) != 5:
            raise ConfigError(f"weights must have 5 entries, got {self.weights!r}")
        if self.sample_count < 1:
            raise ConfigError(f"sample count must be >= 1, got {self.sample_count!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed!r}")
        if self.kernel not in SPATIAL_KERNELS:
            raise ConfigError(f"kernel must be one of {SPATIAL_KERNELS}, got {self.kernel!r}")


@dataclasses.dataclass(frozen=True)
class ExperimentSettings:
    """Per-experiment grids and probes."""

    amplitude_grid: tuple[float, ...] = DEFAULT_AMPLITUDE_GRID
    validity_sample_count: int = 200
    validity_threshold: float = 0.05
    delta_f_grid: tuple[float, ...] = (0.0, 20e6, 40e6)
    corr_length_grid: tuple[float, ...] = (0.05, 0.10, 0.20, 0.40)
    rho_c_grid: tuple[float, ...] = (0.0, 0.3, 0.6, 0.9)
    weight_presets: tuple[str, ...] = WEIGHT_PRESETS
    kappa_grid: tuple[float, ...] = (0.25, 1.0, 4.0)
    snr_grid_db: tuple[float, ...] = (0.0, 20.0)
    target: tuple[float, float, float] = (0.0, 0.0, 0.2625)
    target_grid: tuple[tuple[float, float, float], ...] = (
        (-0.4, 0.0, 0.2625),
        (-0.2, 0.0, 0.2625),
        (0.0, 0.0, 0.2625),
        (0.2, 0.0, 0.2625),
        (0.4, 0.0, 0.2625),
    )
    lx_scan_scenario: str = "S2"
    coupling_scenario: str = "S_balance"
    boundary_scenarios: tuple[str, ...] = ("S2", "S4")
    kernel_diff_scenarios: tuple[str, ...] = ("S1", "S2", "S3")

    def __post_init__(self):
        coerce_fields(self)
        if self.validity_sample_count < 1:
            raise ConfigError(f"validity_sample_count must be >= 1, "
                              f"got {self.validity_sample_count!r}")
        if self.validity_threshold <= 0.0:
            raise ConfigError(
                f"validity_threshold must be positive, got {self.validity_threshold!r}")
        unknown = set(self.weight_presets) - set(WEIGHT_PRESETS)
        if unknown:
            raise ConfigError(f"unknown weight presets {sorted(unknown)!r}")


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    scenarios: tuple[str, ...] = ("S1", "S2", "S3", "S4", "S_syn", "S_balance")
    geometry: GeometryConfig = dataclasses.field(default_factory=GeometryConfig)
    random_field: RandomFieldConfig = dataclasses.field(default_factory=RandomFieldConfig)
    experiments: ExperimentSettings = dataclasses.field(default_factory=ExperimentSettings)
    output_dir: str = "results"

    def __post_init__(self):
        coerce_fields(self)
        exp = self.experiments
        registry = scenario_registry()
        for sid in self.scenarios + (exp.lx_scan_scenario, exp.coupling_scenario) \
                + exp.boundary_scenarios + exp.kernel_diff_scenarios:
            if sid not in registry:
                raise ConfigError(f"unknown scenario id {sid!r} in configuration")

    def replace(self, **kwargs) -> "ExperimentConfig":
        return dataclasses.replace(self, **kwargs)

    @functools.cached_property
    def _hash(self) -> str:
        """:func:`config_hash`, emitted once per config object: it is immutable."""
        content = config_to_dict(self)
        content.pop("output_dir")
        text = yaml.safe_dump(content, sort_keys=True, default_flow_style=None)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def config_from_dict(data: dict) -> ExperimentConfig:
    return config_from_mapping(ExperimentConfig, data)


def config_to_dict(config: ExperimentConfig) -> dict:
    def plain(value):
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        if isinstance(value, tuple):
            return [plain(v) for v in value]
        return value

    return plain(dataclasses.asdict(config))


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())


def parse_config(text: str) -> ExperimentConfig:
    try:
        data = yaml.safe_load(io.StringIO(text))
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed configuration: {exc}") from exc
    if data is None:
        data = {}
    return config_from_dict(data)


def dump_config(config: ExperimentConfig) -> str:
    return yaml.safe_dump(config_to_dict(config), sort_keys=True, default_flow_style=None)


def config_hash(config: ExperimentConfig) -> str:
    """Stable digest of the experiment-determining configuration.

    The output directory is excluded: it affects where results land, not
    what they contain.
    """
    return config._hash
