"""Experiment configuration: YAML blocks, strict parsing, round-trip."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import io

import yaml

from ..errors import ConfigError
from ..randfield import SPATIAL_KERNELS
from ..scene import (
    GeometryConfig,
    coerce_float,
    coerce_floats,
    coerce_int,
    coerce_list,
    scenario_registry,
)

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
        for name in ("corr_length", "rho_c", "amplitude"):
            object.__setattr__(self, name, coerce_float(getattr(self, name), name))
        for name in ("sample_count", "seed"):
            object.__setattr__(self, name, coerce_int(getattr(self, name), name))
        object.__setattr__(self, "weights", coerce_floats(self.weights, "weights"))
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

    amplitude_grid: tuple[float, ...] = (0.0625, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0)
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
        for name in ("amplitude_grid", "delta_f_grid", "corr_length_grid",
                     "rho_c_grid", "kappa_grid", "snr_grid_db"):
            object.__setattr__(self, name, coerce_floats(getattr(self, name), name))
        object.__setattr__(self, "target", _point(self.target, "target"))
        try:
            targets = coerce_list(self.target_grid, "target_grid")
        except TypeError:
            raise ConfigError(f"target_grid must be a list, got {self.target_grid!r}") from None
        object.__setattr__(self, "target_grid", tuple(
            _point(t, f"target_grid[{i}]") for i, t in enumerate(targets)))
        object.__setattr__(self, "validity_sample_count",
                           coerce_int(self.validity_sample_count, "validity_sample_count"))
        if self.validity_sample_count < 1:
            raise ConfigError(f"validity_sample_count must be >= 1, "
                              f"got {self.validity_sample_count!r}")
        object.__setattr__(self, "validity_threshold",
                           coerce_float(self.validity_threshold, "validity_threshold"))
        if self.validity_threshold <= 0.0:
            raise ConfigError(
                f"validity_threshold must be positive, got {self.validity_threshold!r}")
        for name in ("weight_presets", "boundary_scenarios", "kernel_diff_scenarios"):
            object.__setattr__(self, name, coerce_list(getattr(self, name), name))
        unknown = set(self.weight_presets) - set(WEIGHT_PRESETS)
        if unknown:
            raise ConfigError(f"unknown weight presets {sorted(unknown)!r}")


def _point(value, name: str) -> tuple[float, float, float]:
    """A target (x, y, z): exactly 3 numbers, with the depth z positive."""
    point = coerce_floats(value, name)
    if len(point) != 3 or point[2] <= 0.0:
        raise ConfigError(f"{name} must be 3 numbers (x, y, depth) with a positive depth, "
                          f"got {value!r}")
    return point


#: The list fields of ExperimentSettings: each runs once per entry, so an
#: empty one would write an empty table.
_SETTINGS_LISTS = ("amplitude_grid", "delta_f_grid", "corr_length_grid", "rho_c_grid",
                   "weight_presets", "kappa_grid", "snr_grid_db", "target_grid",
                   "boundary_scenarios", "kernel_diff_scenarios")


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    scenarios: tuple[str, ...] = ("S1", "S2", "S3", "S4", "S_syn", "S_balance")
    geometry: GeometryConfig = dataclasses.field(default_factory=GeometryConfig)
    random_field: RandomFieldConfig = dataclasses.field(default_factory=RandomFieldConfig)
    experiments: ExperimentSettings = dataclasses.field(default_factory=ExperimentSettings)
    output_dir: str = "results"

    def __post_init__(self):
        object.__setattr__(self, "scenarios", coerce_list(self.scenarios, "scenarios"))
        lists = {"scenarios": self.scenarios}
        lists.update((name, getattr(self.experiments, name)) for name in _SETTINGS_LISTS)
        for name, values in lists.items():
            if not values:
                raise ConfigError(f"{name} must hold at least one entry")
            if name.endswith("scenarios") and len(set(values)) < len(values):
                raise ConfigError(f"{name} repeats a scenario id: {list(values)!r}")
        registry = scenario_registry()
        for sid in tuple(self.scenarios) + (self.experiments.lx_scan_scenario,
                                            self.experiments.coupling_scenario) \
                + self.experiments.boundary_scenarios \
                + self.experiments.kernel_diff_scenarios:
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


_BLOCK_TYPES = {
    "geometry": GeometryConfig,
    "random_field": RandomFieldConfig,
    "experiments": ExperimentSettings,
}


def _build_block(cls, data: dict, context: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{context} block must be a mapping, got {type(data).__name__}")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown keys in {context} block: {sorted(unknown)}")
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigError(f"bad {context} block: {exc}") from exc


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"configuration must be a mapping, got {type(data).__name__}")
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    kwargs = {}
    for key, value in data.items():
        if key in _BLOCK_TYPES:
            kwargs[key] = _build_block(_BLOCK_TYPES[key], value, key)
        else:
            kwargs[key] = value
    return ExperimentConfig(**kwargs)


def config_to_dict(config: ExperimentConfig) -> dict:
    def plain(value):
        if isinstance(value, tuple):
            return [plain(v) for v in value]
        return value

    out = {
        "scenarios": list(config.scenarios),
        "output_dir": config.output_dir,
    }
    for block in ("geometry", "random_field", "experiments"):
        fields = dataclasses.asdict(getattr(config, block))
        out[block] = {k: plain(v) for k, v in fields.items()}
    return out


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
