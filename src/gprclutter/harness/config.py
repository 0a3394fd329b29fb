"""Experiment configuration: YAML blocks, strict parsing, round-trip."""

from __future__ import annotations

import dataclasses
import hashlib
import io

import yaml

from ..errors import ConfigError
from ..scene import GeometryConfig, coerce_float, coerce_int, scenario_registry

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
        try:
            weights = tuple(float(w) for w in self.weights)
        except (TypeError, ValueError):
            raise ConfigError(f"weights must be numbers, got {self.weights!r}") from None
        object.__setattr__(self, "weights", weights)
        if len(self.weights) != 5:
            raise ConfigError(f"weights must have 5 entries, got {self.weights!r}")
        if self.sample_count < 1:
            raise ConfigError(f"sample count must be >= 1, got {self.sample_count!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed!r}")


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
        try:
            for name in ("amplitude_grid", "delta_f_grid", "corr_length_grid",
                         "rho_c_grid", "kappa_grid", "snr_grid_db"):
                object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
            object.__setattr__(self, "target", tuple(float(v) for v in self.target))
            object.__setattr__(
                self, "target_grid",
                tuple(tuple(float(v) for v in t) for t in self.target_grid),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"non-numeric experiment grid entry: {exc}") from None
        object.__setattr__(self, "validity_sample_count",
                           coerce_int(self.validity_sample_count, "validity_sample_count"))
        object.__setattr__(self, "validity_threshold",
                           coerce_float(self.validity_threshold, "validity_threshold"))
        object.__setattr__(self, "weight_presets", tuple(self.weight_presets))
        object.__setattr__(self, "boundary_scenarios", tuple(self.boundary_scenarios))
        object.__setattr__(self, "kernel_diff_scenarios", tuple(self.kernel_diff_scenarios))
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
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        registry = scenario_registry()
        for sid in tuple(self.scenarios) + (self.experiments.lx_scan_scenario,
                                            self.experiments.coupling_scenario) \
                + self.experiments.boundary_scenarios \
                + self.experiments.kernel_diff_scenarios:
            if sid not in registry:
                raise ConfigError(f"unknown scenario id {sid!r} in configuration")

    def replace(self, **kwargs) -> "ExperimentConfig":
        return dataclasses.replace(self, **kwargs)


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


def save_config(config: ExperimentConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dump_config(config))


def config_hash(config: ExperimentConfig) -> str:
    """Stable digest of the experiment-determining configuration.

    The output directory is excluded: it affects where results land, not
    what they contain.
    """
    content = config_to_dict(config)
    content.pop("output_dir")
    text = yaml.safe_dump(content, sort_keys=True, default_flow_style=None)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
