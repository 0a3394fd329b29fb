"""Experiment configuration: YAML blocks, strict parsing, round-trip."""

from __future__ import annotations

import dataclasses
import functools
import io

import yaml

from ..errors import ConfigError
from ..montecarlo import (
    DEFAULT_AMPLITUDE_GRID,
    DEFAULT_VALIDITY_SAMPLE_COUNT,
    DEFAULT_VALIDITY_THRESHOLD,
)
from ..randfield import SPATIAL_KERNELS
from ..scene import (
    GeometryConfig,
    coerce_fields,
    config_from_mapping,
    scenario_registry,
    short_digest,
)

DEFAULT_SEED = 20260405

#: libyaml's emitter where PyYAML was built with it: the same text as the
#: pure-Python SafeDumper, about four times faster.
YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

#: Channel-weight presets of the coupling scan: each name doubles the weight
#: of one parameter channel (by index), "uniform" none.
WEIGHT_PRESETS = {"uniform": None, "permittivity": 0, "relaxation": 2, "conductivity": 4}


def _check_each(key: str, values: tuple[float, ...], ok, rule: str) -> None:
    """A ConfigError naming ``key[i]`` for the first value that is not ``ok``."""
    for i, value in enumerate(values):
        if not ok(value):
            raise ConfigError(f"{key}[{i}] must {rule}, got {value!r}")


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
            raise ConfigError(f"sample_count must be >= 1, got {self.sample_count!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed!r}")
        if self.kernel not in SPATIAL_KERNELS:
            raise ConfigError(f"kernel must be one of {SPATIAL_KERNELS}, got {self.kernel!r}")
        if self.corr_length <= 0.0:
            raise ConfigError(f"corr_length must be positive, got {self.corr_length!r}")
        if not 0.0 <= self.rho_c < 1.0:
            raise ConfigError(f"rho_c must lie in [0, 1), got {self.rho_c!r}")
        if self.amplitude < 0.0:
            raise ConfigError(f"amplitude must be nonnegative, got {self.amplitude!r}")
        _check_each("weights", self.weights, lambda w: w >= 0.0, "be nonnegative")


@dataclasses.dataclass(frozen=True)
class ExperimentSettings:
    """Per-experiment grids and probes."""

    amplitude_grid: tuple[float, ...] = DEFAULT_AMPLITUDE_GRID
    validity_sample_count: int = DEFAULT_VALIDITY_SAMPLE_COUNT
    validity_threshold: float = DEFAULT_VALIDITY_THRESHOLD
    delta_f_grid: tuple[float, ...] = (0.0, 20e6, 40e6)
    corr_length_grid: tuple[float, ...] = (0.05, 0.10, 0.20, 0.40)
    rho_c_grid: tuple[float, ...] = (0.0, 0.3, 0.6, 0.9)
    weight_presets: tuple[str, ...] = tuple(WEIGHT_PRESETS)
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
        for i, preset in enumerate(self.weight_presets):
            if preset not in WEIGHT_PRESETS:
                raise ConfigError(f"weight_presets[{i}] must be one of "
                                  f"{tuple(WEIGHT_PRESETS)}, got {preset!r}")
        _check_each("amplitude_grid", self.amplitude_grid, lambda s: s > 0.0, "be positive")
        for i in range(1, len(self.amplitude_grid)):
            if self.amplitude_grid[i] < self.amplitude_grid[i - 1]:
                raise ConfigError(f"amplitude_grid[{i}] must not be below amplitude_grid[{i - 1}]"
                                  f" (ascending), got {self.amplitude_grid[i]!r}")
        _check_each("delta_f_grid", self.delta_f_grid, lambda f: f >= 0.0, "be nonnegative")
        _check_each("corr_length_grid", self.corr_length_grid, lambda x: x > 0.0, "be positive")
        _check_each("rho_c_grid", self.rho_c_grid, lambda r: 0.0 <= r < 1.0, "lie in [0, 1)")
        _check_each("kappa_grid", self.kappa_grid, lambda k: k > 0.0, "be positive")


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
        ids = [(f"scenarios[{i}]", sid) for i, sid in enumerate(self.scenarios)]
        ids += [("lx_scan_scenario", exp.lx_scan_scenario),
                ("coupling_scenario", exp.coupling_scenario)]
        for key in ("boundary_scenarios", "kernel_diff_scenarios"):
            ids += [(f"{key}[{i}]", sid) for i, sid in enumerate(getattr(exp, key))]
        registry = scenario_registry()
        for name, sid in ids:
            if sid not in registry:
                raise ConfigError(f"{name} must be a known scenario id, got {sid!r}")

    def replace(self, **kwargs) -> "ExperimentConfig":
        return dataclasses.replace(self, **kwargs)

    @functools.cached_property
    def _hash(self) -> str:
        """:func:`config_hash`, emitted once per config object: it is immutable."""
        content = config_to_dict(self)
        content.pop("output_dir")
        text = _dump(content)
        return short_digest(text.encode())


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
        # libyaml's loader where PyYAML was built with it, as YAML_DUMPER.
        data = yaml.load(io.StringIO(text), Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed configuration: {exc}") from exc
    if data is None:
        data = {}
    return config_from_dict(data)


def dump_config(config: ExperimentConfig) -> str:
    return _dump(config_to_dict(config))


def _dump(content: dict) -> str:
    return yaml.dump(content, Dumper=YAML_DUMPER, sort_keys=True, default_flow_style=None)


def config_hash(config: ExperimentConfig) -> str:
    """Stable digest of the experiment-determining configuration.

    The output directory is excluded: it affects where results land, not
    what they contain.
    """
    return config._hash
