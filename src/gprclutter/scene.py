"""Scenario registry, array/FDA geometry, and perturbation scaling.

Coordinates are (x, y, z) in meters with z the depth axis: array elements
sit on the surface line z = 0, grid cells strictly below it. The 2.5-D
convention enters only through the strip width, which multiplies the cell
cross-section to give the integration volume per cell.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing

import numpy as np

from .constitutive import ColeColeParams
from .errors import ConfigError, NearSingularityError

# CPython's built-in SHA-256 gives hashlib's bytes without loading OpenSSL,
# as the standard library's ``random`` does for SHA-512.
try:
    from _sha2 import sha256 as _sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # CPython 3.10-3.11
    except ImportError:  # an interpreter built without the built-in hashes
        from hashlib import sha256 as _sha256

#: Default relative perturbation scale per Cole-Cole parameter channel.
SCALE_RELATIVE_RATE = 0.005

#: Absolute floors for the perturbation scales of eps_inf, delta_eps and
#: sigma; tau always scales relatively, alpha uses a fixed absolute scale
#: (it is dimensionless and drives most of the constitutive curvature).
SCALE_FLOOR_EPS_INF = 0.005
SCALE_FLOOR_DELTA_EPS = 0.005
SCALE_ALPHA = 0.001
SCALE_FLOOR_SIGMA = 5e-7

#: Kernel evaluations closer than this to the source are refused.
MIN_SEPARATION = 1e-6


def default_perturbation_scales(background: ColeColeParams) -> np.ndarray:
    """Diagonal of the standardized perturbation scaling for one background.

    One unit of standardized perturbation in channel q corresponds to a
    physical perturbation of d_q in that parameter. The defaults keep the
    full amplitude scan inside the weak-fluctuation regime for every
    registry scenario (worst 95th-percentile linearization error stays
    well below the 0.05 admissibility threshold).
    """
    return np.array([
        max(SCALE_RELATIVE_RATE * abs(background.eps_inf), SCALE_FLOOR_EPS_INF),
        max(SCALE_RELATIVE_RATE * abs(background.delta_eps), SCALE_FLOOR_DELTA_EPS),
        SCALE_RELATIVE_RATE * background.tau,
        SCALE_ALPHA,
        max(SCALE_RELATIVE_RATE * abs(background.sigma), SCALE_FLOOR_SIGMA),
    ])


@dataclasses.dataclass(frozen=True, eq=False)
class Scenario:
    """A named background medium plus its perturbation scaling diagonal."""

    id: str
    label: str
    background: ColeColeParams
    d_mu: np.ndarray

    def __post_init__(self):
        d_mu = np.asarray(self.d_mu, dtype=float)
        if d_mu.shape != (5,) or not np.all(d_mu > 0.0):
            raise ConfigError(f"d_mu must be 5 positive scales, got {d_mu!r}")
        d_mu = d_mu.copy()
        d_mu.flags.writeable = False
        object.__setattr__(self, "d_mu", d_mu)
        self.background.validate_background()


def _scenario(id_: str, label: str, *values: float) -> Scenario:
    background = ColeColeParams(*values)
    return Scenario(id=id_, label=label, background=background,
                    d_mu=default_perturbation_scales(background))


_SCENARIOS = {s.id: s for s in (
    _scenario("S1", "Lunar regolith", 3.0285, 0.0, 1e-12, 0.0, 1e-5),
    _scenario("S2", "Dry basalt/lava", 9.0, 0.0, 1e-12, 0.0, 1e-5),
    _scenario("S3", "Pure ice", 3.16, 88.34, 2.1e-5, 0.0, 1e-5),
    _scenario("S4", "Moist sandy-loam soil", 21.60, 30.49, 3.60e-8, 0.45, 1.95e-2),
    _scenario("S_syn", "Synthetic reference", 4.0, 2.0, 1.0610e-9, 0.25, 5e-3),
    _scenario("S_balance", "Balanced synthetic case",
              5.43374, 0.110543, 6.12549e-6, 0.49, 6.89221e-5),
)}


def scenario_registry() -> dict[str, Scenario]:
    """The six named background scenarios, built once, in a new dict keyed by id."""
    return dict(_SCENARIOS)


def get_scenario(scenario_id: str) -> Scenario:
    try:
        return _SCENARIOS[scenario_id]
    except KeyError:
        known = ", ".join(_SCENARIOS)
        raise ConfigError(f"unknown scenario {scenario_id!r} (known: {known})") from None


def coerce_float(value, name: str) -> float:
    """Parse a finite numeric config value; YAML 1.1 reads 1.0e8 as a string.

    NaN and infinities, including a literal such as 1e400 that overflows,
    are a ConfigError naming the key, and so is a boolean.
    """
    try:
        number = _number(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return number


def _number(value) -> float:
    """float(value) of a number; YAML reads ``true`` as a boolean, and float(True) is 1.0."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError("a boolean is not a number")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range, as YAML reads 1e400
        return math.inf if value > 0 else -math.inf


def coerce_list(values, name: str) -> tuple:
    """A non-empty list config value; a bare string would otherwise split into its characters."""
    if isinstance(values, (str, dict)) or not np.iterable(values):
        raise ConfigError(f"{name} must be a list, got {values!r}")
    items = tuple(values)
    if not items:
        raise ConfigError(f"{name} must hold at least one entry")
    return items


def coerce_floats(values, name: str) -> tuple[float, ...]:
    """Parse a sequence of finite numeric config values, naming the key."""
    try:
        numbers = tuple(_number(v) for v in coerce_list(values, name))
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be numbers, got {values!r}") from None
    if not all(math.isfinite(v) for v in numbers):
        raise ConfigError(f"{name} must be finite, got {values!r}")
    return numbers


def coerce_int(value, name: str) -> int:
    """Parse an integral config value: a number, or a string such as "1e3" or "12".

    A string of digits, as ``--seed`` gives, is taken exactly, beyond float precision.
    """
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    number = coerce_float(value, name)
    if number != int(number):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value) if isinstance(value, (int, np.integer)) else int(number)  # integers as given


def coerce_str(value, name: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


def coerce_strs(values, name: str) -> tuple[str, ...]:
    """A list of names, each given once: a repeated one would run twice."""
    names = tuple(coerce_str(v, f"{name}[{i}]") for i, v in enumerate(coerce_list(values, name)))
    if len(set(names)) < len(names):
        raise ConfigError(f"{name} repeats an entry: {list(names)!r}")
    return names


def coerce_point(value, name: str) -> tuple[float, float, float]:
    """A target (x, y, z): exactly 3 numbers, with the depth z positive."""
    point = coerce_floats(value, name)
    if len(point) != 3 or point[2] <= 0.0:
        raise ConfigError(f"{name} must be 3 numbers (x, y, depth) with a positive depth, "
                          f"got {value!r}")
    return point


def coerce_points(values, name: str) -> tuple[tuple[float, float, float], ...]:
    return tuple(coerce_point(v, f"{name}[{i}]") for i, v in enumerate(coerce_list(values, name)))


#: The parser of each config field type. A field of another type must be a
#: config block: a config dataclass, given as one or as its mapping.
_FIELD_PARSERS = {
    int: coerce_int,
    float: coerce_float,
    str: coerce_str,
    tuple[float, ...]: coerce_floats,
    tuple[str, ...]: coerce_strs,
    tuple[float, float, float]: coerce_point,
    tuple[tuple[float, float, float], ...]: coerce_points,
}


#: The resolved field types of a config class, looked up once per class.
_field_types = functools.cache(typing.get_type_hints)


def coerce_fields(config) -> None:
    """Parse every field of a frozen config dataclass in place, by its declared type.

    A type with neither a parser nor a config block is a TypeError: no field goes unparsed.
    """
    types = _field_types(type(config))
    for field in dataclasses.fields(config):
        kind, value = types[field.name], getattr(config, field.name)
        if kind in _FIELD_PARSERS:
            value = _FIELD_PARSERS[kind](value, field.name)
        elif not dataclasses.is_dataclass(kind):
            raise TypeError(f"{type(config).__name__}.{field.name}: no config parser for {kind!r}")
        elif not isinstance(value, kind):
            value = config_from_mapping(kind, value, field.name)
        object.__setattr__(config, field.name, value)


def config_from_mapping(cls, data, name: str | None = None):
    """Config class ``cls`` from a mapping of its fields; ``name`` is its block's key."""
    what = f"{name} block" if name else "configuration"
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be a mapping, got {type(data).__name__}")
    unknown = sorted(set(data) - {f.name for f in dataclasses.fields(cls)}, key=str)
    if unknown:
        where = f"keys in {what}" if name else "top-level keys"
        raise ConfigError(f"unknown {where}: {unknown}")
    return cls(**data)


@dataclasses.dataclass(frozen=True)
class GeometryConfig:
    """Knobs defining the array line, FDA ladder, and image grid."""

    n_tx: int = 8
    n_rx: int = 8
    f0: float = 100e6
    delta_f: float = 20e6
    element_spacing: float = 0.05
    n_x: int = 25
    n_z: int = 21
    dx: float = 0.05
    dz: float = 0.025
    strip_width: float = 1.0

    def __post_init__(self):
        coerce_fields(self)
        for key in ("n_tx", "n_rx", "n_x", "n_z"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be at least 1, got {getattr(self, key)!r}")
        for key in ("element_spacing", "dx", "dz", "strip_width", "f0"):
            if getattr(self, key) <= 0.0:
                raise ConfigError(f"{key} must be positive, got {getattr(self, key)!r}")
        if self.delta_f < 0.0:
            raise ConfigError(f"delta_f must be nonnegative, got {self.delta_f!r}")


def short_digest(*parts: bytes) -> str:
    """The package's content digest: SHA-256 of the concatenated parts, 16 hex chars."""
    digest = _sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()[:16]


@dataclasses.dataclass(frozen=True, eq=False)
class SceneGeometry:
    """Element positions, transmit frequencies, and the discretized grid.

    Row p of ``cell_centers`` is cell (ix, iz) with p = ix * n_z + iz; the
    x axis is the fast outer index. ``cell_volume`` is dx * dz * strip
    width, identical for all cells.
    """

    tx_positions: np.ndarray
    rx_positions: np.ndarray
    frequencies: np.ndarray
    cell_centers: np.ndarray
    cell_volume: float
    grid_dims: tuple[int, int]

    def __post_init__(self):
        for name in ("tx_positions", "rx_positions", "frequencies", "cell_centers"):
            value = np.asarray(getattr(self, name), dtype=float).copy()
            if not np.all(np.isfinite(value)):
                at = np.unravel_index(int(np.argmin(np.isfinite(value))), value.shape)
                raise ConfigError(f"{name} must be finite, got {float(value[at])!r} "
                                  f"at index {tuple(int(i) for i in at)}")
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        n_x, n_z = self.grid_dims
        if self.cell_centers.shape != (n_x * n_z, 3):
            raise ConfigError(
                f"cell count {self.cell_centers.shape} inconsistent with grid dims {self.grid_dims}"
            )
        if not 0.0 < self.cell_volume < math.inf:
            raise ConfigError(f"cell volume must be positive and finite, got {self.cell_volume!r}")
        if np.any(self.frequencies <= 0.0):
            n = int(np.argmax(self.frequencies <= 0.0))
            raise ConfigError(f"frequencies must be positive, got {float(self.frequencies[n])!r} "
                              f"at index {n}")
        if np.any(self.cell_centers[:, 2] <= 0.0):
            raise ConfigError("all cells must lie strictly below the surface")
        if np.any(self.tx_positions[:, 2] != 0.0) or np.any(self.rx_positions[:, 2] != 0.0):
            raise ConfigError("array elements must lie on the surface line z = 0")
        df = np.diff(self.frequencies)
        if df.size and df.max() > 0 and np.any(df <= 0):
            raise ConfigError("frequencies must be strictly increasing when delta_f > 0")

    @property
    def n_tx(self) -> int:
        return len(self.tx_positions)

    @property
    def n_rx(self) -> int:
        return len(self.rx_positions)

    @property
    def n_cells(self) -> int:
        return len(self.cell_centers)

    def fingerprint(self) -> str:
        return self._fingerprint

    def cell_distances(self) -> DistanceTable:
        """The antenna-cell :func:`distance_table`, computed once per geometry."""
        return self._cell_distances

    @functools.cached_property
    def _cell_distances(self) -> DistanceTable:
        return distance_table(self, self.cell_centers)

    @functools.cached_property
    def _fingerprint(self) -> str:
        # The arrays are read-only copies, so the digest never goes stale.
        arrays = (self.tx_positions, self.rx_positions, self.frequencies, self.cell_centers)
        return short_digest(*(np.ascontiguousarray(arr).tobytes() for arr in arrays),
                            np.float64(self.cell_volume).tobytes(),
                            repr(self.grid_dims).encode())


@dataclasses.dataclass(frozen=True, eq=False)
class DistanceTable:
    """Antenna-point distances as their distinct values and gather indices.

    ``distances[rx_index[m, q]]`` is the distance from receiver m to point q
    and ``distances[tx_index[n, q]]`` the one from transmitter n;
    ``distances`` is ascending. The arrays are read-only.
    """

    distances: np.ndarray
    rx_index: np.ndarray
    tx_index: np.ndarray

    def __post_init__(self):
        for name in ("distances", "rx_index", "tx_index"):
            getattr(self, name).flags.writeable = False


def distance_table(geometry: SceneGeometry, points: np.ndarray) -> DistanceTable:
    """The distances from every antenna of ``geometry`` to each of ``points`` (Q x 3).

    A regular array over a regular grid repeats distances: at 8 x 8
    elements over 48 x 36 cells the 27,648 antenna-cell distances take
    2,435 values. Functions of the distance alone are evaluated once per
    distinct value and gathered through the int32 indices. A distance
    below ``MIN_SEPARATION`` is a NearSingularityError naming the pair.
    """
    distances = []
    for antennas in (geometry.rx_positions, geometry.tx_positions):
        diff = antennas[:, None, :] - points[None, :, :]
        r = np.sqrt(np.sum(diff * diff, axis=-1))
        if np.any(r < MIN_SEPARATION):
            ia, ib = np.unravel_index(int(np.argmin(r)), r.shape)
            raise NearSingularityError(
                f"separation {float(r[ia, ib])!r} m between antenna {ia} and point {ib} "
                f"below the {MIN_SEPARATION} m kernel minimum"
            )
        distances.append(r)
    r_rx, r_tx = distances
    r, index = np.unique(np.concatenate((r_rx.ravel(), r_tx.ravel())), return_inverse=True)
    index = index.astype(np.int32)
    return DistanceTable(
        distances=r,
        rx_index=index[:r_rx.size].reshape(r_rx.shape),
        tx_index=index[r_rx.size:].reshape(r_tx.shape),
    )


def build_default_geometry(config: GeometryConfig | None = None) -> SceneGeometry:
    """Construct the surface array and subsurface grid from a config.

    Transmit elements are centered over the grid with the configured
    spacing; receive elements are the same line shifted by half a spacing,
    interleaving the two arrays. Grid cell centers start half a cell below
    the surface.
    """
    cfg = config or GeometryConfig()
    tx_x = (np.arange(cfg.n_tx) - (cfg.n_tx - 1) / 2.0) * cfg.element_spacing
    rx_x = (np.arange(cfg.n_rx) - (cfg.n_rx - 1) / 2.0) * cfg.element_spacing \
        + cfg.element_spacing / 2.0
    tx = np.column_stack([tx_x, np.zeros(cfg.n_tx), np.zeros(cfg.n_tx)])
    rx = np.column_stack([rx_x, np.zeros(cfg.n_rx), np.zeros(cfg.n_rx)])

    frequencies = cfg.f0 + cfg.delta_f * np.arange(cfg.n_tx)

    xs = (np.arange(cfg.n_x) - (cfg.n_x - 1) / 2.0) * cfg.dx
    zs = cfg.dz / 2.0 + np.arange(cfg.n_z) * cfg.dz
    grid_x, grid_z = np.meshgrid(xs, zs, indexing="ij")
    cells = np.column_stack([
        grid_x.ravel(), np.zeros(cfg.n_x * cfg.n_z), grid_z.ravel(),
    ])

    return SceneGeometry(
        tx_positions=tx,
        rx_positions=rx,
        frequencies=frequencies,
        cell_centers=cells,
        cell_volume=cfg.dx * cfg.dz * cfg.strip_width,
        grid_dims=(cfg.n_x, cfg.n_z),
    )
