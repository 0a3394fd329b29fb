"""Experiment implementations behind the CLI subcommands.

Each ``run_*`` function consumes an :class:`ExperimentConfig` and returns an
:class:`ExperimentResult` holding a metric table, optional per-scenario
report objects, and per-scenario errors. A failing scenario never aborts
the batch; its error lands in the result and the remaining scenarios run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math

import numpy as np

from .. import __version__
from ..constitutive import (
    ColeColeParams,
    finite_difference_check,
    PARAMETER_NAMES,
    sensitivity_components,
)
from ..errors import GprClutterError, InvariantError
from ..forward import (
    assemble_forward,
    background_wavenumber,
    block_discrepancy,
    check_kernels,
    discrepancy_ratio,
    steering_vector,
    transmit_kernels,
)
from ..montecarlo import closure_from_covariances, shared_closure_covariances, validity_scan
from ..randfield import build_covariance, build_param_factor
from ..scene import (
    GeometryConfig,
    Scenario,
    SceneGeometry,
    build_default_geometry,
    default_perturbation_scales,
    get_scenario,
)
from ..spectra import (
    ClutterCovariance,
    SpectralSummary,
    add_noise_floor,
    clutter_covariance,
    kernel_gram,
    scale_covariance,
    spectral_summary,
    target_overlap,
    weighted_gram,
)
from .config import (
    DEFAULT_SEED,
    WEIGHT_PRESETS,
    ExperimentConfig,
    RandomFieldConfig,
    config_hash,
)

#: Derivative validation passes below this maximum relative error.
DERIVATIVE_THRESHOLD = 1e-5

#: Geometries one process keeps: scan-fda's delta_f grid plus the configured one.
GEOMETRY_MEMO_SIZE = 8

#: Baselines one process keeps: one per scenario of a configuration, about
#: 130 KB each at the default 8 x 8 array.
BASELINE_MEMO_SIZE = 8

METRIC_COLUMNS = ("r_eff", "p_0.9", "p_0.95", "eta_0.9", "gamma_0.9", "trace")


class MetricTable:
    """Ordered rows of named experiment metrics with provenance."""

    def __init__(self, name: str, columns: tuple[str, ...], provenance: dict):
        self.name = name
        self.columns = tuple(columns)
        self.provenance = dict(provenance)
        self.rows: list[dict] = []

    def add_row(self, **values) -> None:
        unknown = set(values) - set(self.columns)
        if unknown:
            raise ValueError(f"row keys {sorted(unknown)} not in table columns")
        row = {c: values.get(c) for c in self.columns}
        self._check_row(row)
        self.rows.append(row)

    @staticmethod
    def _check_row(row: dict) -> None:
        eta, gamma = row.get("eta_0.9"), row.get("gamma_0.9")
        if eta is not None and gamma is not None and abs(gamma - (1.0 - eta)) > 1e-12:
            raise ValueError(f"gamma {gamma!r} != 1 - eta {eta!r}")
        p09, p095 = row.get("p_0.9"), row.get("p_0.95")
        if p09 is not None and p095 is not None and p095 < p09:
            raise ValueError(f"p_0.95 {p095!r} < p_0.9 {p09!r}")

    def column(self, name: str) -> list:
        return [row[name] for row in self.rows]

    def to_csv_text(self) -> str:
        def cell(value):
            if value is None:
                return ""
            if isinstance(value, float):
                return repr(value)
            return str(value)

        lines = [",".join(self.columns)]
        lines.extend(",".join(cell(row[c]) for c in self.columns) for row in self.rows)
        return "\n".join(lines) + "\n"

    def to_json_text(self) -> str:
        doc = {
            "name": self.name,
            "columns": list(self.columns),
            "rows": self.rows,
            "provenance": self.provenance,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@dataclasses.dataclass
class ExperimentResult:
    """One experiment's table, reports, per-scenario errors and matrices.

    ``summaries`` holds per-scenario spectral summaries for reuse by the
    caller; it is not persisted.
    """

    table: MetricTable
    reports: dict = dataclasses.field(default_factory=dict)
    errors: dict = dataclasses.field(default_factory=dict)
    matrices: dict = dataclasses.field(default_factory=dict)
    summaries: dict = dataclasses.field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.errors


def _result(config: ExperimentConfig, name: str, columns: tuple[str, ...]) -> ExperimentResult:
    """An empty result whose table carries the run's provenance."""
    provenance = {
        "config_hash": config_hash(config),
        "seed": config.random_field.seed,
        "code_version": __version__,
    }
    return ExperimentResult(MetricTable(name, columns, provenance))


def _geometry(config: ExperimentConfig, delta_f: float | None = None) -> SceneGeometry:
    cfg = config.geometry
    if delta_f is not None:
        cfg = dataclasses.replace(cfg, delta_f=delta_f)
    return _shared_geometry(cfg)


@functools.lru_cache(maxsize=GEOMETRY_MEMO_SIZE)
def _shared_geometry(cfg: GeometryConfig) -> SceneGeometry:
    """One geometry per config in a process, with its cached distance table."""
    return build_default_geometry(cfg)


def _covariance(scenario: Scenario, geometry: SceneGeometry, rf: RandomFieldConfig):
    return build_covariance(
        scenario,
        geometry.cell_centers,
        corr_length=rf.corr_length,
        rho_c=rf.rho_c,
        weights=rf.weights,
        amplitude=rf.amplitude,
        kernel=rf.kernel,
    )


def _baseline(config: ExperimentConfig, sid: str) -> tuple[ClutterCovariance, SpectralSummary]:
    # The seed and the sample count do not enter the covariance: fix them in the key.
    field = dataclasses.replace(config.random_field, seed=DEFAULT_SEED, sample_count=1)
    return _shared_baseline(sid, config.geometry, field)


@functools.lru_cache(maxsize=BASELINE_MEMO_SIZE)
def _shared_baseline(sid: str, cfg: GeometryConfig, field: RandomFieldConfig) -> tuple:
    """Scenario ``sid``'s clutter covariance and spectrum, shared by the
    experiments of a process. Neither a failure nor the operator is kept:
    scan-fda builds its own operators at other frequency increments."""
    scenario, geometry = get_scenario(sid), _shared_geometry(cfg)
    covariance = clutter_covariance(assemble_forward(scenario, geometry),
                                    _covariance(scenario, geometry, field))
    return covariance, spectral_summary(covariance)


@contextlib.contextmanager
def _recorded(result: ExperimentResult, sid: str):
    """A failure in the body is recorded in ``result`` under ``sid`` and the batch goes on."""
    try:
        yield
    except GprClutterError as exc:
        result.errors[sid] = str(exc)


def preset_weights(preset: str) -> np.ndarray:
    """Channel weights of a named preset: x2 on the named channel."""
    weights = np.ones(5)
    index = WEIGHT_PRESETS[preset]
    if index is not None:
        weights[index] = 2.0
    return weights


def _summary_metrics(summary, steering) -> dict:
    eta, gamma = target_overlap(summary, steering, summary.p_rho[0.9])
    return {
        "r_eff": summary.r_eff,
        "p_0.9": summary.p_rho[0.9],
        "p_0.95": summary.p_rho[0.95],
        "eta_0.9": eta,
        "gamma_0.9": gamma,
        "trace": summary.trace,
    }


def run_derivative_check(config: ExperimentConfig) -> ExperimentResult:
    """Analytic sensitivities against central differences, all scenarios and
    frequencies. A scenario whose worst error reaches ``DERIVATIVE_THRESHOLD``
    keeps its row (``passed`` false) and is recorded as an InvariantError
    that names the channel, the frequency and the error."""
    result = _result(
        config, "derivative_check",
        ("scenario", "max_rel_error", "worst_channel", "worst_frequency_hz", "passed"),
    )
    frequencies = _geometry(config).frequencies
    for sid in config.scenarios:
        with _recorded(result, sid):
            errors = finite_difference_check(
                get_scenario(sid).background, 2.0 * np.pi * frequencies)  # (5, N)
            # The last frequency whose largest error is the overall largest,
            # and its first channel with that error.
            peaks = errors.max(axis=0)
            n = len(peaks) - 1 - int(np.argmax(peaks[::-1]))
            q = int(np.argmax(errors[:, n]))
            worst, frequency = float(errors[q, n]), float(frequencies[n])
            channel = PARAMETER_NAMES[q]
            passed = worst < DERIVATIVE_THRESHOLD
            result.table.add_row(
                scenario=sid,
                max_rel_error=worst,
                worst_channel=channel,
                worst_frequency_hz=frequency,
                passed=passed,
            )
            if not passed:
                raise InvariantError(
                    f"derivative check failed: sensitivity {channel!r} at {frequency!r} Hz "
                    f"has relative error {worst!r}, not below {DERIVATIVE_THRESHOLD!r}")
    return result


def run_validity_scan(config: ExperimentConfig) -> ExperimentResult:
    """Linearization-validity scan over the amplitude grid, per scenario."""
    exp = config.experiments
    result = _result(
        config, "validity_scan",
        ("scenario", "recommended_s_mu", "worst_p95_contrast", "worst_p95_snapshot", "threshold"),
    )
    geometry = _geometry(config)
    for sid in config.scenarios:
        with _recorded(result, sid):
            scenario = get_scenario(sid)
            report = validity_scan(
                assemble_forward(scenario, geometry),
                _covariance(scenario, geometry, config.random_field),
                amplitude_grid=exp.amplitude_grid,
                sample_count=exp.validity_sample_count,
                threshold=exp.validity_threshold,
                seed=config.random_field.seed,
            )
            result.reports[sid] = report
            result.table.add_row(
                scenario=sid,
                recommended_s_mu=report.recommended_s_mu,
                worst_p95_contrast=max(report.p95_contrast_error),
                worst_p95_snapshot=max(report.p95_snapshot_error),
                threshold=report.threshold,
            )
    return result


def run_fda_scan(config: ExperimentConfig) -> ExperimentResult:
    """Structural metrics across the transmit frequency-increment grid."""
    exp = config.experiments
    result = _result(config, "fda_scan", ("scenario", "delta_f_hz") + METRIC_COLUMNS)
    for sid in config.scenarios:
        with _recorded(result, sid):
            scenario = get_scenario(sid)
            # The cell grid, and with it the field covariance, does not depend on delta_f.
            cov = _covariance(scenario, _geometry(config), config.random_field)
            for delta_f in exp.delta_f_grid:
                geometry = _geometry(config, delta_f=delta_f)
                if delta_f == config.geometry.delta_f:
                    summary = _baseline(config, sid)[1]
                else:
                    summary = spectral_summary(
                        clutter_covariance(assemble_forward(scenario, geometry), cov))
                metrics = _summary_metrics(summary,
                                           steering_vector(geometry, scenario, exp.target))
                result.table.add_row(scenario=sid, delta_f_hz=delta_f, **metrics)
    return result


def run_closure(config: ExperimentConfig, keep_matrices: bool = False) -> ExperimentResult:
    """Monte Carlo covariance closure per scenario at the configured L.

    Every scenario synthesizes the same standardized samples, so one
    streamed draw serves them all (:func:`shared_closure_covariances`); a
    scenario that fails drops out of it and the others go on. With
    ``keep_matrices`` the theoretical covariance and both sample
    covariances are attached for CMAT persistence.
    """
    rf = config.random_field
    result = _result(
        config, "closure",
        ("scenario", "eps_cov_lin", "eps_cov_exact", "eps_lambda", "eps_sub",
         "sample_count", "subspace_dim"),
    )
    geometry = _geometry(config)
    models, theories = {}, {}
    for sid in config.scenarios:
        with _recorded(result, sid):
            scenario = get_scenario(sid)
            forward = assemble_forward(scenario, geometry)
            cov = _covariance(scenario, geometry, rf)
            theories[sid] = clutter_covariance(forward, cov)
            models[sid] = forward, cov
    try:
        # Both modes of every scenario synthesize from one streamed draw.
        outcomes = dict(zip(models, shared_closure_covariances(
            list(models.values()), rf.sample_count, rf.seed)))
    except GprClutterError as exc:
        outcomes = dict.fromkeys(models, exc)
    for sid, outcome in outcomes.items():
        with _recorded(result, sid):
            if isinstance(outcome, GprClutterError):
                raise outcome
            rhat_linear, rhat_exact = outcome
            theory = theories[sid]
            report = closure_from_covariances(
                theory, rhat_linear, rhat_exact, sample_count=rf.sample_count)
            result.reports[sid] = report
            result.table.add_row(scenario=sid, **report.to_dict())
            if keep_matrices:
                result.matrices[f"closure_{sid}_theory"] = theory.matrix
                result.matrices[f"closure_{sid}_rhat_linear"] = rhat_linear
                result.matrices[f"closure_{sid}_rhat_exact"] = rhat_exact
    return result


def run_lx_scan(config: ExperimentConfig) -> ExperimentResult:
    """Spatial-correlation-length scan in the configured scan scenario."""
    exp = config.experiments
    rf = config.random_field
    result = _result(config, "lx_scan", ("scenario", "corr_length_m") + METRIC_COLUMNS)
    sid, geometry = exp.lx_scan_scenario, _geometry(config)
    with _recorded(result, sid):
        scenario = get_scenario(sid)
        forward = assemble_forward(scenario, geometry)
        steering = steering_vector(geometry, scenario, exp.target)
        for corr_length in exp.corr_length_grid:
            cov = _covariance(scenario, geometry, dataclasses.replace(rf, corr_length=corr_length))
            metrics = _summary_metrics(
                spectral_summary(clutter_covariance(forward, cov)), steering)
            result.table.add_row(scenario=sid, corr_length_m=corr_length, **metrics)
    return result


def run_coupling_scan(config: ExperimentConfig) -> ExperimentResult:
    """Cross-correlation and channel-weighting scans in the coupling scenario."""
    exp = config.experiments
    rf = config.random_field
    result = _result(
        config, "coupling_scan",
        ("scenario", "configuration", "rho_c", "weight_preset") + METRIC_COLUMNS,
    )
    sid, geometry = exp.coupling_scenario, _geometry(config)
    with _recorded(result, sid):
        scenario = get_scenario(sid)
        forward = assemble_forward(scenario, geometry)
        steering = steering_vector(geometry, scenario, exp.target)
        # Only the parameter factor changes across the configurations: one
        # Gram K C K^H serves them all.
        gram = kernel_gram(forward, _covariance(scenario, geometry, rf))
        configurations = [(f"rho_c={rho_c:g}", rho_c, None, rf.weights)
                          for rho_c in exp.rho_c_grid]
        configurations += [(f"weights={preset}", rf.rho_c, preset, preset_weights(preset))
                           for preset in exp.weight_presets]
        for name, rho_c, preset, weights in configurations:
            covariance = weighted_gram(
                forward, gram, build_param_factor(scenario, weights, rho_c), rf.amplitude)
            metrics = _summary_metrics(spectral_summary(covariance), steering)
            result.table.add_row(scenario=sid, configuration=name,
                                 rho_c=rho_c, weight_preset=preset, **metrics)
    return result


def run_target_scan(config: ExperimentConfig) -> ExperimentResult:
    """Overlap of the dominant clutter subspace with several target probes.

    Each scenario's baseline spectral summary is kept in ``summaries``.
    """
    exp = config.experiments
    result = _result(
        config, "target_scan",
        ("scenario", "kind", "target_x_m", "target_z_m", "eta_0.9", "gamma_0.9",
         "mean_eta", "std_eta", "min_eta", "max_eta"),
    )
    geometry = _geometry(config)
    for sid in config.scenarios:
        with _recorded(result, sid):
            summary = _baseline(config, sid)[1]
            result.summaries[sid] = summary
            etas = []
            for target in exp.target_grid:
                steering = steering_vector(geometry, get_scenario(sid), target)
                eta, gamma = target_overlap(summary, steering, summary.p_rho[0.9])
                etas.append(eta)
                result.table.add_row(
                    scenario=sid, kind="target", target_x_m=target[0], target_z_m=target[2],
                    **{"eta_0.9": eta, "gamma_0.9": gamma},
                )
            etas = np.asarray(etas)
            result.table.add_row(
                scenario=sid, kind="summary",
                mean_eta=float(etas.mean()), std_eta=float(etas.std()),
                min_eta=float(etas.min()), max_eta=float(etas.max()),
            )
    return result


def run_boundary(config: ExperimentConfig, which: str = "both") -> ExperimentResult:
    """Interpretation-boundary transforms: global scaling and noise floor.

    With ``which="both"`` the scale pass runs over every scenario and then
    the noise pass; a scenario that fails in the first is not run again.
    Each scenario's baseline is the memoized one and its steering vector is
    formed once.
    """
    if which not in ("both", "scale", "noise"):
        raise ValueError(f"unknown boundary selector {which!r}")
    exp = config.experiments
    result = _result(
        config, "boundary", ("scenario", "boundary", "kappa", "snr_db") + METRIC_COLUMNS)
    geometry = _geometry(config)
    steerings = {}
    for boundary in ("scale", "noise") if which == "both" else (which,):
        for sid in exp.boundary_scenarios:
            if sid in result.errors:
                continue
            with _recorded(result, sid):
                base, base_summary = _baseline(config, sid)
                if sid not in steerings:
                    steerings[sid] = steering_vector(geometry, get_scenario(sid), exp.target)
                if boundary == "scale":
                    for kappa in exp.kappa_grid:
                        summary = spectral_summary(scale_covariance(base, kappa))
                        result.table.add_row(
                            scenario=sid, boundary="scale", kappa=kappa, snr_db=None,
                            **_summary_metrics(summary, steerings[sid]))
                else:
                    for snr_db in (None,) + exp.snr_grid_db:
                        summary = (base_summary if snr_db is None
                                   else spectral_summary(add_noise_floor(base, snr_db)))
                        result.table.add_row(
                            scenario=sid, boundary="noise", kappa=None, snr_db=snr_db,
                            **_summary_metrics(summary, steerings[sid]))
    return result


def free_space_scenario() -> Scenario:
    """Vacuum background used as the kernel-diff reference diagnostic."""
    background = ColeColeParams(1.0, 0.0, 1e-12, 0.0, 0.0)
    return Scenario(id="free_space", label="Free space",
                    background=background, d_mu=default_perturbation_scales(background))


def run_kernel_diff(config: ExperimentConfig) -> ExperimentResult:
    """Pairwise forward-operator discrepancies between scenario media.

    ``delta_a`` on row (S, S') is || A_{S'} - A_S ||_F / || A_S ||_F: the
    relative change of the observation operator when the medium moves from
    the start scenario to the destination. Rows against ``free_space``
    report the same quantity toward the vacuum-kernel surrogate.

    No operator is assembled: the media's kernels are formed side by side,
    one transmit block (M rows) at a time, with the checks of
    :func:`assemble_forward`, and each pair sums the two norms of
    :func:`block_discrepancy` in transmit order, as :func:`forward_discrepancy` does. A
    medium that fails is recorded and its pairs are dropped; a start medium
    whose operator has zero norm is recorded and the rows toward it are kept.
    """
    exp = config.experiments
    result = _result(config, "kernel_diff", ("from_scenario", "to_scenario", "delta_a"))
    geometry = _geometry(config)
    n_rx, omegas = geometry.n_rx, 2.0 * np.pi * geometry.frequencies
    media = {sid: get_scenario(sid) for sid in exp.kernel_diff_scenarios}
    media["free_space"] = free_space_scenario()
    ks, psi = {}, {}
    for sid, scenario in media.items():
        with _recorded(result, sid):
            psi[sid] = sensitivity_components(*scenario.background.as_array(), omegas)
            ks[sid] = background_wavenumber(scenario.background, omegas)
    totals = {(sid_from, sid_to): (0.0, 0.0)
              for sid_from in exp.kernel_diff_scenarios for sid_to in media}
    for n in range(geometry.n_tx):
        blocks = {}
        for sid in list(ks):
            with _recorded(result, sid):
                blocks[sid] = transmit_kernels(ks[sid], geometry.cell_distances(), n,
                                               geometry.cell_volume)
                check_kernels(blocks[sid], n_rx, n * n_rx)
            if sid in result.errors:
                del ks[sid]
                blocks.pop(sid, None)
        for (sid_from, sid_to), total in totals.items():
            if sid_from in blocks and sid_to in blocks:
                block = block_discrepancy(psi[sid_to][:, n], blocks[sid_to],
                                          psi[sid_from][:, n], blocks[sid_from])
                totals[sid_from, sid_to] = tuple(map(math.hypot, total, block))
    for sid_from in exp.kernel_diff_scenarios:
        if sid_from not in ks:
            continue
        with _recorded(result, sid_from):
            for sid_to in ks:
                result.table.add_row(from_scenario=sid_from, to_scenario=sid_to,
                                     delta_a=discrepancy_ratio(*totals[sid_from, sid_to]))
    return result
