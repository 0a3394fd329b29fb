"""Experiment implementations behind the CLI subcommands.

Each ``run_*`` function consumes an :class:`ExperimentConfig` and returns an
:class:`ExperimentResult` holding a metric table, optional per-scenario
report objects, and per-scenario errors. A failing scenario never aborts
the batch; its error lands in the result and the remaining scenarios run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json

import numpy as np

from .. import __version__
from ..constitutive import ColeColeParams, finite_difference_check, PARAMETER_NAMES
from ..errors import GprClutterError
from ..forward import ForwardMatrix, assemble_forward, forward_discrepancy, steering_vector
from ..montecarlo import closure_from_covariances, shared_closure_covariances, validity_scan
from ..randfield import build_covariance
from ..scene import (
    Scenario,
    SceneGeometry,
    build_default_geometry,
    default_perturbation_scales,
    get_scenario,
)
from ..spectra import (
    add_noise_floor,
    clutter_covariance,
    scale_covariance,
    spectral_summary,
    target_overlap,
)
from .config import ExperimentConfig, RandomFieldConfig, config_hash

#: Derivative validation passes below this maximum relative error.
DERIVATIVE_THRESHOLD = 1e-5

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


@contextlib.contextmanager
def _recorded(result: ExperimentResult, sid: str):
    """Record a failure of scenario ``sid`` in ``result`` and let the batch go on."""
    try:
        yield
    except GprClutterError as exc:
        result.errors[sid] = str(exc)


def _geometry(config: ExperimentConfig, delta_f: float | None = None) -> SceneGeometry:
    cfg = config.geometry
    if delta_f is not None:
        cfg = dataclasses.replace(cfg, delta_f=delta_f)
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


def preset_weights(preset: str) -> np.ndarray:
    """Channel weights of a named preset: x2 on the named channel."""
    weights = np.ones(5)
    index = {"uniform": None, "permittivity": 0, "relaxation": 2, "conductivity": 4}[preset]
    if index is not None:
        weights[index] = 2.0
    return weights


def _structural_metrics(forward: ForwardMatrix, steering, cov) -> dict:
    """The standard metric block at one configuration point."""
    return _summary_metrics(spectral_summary(clutter_covariance(forward, cov)), steering)


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


def run_derivative_check(config: ExperimentConfig, inject_error: bool = False) -> ExperimentResult:
    """Analytic sensitivities against central differences, all scenarios and
    frequencies. ``inject_error`` is a self-test hook biasing the analytic
    values so the check must fail."""
    result = _result(
        config, "derivative_check",
        ("scenario", "max_rel_error", "worst_channel", "worst_frequency_hz", "passed"),
    )
    geometry = _geometry(config)
    for sid in config.scenarios:
        with _recorded(result, sid):
            scenario = get_scenario(sid)
            worst, worst_channel, worst_freq = 0.0, "", 0.0
            for freq in geometry.frequencies:
                errors = finite_difference_check(
                    scenario.background, 2.0 * np.pi * freq,
                    analytic_bias=1e-3 if inject_error else 0.0,
                )
                q = int(np.argmax(errors))
                if errors[q] >= worst:
                    worst, worst_channel, worst_freq = float(errors[q]), PARAMETER_NAMES[q], float(freq)
            result.table.add_row(
                scenario=sid,
                max_rel_error=worst,
                worst_channel=worst_channel,
                worst_frequency_hz=worst_freq,
                passed=bool(worst < DERIVATIVE_THRESHOLD),
            )
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
            forward = assemble_forward(scenario, geometry)
            cov = _covariance(scenario, geometry, config.random_field)
            report = validity_scan(
                forward, scenario, geometry, cov,
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
    # The cell grid, and with it the field covariance, does not depend on
    # delta_f: build one covariance per scenario and one geometry per delta_f.
    base = _geometry(config)
    geometries: dict[float, SceneGeometry] = {}
    for sid in config.scenarios:
        with _recorded(result, sid):
            scenario = get_scenario(sid)
            cov = _covariance(scenario, base, config.random_field)
            for delta_f in exp.delta_f_grid:
                if delta_f not in geometries:
                    geometries[delta_f] = _geometry(config, delta_f=delta_f)
                geometry = geometries[delta_f]
                metrics = _structural_metrics(
                    assemble_forward(scenario, geometry),
                    steering_vector(geometry, scenario, exp.target),
                    cov,
                )
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
            models[sid] = (forward, scenario, cov)
    try:
        # Both modes of every scenario synthesize from one streamed draw.
        outcomes = dict(zip(models, shared_closure_covariances(
            list(models.values()), geometry, rf.sample_count, rf.seed)))
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
    sid = exp.lx_scan_scenario
    geometry = _geometry(config)
    with _recorded(result, sid):
        scenario = get_scenario(sid)
        forward = assemble_forward(scenario, geometry)
        steering = steering_vector(geometry, scenario, exp.target)
        for corr_length in exp.corr_length_grid:
            cov = _covariance(
                scenario, geometry, dataclasses.replace(rf, corr_length=corr_length))
            metrics = _structural_metrics(forward, steering, cov)
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
    sid = exp.coupling_scenario
    geometry = _geometry(config)
    with _recorded(result, sid):
        scenario = get_scenario(sid)
        forward = assemble_forward(scenario, geometry)
        steering = steering_vector(geometry, scenario, exp.target)
        for rho_c in exp.rho_c_grid:
            cov = _covariance(scenario, geometry, dataclasses.replace(rf, rho_c=rho_c))
            metrics = _structural_metrics(forward, steering, cov)
            result.table.add_row(scenario=sid, configuration=f"rho_c={rho_c:g}",
                                 rho_c=rho_c, weight_preset=None, **metrics)
        for preset in exp.weight_presets:
            cov = _covariance(
                scenario, geometry, dataclasses.replace(rf, weights=preset_weights(preset)))
            metrics = _structural_metrics(forward, steering, cov)
            result.table.add_row(scenario=sid, configuration=f"weights={preset}",
                                 rho_c=rf.rho_c, weight_preset=preset, **metrics)
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
            scenario = get_scenario(sid)
            forward = assemble_forward(scenario, geometry)
            cov = _covariance(scenario, geometry, config.random_field)
            summary = spectral_summary(clutter_covariance(forward, cov))
            result.summaries[sid] = summary
            etas = []
            for target in exp.target_grid:
                steering = steering_vector(geometry, scenario, target)
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

    With ``which="both"`` the table holds the rows of the scale pass and
    then those of the noise pass, as if the two had run one after the other.
    """
    if which not in ("both", "scale", "noise"):
        raise ValueError(f"unknown boundary selector {which!r}")
    exp = config.experiments
    result = _result(
        config, "boundary", ("scenario", "boundary", "kappa", "snr_db") + METRIC_COLUMNS)
    rows = {name: [] for name in (("scale", "noise") if which == "both" else (which,))}
    geometry = _geometry(config)
    for sid in exp.boundary_scenarios:
        with _recorded(result, sid):
            scenario = get_scenario(sid)
            forward = assemble_forward(scenario, geometry)
            cov = _covariance(scenario, geometry, config.random_field)
            base = clutter_covariance(forward, cov)
            steering = steering_vector(geometry, scenario, exp.target)
            if "scale" in rows:
                for kappa in exp.kappa_grid:
                    summary = spectral_summary(scale_covariance(base, kappa))
                    rows["scale"].append(dict(
                        scenario=sid, boundary="scale", kappa=kappa, snr_db=None,
                        **_summary_metrics(summary, steering)))
            if "noise" in rows:
                for snr_db in (None,) + exp.snr_grid_db:
                    noisy = base if snr_db is None else add_noise_floor(base, snr_db)
                    rows["noise"].append(dict(
                        scenario=sid, boundary="noise", kappa=None, snr_db=snr_db,
                        **_summary_metrics(spectral_summary(noisy), steering)))
    for pass_rows in rows.values():
        for row in pass_rows:
            result.table.add_row(**row)
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
    """
    exp = config.experiments
    result = _result(config, "kernel_diff", ("from_scenario", "to_scenario", "delta_a"))
    geometry = _geometry(config)
    forwards: dict[str, ForwardMatrix] = {}
    for sid in exp.kernel_diff_scenarios:
        with _recorded(result, sid):
            forwards[sid] = assemble_forward(get_scenario(sid), geometry)
    with _recorded(result, "free_space"):
        forwards["free_space"] = assemble_forward(free_space_scenario(), geometry)
    targets = [sid for sid in (*exp.kernel_diff_scenarios, "free_space") if sid in forwards]
    for sid_from in exp.kernel_diff_scenarios:
        if sid_from not in forwards:
            continue
        for sid_to in targets:
            result.table.add_row(
                from_scenario=sid_from, to_scenario=sid_to,
                delta_a=forward_discrepancy(forwards[sid_to], forwards[sid_from]),
            )
    return result
