"""Experiment implementations behind the CLI subcommands.

Each ``run_*`` function consumes an :class:`ExperimentConfig` and returns an
:class:`ExperimentResult` holding a metric table, optional per-scenario
report objects, and per-scenario errors. A failing scenario never aborts
the batch; its error lands in the result and the remaining scenarios run.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .. import __version__
from ..constitutive import ColeColeParams, finite_difference_check, PARAMETER_NAMES
from ..errors import GprClutterError
from ..forward import ForwardMatrix, assemble_forward, forward_discrepancy, steering_vector
from ..montecarlo import (
    closure_report,
    sample_covariance,
    snapshots_from_perturbations,
    validity_scan,
)
from ..randfield import build_covariance, sample_perturbations
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
    name: str
    table: MetricTable
    reports: dict = dataclasses.field(default_factory=dict)
    errors: dict = dataclasses.field(default_factory=dict)
    matrices: dict = dataclasses.field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.errors


def _provenance(config: ExperimentConfig) -> dict:
    return {
        "config_hash": config_hash(config),
        "seed": config.random_field.seed,
        "code_version": __version__,
    }


def _geometry(config: ExperimentConfig, delta_f: float | None = None) -> SceneGeometry:
    cfg = config.geometry
    if delta_f is not None:
        cfg = dataclasses.replace(cfg, delta_f=delta_f)
    return build_default_geometry(cfg)


def _covariance(
    scenario: Scenario,
    geometry: SceneGeometry,
    rf: RandomFieldConfig,
    corr_length: float | None = None,
    rho_c: float | None = None,
    weights=None,
    amplitude: float | None = None,
):
    return build_covariance(
        scenario,
        geometry.cell_centers,
        corr_length=rf.corr_length if corr_length is None else corr_length,
        rho_c=rf.rho_c if rho_c is None else rho_c,
        weights=rf.weights if weights is None else weights,
        amplitude=rf.amplitude if amplitude is None else amplitude,
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
    table = MetricTable(
        "derivative_check",
        ("scenario", "max_rel_error", "worst_channel", "worst_frequency_hz", "passed"),
        _provenance(config),
    )
    result = ExperimentResult("derivative_check", table)
    geometry = _geometry(config)
    for sid in config.scenarios:
        try:
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
            table.add_row(
                scenario=sid,
                max_rel_error=worst,
                worst_channel=worst_channel,
                worst_frequency_hz=worst_freq,
                passed=bool(worst < DERIVATIVE_THRESHOLD),
            )
        except GprClutterError as exc:
            result.errors[sid] = str(exc)
    return result


def run_validity_scan(config: ExperimentConfig) -> ExperimentResult:
    """Linearization-validity scan over the amplitude grid, per scenario."""
    exp = config.experiments
    table = MetricTable(
        "validity_scan",
        ("scenario", "recommended_s_mu", "worst_p95_contrast", "worst_p95_snapshot", "threshold"),
        _provenance(config),
    )
    result = ExperimentResult("validity_scan", table)
    geometry = _geometry(config)
    for sid in config.scenarios:
        try:
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
            table.add_row(
                scenario=sid,
                recommended_s_mu=report.recommended_s_mu,
                worst_p95_contrast=max(report.p95_contrast_error),
                worst_p95_snapshot=max(report.p95_snapshot_error),
                threshold=report.threshold,
            )
        except GprClutterError as exc:
            result.errors[sid] = str(exc)
    return result


def run_fda_scan(config: ExperimentConfig) -> ExperimentResult:
    """Structural metrics across the transmit frequency-increment grid."""
    exp = config.experiments
    table = MetricTable(
        "fda_scan",
        ("scenario", "delta_f_hz") + METRIC_COLUMNS,
        _provenance(config),
    )
    result = ExperimentResult("fda_scan", table)
    # The cell grid, and with it the field covariance, does not depend on
    # delta_f: build one covariance per scenario and one geometry per delta_f.
    base = _geometry(config)
    geometries: dict[float, SceneGeometry] = {}
    for sid in config.scenarios:
        try:
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
                table.add_row(scenario=sid, delta_f_hz=delta_f, **metrics)
        except GprClutterError as exc:
            result.errors[sid] = str(exc)
    return result


def run_closure(config: ExperimentConfig, keep_matrices: bool = False) -> ExperimentResult:
    """Monte Carlo covariance closure per scenario at the configured L.

    With ``keep_matrices`` the theoretical covariance and both sample
    covariances are attached for CMAT persistence.
    """
    rf = config.random_field
    table = MetricTable(
        "closure",
        ("scenario", "eps_cov_lin", "eps_cov_exact", "eps_lambda", "eps_sub",
         "sample_count", "subspace_dim"),
        _provenance(config),
    )
    result = ExperimentResult("closure", table)
    geometry = _geometry(config)
    for sid in config.scenarios:
        try:
            scenario = get_scenario(sid)
            forward = assemble_forward(scenario, geometry)
            cov = _covariance(scenario, geometry, rf)
            theory = clutter_covariance(forward, cov)
            # Both modes synthesize from one draw; release it before the
            # next scenario draws its own.
            samples = sample_perturbations(cov, rf.sample_count, rf.seed)
            snaps_lin = snapshots_from_perturbations(
                forward, scenario, geometry, samples, "linear")
            snaps_exact = snapshots_from_perturbations(
                forward, scenario, geometry, samples, "exact")
            del samples
            report = closure_report(theory, snaps_lin, snaps_exact)
            result.reports[sid] = report
            table.add_row(scenario=sid, **report.to_dict())
            if keep_matrices:
                result.matrices[f"closure_{sid}_theory"] = theory.matrix
                result.matrices[f"closure_{sid}_rhat_linear"] = sample_covariance(snaps_lin)
                result.matrices[f"closure_{sid}_rhat_exact"] = sample_covariance(snaps_exact)
        except GprClutterError as exc:
            result.errors[sid] = str(exc)
    return result


def run_lx_scan(config: ExperimentConfig) -> ExperimentResult:
    """Spatial-correlation-length scan in the configured scan scenario."""
    exp = config.experiments
    table = MetricTable(
        "lx_scan",
        ("scenario", "corr_length_m") + METRIC_COLUMNS,
        _provenance(config),
    )
    result = ExperimentResult("lx_scan", table)
    sid = exp.lx_scan_scenario
    geometry = _geometry(config)
    try:
        scenario = get_scenario(sid)
        forward = assemble_forward(scenario, geometry)
        steering = steering_vector(geometry, scenario, exp.target)
        for corr_length in exp.corr_length_grid:
            cov = _covariance(scenario, geometry, config.random_field, corr_length=corr_length)
            metrics = _structural_metrics(forward, steering, cov)
            table.add_row(scenario=sid, corr_length_m=corr_length, **metrics)
    except GprClutterError as exc:
        result.errors[sid] = str(exc)
    return result


def run_coupling_scan(config: ExperimentConfig) -> ExperimentResult:
    """Cross-correlation and channel-weighting scans in the coupling scenario."""
    exp = config.experiments
    table = MetricTable(
        "coupling_scan",
        ("scenario", "configuration", "rho_c", "weight_preset") + METRIC_COLUMNS,
        _provenance(config),
    )
    result = ExperimentResult("coupling_scan", table)
    sid = exp.coupling_scenario
    geometry = _geometry(config)
    try:
        scenario = get_scenario(sid)
        forward = assemble_forward(scenario, geometry)
        steering = steering_vector(geometry, scenario, exp.target)
        for rho_c in exp.rho_c_grid:
            cov = _covariance(scenario, geometry, config.random_field, rho_c=rho_c)
            metrics = _structural_metrics(forward, steering, cov)
            table.add_row(scenario=sid, configuration=f"rho_c={rho_c:g}",
                          rho_c=rho_c, weight_preset=None, **metrics)
        for preset in exp.weight_presets:
            cov = _covariance(
                scenario, geometry, config.random_field, weights=preset_weights(preset))
            metrics = _structural_metrics(forward, steering, cov)
            table.add_row(scenario=sid, configuration=f"weights={preset}",
                          rho_c=config.random_field.rho_c, weight_preset=preset, **metrics)
    except GprClutterError as exc:
        result.errors[sid] = str(exc)
    return result


def run_target_scan(config: ExperimentConfig) -> ExperimentResult:
    """Overlap of the dominant clutter subspace with several target probes."""
    exp = config.experiments
    table = MetricTable(
        "target_scan",
        ("scenario", "kind", "target_x_m", "target_z_m", "eta_0.9", "gamma_0.9",
         "mean_eta", "std_eta", "min_eta", "max_eta"),
        _provenance(config),
    )
    result = ExperimentResult("target_scan", table)
    geometry = _geometry(config)
    for sid in config.scenarios:
        try:
            scenario = get_scenario(sid)
            forward = assemble_forward(scenario, geometry)
            cov = _covariance(scenario, geometry, config.random_field)
            summary = spectral_summary(clutter_covariance(forward, cov))
            etas = []
            for target in exp.target_grid:
                steering = steering_vector(geometry, scenario, target)
                eta, gamma = target_overlap(summary, steering, summary.p_rho[0.9])
                etas.append(eta)
                table.add_row(
                    scenario=sid, kind="target", target_x_m=target[0], target_z_m=target[2],
                    **{"eta_0.9": eta, "gamma_0.9": gamma},
                )
            etas = np.asarray(etas)
            table.add_row(
                scenario=sid, kind="summary",
                mean_eta=float(etas.mean()), std_eta=float(etas.std()),
                min_eta=float(etas.min()), max_eta=float(etas.max()),
            )
        except GprClutterError as exc:
            result.errors[sid] = str(exc)
    return result


def run_boundary(config: ExperimentConfig, which: str = "both") -> ExperimentResult:
    """Interpretation-boundary transforms: global scaling and noise floor."""
    if which not in ("both", "scale", "noise"):
        raise ValueError(f"unknown boundary selector {which!r}")
    exp = config.experiments
    table = MetricTable(
        "boundary",
        ("scenario", "boundary", "kappa", "snr_db") + METRIC_COLUMNS,
        _provenance(config),
    )
    result = ExperimentResult("boundary", table)
    geometry = _geometry(config)
    for sid in exp.boundary_scenarios:
        try:
            scenario = get_scenario(sid)
            forward = assemble_forward(scenario, geometry)
            cov = _covariance(scenario, geometry, config.random_field)
            base = clutter_covariance(forward, cov)
            steering = steering_vector(geometry, scenario, exp.target)
            if which in ("both", "scale"):
                for kappa in exp.kappa_grid:
                    summary = spectral_summary(scale_covariance(base, kappa))
                    table.add_row(scenario=sid, boundary="scale", kappa=kappa,
                                  snr_db=None, **_summary_metrics(summary, steering))
            if which in ("both", "noise"):
                summary = spectral_summary(base)
                table.add_row(scenario=sid, boundary="noise", kappa=None,
                              snr_db=None, **_summary_metrics(summary, steering))
                for snr_db in exp.snr_grid_db:
                    summary = spectral_summary(add_noise_floor(base, snr_db))
                    table.add_row(scenario=sid, boundary="noise", kappa=None,
                                  snr_db=snr_db, **_summary_metrics(summary, steering))
        except GprClutterError as exc:
            result.errors[sid] = str(exc)
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
    table = MetricTable(
        "kernel_diff",
        ("from_scenario", "to_scenario", "delta_a"),
        _provenance(config),
    )
    result = ExperimentResult("kernel_diff", table)
    geometry = _geometry(config)
    forwards: dict[str, ForwardMatrix] = {}
    for sid in exp.kernel_diff_scenarios:
        try:
            forwards[sid] = assemble_forward(get_scenario(sid), geometry)
        except GprClutterError as exc:
            result.errors[sid] = str(exc)
    free = assemble_forward(free_space_scenario(), geometry)
    for sid_from in exp.kernel_diff_scenarios:
        if sid_from not in forwards:
            continue
        for sid_to in exp.kernel_diff_scenarios:
            if sid_to not in forwards:
                continue
            table.add_row(
                from_scenario=sid_from, to_scenario=sid_to,
                delta_a=forward_discrepancy(forwards[sid_to], forwards[sid_from]),
            )
        table.add_row(
            from_scenario=sid_from, to_scenario="free_space",
            delta_a=forward_discrepancy(free, forwards[sid_from]),
        )
    return result
