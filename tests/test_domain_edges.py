"""A domain-edge sweep: every experiment either records a typed error per
scenario or writes finite rows within their bounds."""

import dataclasses
import math
import os
import warnings

from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from gprclutter import GeometryConfig
from gprclutter.harness import experiments
from gprclutter.harness.config import (
    ExperimentConfig,
    ExperimentSettings,
    RandomFieldConfig,
    load_config,
)
from conftest import clear_memos


def _reproducer(name: str) -> ExperimentConfig:
    return load_config(os.path.join(os.path.dirname(__file__), name))


EDGE_CONFIG = _reproducer("domain_edge.yaml")
#: Amplitude 0 only reaches "covariance is identically zero": one explicit example.
ZERO_AMPLITUDE = EDGE_CONFIG.replace(
    random_field=dataclasses.replace(EDGE_CONFIG.random_field, amplitude=0.0))

RUNS = (
    experiments.run_derivative_check,
    experiments.run_validity_scan,
    experiments.run_fda_scan,
    experiments.run_closure,
    experiments.run_lx_scan,
    experiments.run_coupling_scan,
    experiments.run_target_scan,
    experiments.run_boundary,
    experiments.run_kernel_diff,
)

#: Columns that are relative errors or discrepancies: never negative.
ERROR_COLUMNS = ("max_rel_error", "worst_p95_contrast", "worst_p95_snapshot", "eps_cov_lin",
                 "eps_cov_exact", "eps_lambda", "eps_sub", "delta_a")

MAX_EXAMPLES = 48

#: The seed that derandomize derives from the sweep's source as it stood
#: before its float-range examples, int_from_bytes(function_digest(sweep)).
#: Pinned, so an edit of the sweep no longer reseeds the draws.
SWEEP_SEED = int(
    "29958528526921725618209730264597450159107272201006772926718987870969126338693944637193"
    "755235077759041097778584766120")

#: The experiments that form a theoretical clutter covariance.
COVARIANCE_RUNS = ("run_fda_scan", "run_closure", "run_lx_scan", "run_coupling_scan",
                   "run_target_scan", "run_boundary")
COVARIANCE_OVERFLOW = dict.fromkeys(COVARIANCE_RUNS, "covariance overflows: ")

#: Float-range reproducers, each with the experiments that record an error
#: and the start of every such error (or a tuple of the starts allowed); the
#: other experiments record none.
FLOAT_RANGE = {
    # Every theoretical covariance overflows.
    _reproducer("amplitude_overflow.yaml"): COVARIANCE_OVERFLOW,
    _reproducer("gram_overflow.yaml"): COVARIANCE_OVERFLOW,
    # The kernels are finite, the operator norms and covariances are not.
    _reproducer("discrepancy_overflow.yaml"): dict(
        COVARIANCE_OVERFLOW, run_kernel_diff=tuple(
            f"{pair}: forward operator norm exceeds the float range"
            for pair in ("S1 -> S1", "S2 -> free_space"))),
    # Every experiment but the derivative check forms kernels.
    _reproducer("kernel_overflow.yaml"): dict.fromkeys(
        (run.__name__ for run in RUNS[1:]), "non-finite forward kernel at (m=0, n=0, p=0)"),
    _reproducer("distance_overflow.yaml"): dict.fromkeys(
        (run.__name__ for run in RUNS[1:]), "squared separation between receiver 0 and point 0 "),
}
FLOAT_RANGE_CONFIGS = tuple(FLOAT_RANGE)


def _log_uniform(low: float, high: float):
    return st.floats(math.log10(low), math.log10(high)).map(lambda e: 10.0 ** e)


@st.composite
def edge_configs(draw):
    """Tiny configurations drawn toward the edges: the tau floor (a large
    tau weight and amplitude), deep cells, rho_c near 1 and extreme weights."""
    geometry = GeometryConfig(
        n_tx=draw(st.integers(1, 4)), n_rx=draw(st.integers(1, 4)),
        n_x=draw(st.integers(1, 5)), n_z=draw(st.integers(1, 4)),
        f0=draw(_log_uniform(1e5, 1e10)),
        delta_f=draw(st.one_of(st.just(0.0), _log_uniform(1e3, 1e9))),
        element_spacing=draw(_log_uniform(1e-3, 1.0)),
        dx=draw(_log_uniform(1e-3, 0.5)),
        dz=draw(st.one_of(_log_uniform(1e-4, 0.5), _log_uniform(50.0, 500.0))),
        strip_width=draw(_log_uniform(1e-2, 2.0)),
    )
    weights = [draw(st.one_of(st.just(1.0), _log_uniform(1e-6, 1e6))) for _ in range(5)]
    weights[2] = draw(st.one_of(_log_uniform(1e-6, 1e6), _log_uniform(1e2, 1e6)))
    field = RandomFieldConfig(
        corr_length=draw(_log_uniform(1e-4, 1e3)),
        rho_c=draw(st.one_of(st.just(0.999999), st.floats(0.0, 0.999999),
                             st.integers(1, 6).map(lambda k: 1.0 - 10.0 ** -k))),
        weights=tuple(weights),
        # Amplitude 0 is ZERO_AMPLITUDE's alone, so no draw spends the budget on it.
        amplitude=draw(st.one_of(_log_uniform(1e-6, 50.0), _log_uniform(1e-2, 50.0),
                                 _log_uniform(1.0, 50.0))),
        sample_count=draw(st.integers(2, 8)),
        seed=draw(st.integers(0, 2**32 - 1)),
        kernel=draw(st.sampled_from(("squared_exponential", "exponential"))),
    )
    return ExperimentConfig(geometry=geometry, random_field=field, experiments=ExperimentSettings(
        validity_sample_count=draw(st.integers(1, 6))))


def _check_row(row: dict, channels: int) -> None:
    for column, value in row.items():
        if isinstance(value, float):
            assert math.isfinite(value), (column, value)
    if row.get("r_eff") is not None:
        assert 1.0 <= row["r_eff"] <= channels, row
    eta, gamma = row.get("eta_0.9"), row.get("gamma_0.9")
    if eta is not None:
        assert 0.0 <= eta <= 1.0 and 0.0 <= gamma <= 1.0 and abs(eta + gamma - 1.0) <= 1e-12, row
    for column in ERROR_COLUMNS:
        if row.get(column) is not None:
            assert row[column] >= 0.0, (column, row)


def _check_report(report) -> None:
    values = report.to_dict()
    for name in ("p95_contrast_error", "p95_snapshot_error"):
        for value in values.get(name, ()):
            assert math.isfinite(value) and value >= 0.0, (name, values)


def test_every_experiment_records_a_typed_error_or_writes_bounded_rows():
    drawn = []

    @settings(max_examples=MAX_EXAMPLES, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @seed(SWEEP_SEED)
    @example(EDGE_CONFIG)
    @example(ZERO_AMPLITUDE)
    @example(FLOAT_RANGE_CONFIGS[0])
    @example(FLOAT_RANGE_CONFIGS[1])
    @example(FLOAT_RANGE_CONFIGS[2])
    @example(FLOAT_RANGE_CONFIGS[3])
    @example(FLOAT_RANGE_CONFIGS[4])
    @given(edge_configs())
    def sweep(config):
        drawn.append(config)
        channels = config.geometry.n_tx * config.geometry.n_rx
        clear_memos()
        results = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for run in RUNS:
                # A failure that is not a GprClutterError escapes _recorded and fails here.
                results[run.__name__] = result = run(config)
                for row in result.table.rows:
                    _check_row(row, channels)
                for report in result.reports.values():
                    _check_report(report)
        if config == EDGE_CONFIG:
            errors = results["run_validity_scan"].errors
            assert sorted(errors) == ["S1", "S2", "S3", "S_balance"]
            assert all("offending parameter 'alpha'" in m for m in errors.values())
        if config in FLOAT_RANGE:
            for name, result in results.items():
                errors, refusal = result.errors, FLOAT_RANGE[config].get(name)
                assert bool(errors) == (refusal is not None), (name, errors)
                assert all(m.startswith(refusal) for m in errors.values()), (name, errors)

    sweep()
    assert len(set(drawn)) >= 40
    assert [c for c in drawn if c.random_field.amplitude == 0.0] == [ZERO_AMPLITUDE]
