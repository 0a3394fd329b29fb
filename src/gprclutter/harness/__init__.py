"""Experiment orchestration: configuration, persistence, CLI, experiments."""

from .cmat import load_matrix, matrix_from_bytes, matrix_to_bytes, persist_matrix
from .config import (
    ExperimentConfig,
    ExperimentSettings,
    RandomFieldConfig,
    config_hash,
    dump_config,
    load_config,
    parse_config,
)
from .experiments import (
    ExperimentResult,
    MetricTable,
    run_boundary,
    run_closure,
    run_coupling_scan,
    run_derivative_check,
    run_fda_scan,
    run_kernel_diff,
    run_lx_scan,
    run_target_scan,
    run_validity_scan,
)

__all__ = [
    "load_matrix",
    "matrix_from_bytes",
    "matrix_to_bytes",
    "persist_matrix",
    "ExperimentConfig",
    "ExperimentSettings",
    "RandomFieldConfig",
    "config_hash",
    "dump_config",
    "load_config",
    "parse_config",
    "ExperimentResult",
    "MetricTable",
    "run_boundary",
    "run_closure",
    "run_coupling_scan",
    "run_derivative_check",
    "run_fda_scan",
    "run_kernel_diff",
    "run_lx_scan",
    "run_target_scan",
    "run_validity_scan",
]
