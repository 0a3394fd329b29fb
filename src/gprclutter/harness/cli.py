"""Command-line experiment runner.

Subcommands map one-to-one onto the experiment implementations; ``report``
runs the full suite. Outputs are written atomically under the output
directory as CSV + JSON metric tables, JSON reports, and CMAT matrices.
Exit codes: 0 success, 1 configuration error, 2 numerical or invariant
failure, 3 I/O or format error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from ..errors import (
    ConfigError,
    FormatError,
    GprClutterError,
)
from ..forward import KERNEL_NAME, assemble_forward
from ..randfield import RNG_SCHEME
from ..scene import build_default_geometry, get_scenario
from . import experiments as exp_mod
from . import plots
from .cmat import persist_matrix, write_atomic
from .config import (
    ExperimentConfig,
    config_hash,
    dump_config,
    load_config,
)
from .experiments import ExperimentResult

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

_EXPERIMENTS = {
    "check-derivatives": exp_mod.run_derivative_check,
    "scan-validity": exp_mod.run_validity_scan,
    "kernel-diff": exp_mod.run_kernel_diff,
    "closure": exp_mod.run_closure,
    "scan-fda": exp_mod.run_fda_scan,
    "scan-lx": exp_mod.run_lx_scan,
    "scan-coupling": exp_mod.run_coupling_scan,
    "scan-targets": exp_mod.run_target_scan,
    "boundary-scale": lambda cfg: exp_mod.run_boundary(cfg, which="scale"),
    "boundary-noise": lambda cfg: exp_mod.run_boundary(cfg, which="noise"),
}

#: What ``report`` runs, in order. Both boundary passes run as one
#: experiment, so ``boundary.*`` holds the scale rows and then the noise rows.
_REPORT = {
    name: _EXPERIMENTS[name]
    for name in ("check-derivatives", "scan-validity", "kernel-diff", "scan-fda",
                 "closure", "scan-lx", "scan-coupling", "scan-targets")
}
_REPORT["boundary"] = exp_mod.run_boundary


def _write_text_atomic(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    write_atomic(path, text.encode("utf-8"))


def write_result(result: ExperimentResult, out_dir: str) -> list[str]:
    """Persist one experiment result; returns the written paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    base = os.path.join(out_dir, result.table.name)
    _write_text_atomic(base + ".csv", result.table.to_csv_text())
    written.append(base + ".csv")
    _write_text_atomic(base + ".json", result.table.to_json_text())
    written.append(base + ".json")
    if result.reports:
        doc = {sid: report.to_dict() for sid, report in result.reports.items()}
        doc["provenance"] = dict(result.table.provenance, rng_scheme=RNG_SCHEME)
        path = base + "_reports.json"
        _write_text_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
        written.append(path)
    if result.errors:
        path = base + "_errors.json"
        _write_text_atomic(path, json.dumps(result.errors, indent=2, sort_keys=True) + "\n")
        written.append(path)
    for name, matrix in result.matrices.items():
        path = os.path.join(out_dir, f"{name}.cmat")
        persist_matrix(matrix, path)
        written.append(path)
    return written


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    if args.seed is not None:
        config = config.replace(
            random_field=dataclasses.replace(config.random_field, seed=args.seed)
        )
    if args.scenario:
        wanted = []
        for chunk in args.scenario:
            wanted.extend(s.strip() for s in chunk.split(",") if s.strip())
        config = config.replace(scenarios=tuple(wanted))
    if args.out is not None:
        config = config.replace(output_dir=args.out)
    return config


def _cmd_build_forward(config: ExperimentConfig, args) -> int:
    geometry = build_default_geometry(config.geometry)
    out_dir = config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    for sid in config.scenarios:
        scenario = get_scenario(sid)
        forward = assemble_forward(scenario, geometry)
        path = os.path.join(out_dir, f"forward_{sid}.cmat")
        persist_matrix(forward.entries, path)
        sidecar = {
            "scenario": sid,
            "kernel": KERNEL_NAME,
            "row_order": "row = n * M + m (transmit-major, 0-indexed)",
            "col_order": "col = q * P + p (parameter-block-major, 0-indexed)",
            "cell_order": "p = ix * n_z + iz",
            "n_tx": forward.n_tx,
            "n_rx": forward.n_rx,
            "n_cells": forward.n_cells,
            "geometry_fingerprint": forward.geometry_fingerprint,
            "config_hash": config_hash(config),
        }
        _write_text_atomic(path + ".json", json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return EXIT_OK


def _plots(config: ExperimentConfig, results: dict, summaries: dict) -> list[str]:
    out_dir = config.output_dir
    written = []
    written += plots.plot_eigen_spectra(summaries, out_dir)
    lx = results.get("scan-lx")
    if lx is not None and lx.table.rows:
        written += plots.plot_scan_curve(
            lx.table.column("corr_length_m"),
            {"r_eff": lx.table.column("r_eff")},
            "correlation length (m)", "effective rank", "lx_scan", out_dir,
        )
    fda = results.get("scan-fda")
    if fda is not None and fda.table.rows:
        by_scenario = {}
        xs = sorted({row["delta_f_hz"] for row in fda.table.rows})
        for sid in {row["scenario"] for row in fda.table.rows}:
            rows = [r for r in fda.table.rows if r["scenario"] == sid]
            rows.sort(key=lambda r: r["delta_f_hz"])
            by_scenario[sid] = [r["eta_0.9"] for r in rows]
        written += plots.plot_scan_curve(
            xs, by_scenario, "frequency increment (Hz)",
            "target overlap eta_0.9", "fda_scan", out_dir,
        )
    return written


def _cmd_report(config: ExperimentConfig, args) -> int:
    if args.plots:
        plots.pyplot()  # fail before any experiment runs, not after
    results = {}
    for name, run in _REPORT.items():
        result = run(config)
        results[name] = result
        write_result(result, config.output_dir)
        status = "ok" if result.ok else f"errors: {sorted(result.errors)}"
        print(f"{name}: {status}")
    # The baseline spectra of the configured scenarios, as scan-targets found them.
    summaries = results["scan-targets"].summaries
    _write_text_atomic(
        os.path.join(config.output_dir, "baseline_summaries.json"),
        json.dumps({sid: s.to_dict() for sid, s in summaries.items()},
                   indent=2, sort_keys=True) + "\n",
    )
    artifacts = []
    if args.plots:
        artifacts = _plots(config, results, summaries)
        for path in artifacts:
            print(f"plot {path}")
    summary = {
        "config_hash": config_hash(config),
        "experiments": {
            name: {"rows": len(result.table.rows), "errors": result.errors}
            for name, result in results.items()
        },
        "plots": artifacts,
    }
    _write_text_atomic(
        os.path.join(config.output_dir, "summary.json"),
        json.dumps(summary, indent=2, sort_keys=True) + "\n",
    )
    _write_text_atomic(
        os.path.join(config.output_dir, "config.yaml"), dump_config(config)
    )
    return EXIT_OK if all(result.ok for result in results.values()) else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gprclutter",
        description="Clutter-covariance experiments for FDA-MIMO GPR over "
                    "dispersive Cole-Cole backgrounds.",
    )
    parser.add_argument("--config", help="YAML configuration file")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="master RNG seed (overrides config)")
    parser.add_argument(
        "--scenario", action="append", default=None, metavar="ID",
        help="restrict to scenario ID (repeatable or comma separated)",
    )
    sub = parser.add_subparsers(dest="command")
    for name in _EXPERIMENTS:
        command = sub.add_parser(name, help=f"run the {name.replace('-', ' ')} experiment")
        if name == "closure":
            command.add_argument("--dump-matrices", action="store_true",
                                 help="also persist theory and sample covariances as CMAT")
    sub.add_parser("build-forward", help="assemble and persist forward matrices")
    report = sub.add_parser("report", help="run the full experiment suite")
    report.add_argument("--plots", action="store_true",
                        help="also emit static plots (needs matplotlib)")
    parser.add_argument("--print-config", action="store_true",
                        help="print the effective configuration and exit")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None and not args.print_config:
        parser.error("the following arguments are required: command")
    if not hasattr(args, "plots"):
        args.plots = False
    try:
        config = load_config(args.config) if args.config else ExperimentConfig()
        config = _apply_overrides(config, args)
        if args.print_config:
            print(dump_config(config), end="")
            return EXIT_OK
        if args.command == "build-forward":
            return _cmd_build_forward(config, args)
        if args.command == "report":
            return _cmd_report(config, args)
        if args.command == "closure" and getattr(args, "dump_matrices", False):
            result = exp_mod.run_closure(config, keep_matrices=True)
        else:
            result = _EXPERIMENTS[args.command](config)
        paths = write_result(result, config.output_dir)
        for path in paths:
            print(f"wrote {path}")
        if result.errors:
            for sid, message in sorted(result.errors.items()):
                print(f"error in {sid}: {message}", file=sys.stderr)
            return EXIT_NUMERICAL
        return EXIT_OK
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except GprClutterError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
