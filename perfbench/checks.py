"""Output check of one benchmark job.

One operation is one (subcommand, scenario) pair. It fails when the CLI
call exits nonzero, when a ``*_errors.json`` (or, for ``report``, the
summary) names the scenario, when the scenario has no table rows, or when
one of its rows fails a check:

- tables that do not depend on the seed are compared with
  ``reference.json``, generated from the seed commit by
  ``make_reference.py``, under the per-column tolerances below;
- seeded tables are checked by properties that hold for any seed
  (acceptance criteria 2 and 3).
"""

from __future__ import annotations

import glob
import json
import math
import os

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

REPORT_ORDER = (
    "check-derivatives", "scan-validity", "kernel-diff", "scan-fda", "closure",
    "scan-lx", "scan-coupling", "scan-targets", "boundary-scale", "boundary-noise",
)

TABLES = {
    "check-derivatives": "derivative_check",
    "scan-validity": "validity_scan",
    "kernel-diff": "kernel_diff",
    "scan-fda": "fda_scan",
    "closure": "closure",
    "scan-lx": "lx_scan",
    "scan-coupling": "coupling_scan",
    "scan-targets": "target_scan",
    "boundary-scale": "boundary",
    "boundary-noise": "boundary",
}

# (relative, absolute) tolerance per float column; other columns must match
# exactly. Integers (p_0.9, p_0.95, subspace_dim, sample_count), flags and
# grid inputs are exact. Target overlaps are O(1) values whose complement
# gamma can sit at rounding level, so they get an absolute floor.
DEFAULT_TOLERANCE = (1e-7, 0.0)
TOLERANCES = {
    "delta_a": (1e-7, 1e-12),
    "eta_0.9": (1e-7, 1e-10),
    "gamma_0.9": (1e-7, 1e-10),
    "mean_eta": (1e-7, 1e-10),
    "std_eta": (1e-7, 1e-10),
    "min_eta": (1e-7, 1e-10),
    "max_eta": (1e-7, 1e-10),
    # Finite-difference errors are rounding noise (1e-11 .. 1e-7 on the seed
    # commit); `passed` is compared exactly against the 1e-5 threshold.
    "max_rel_error": (0.0, 1e-6),
}
# Names of the argmax of rounding-level errors: not compared.
UNCOMPARED = {"worst_channel", "worst_frequency_hz"}

# Acceptance criterion 3 at L = 2000, widened by sqrt(2000 / L).
CLOSURE_EPS_RANGE = (0.005, 0.15)
CLOSURE_REFERENCE_L = 2000
CLOSURE_MAX_MODE_GAP = 1e-2


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def covered(subcommand: str) -> tuple[str, ...]:
    return REPORT_ORDER if subcommand == "report" else (subcommand,)


def scenarios_of(subcommand: str, facts: dict) -> list[str]:
    """Scenarios one subcommand runs under the effective configuration."""
    if subcommand == "scan-lx":
        return [facts["lx_scan_scenario"]]
    if subcommand == "scan-coupling":
        return [facts["coupling_scenario"]]
    if subcommand.startswith("boundary-"):
        return list(facts["boundary_scenarios"])
    if subcommand == "kernel-diff":
        return list(facts["kernel_diff_scenarios"])
    return list(facts["scenarios"])


def _scenario_of(row: dict) -> str:
    return row["from_scenario"] if "from_scenario" in row else row["scenario"]


def _read_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check_job(calls: list[dict], facts: dict, reference: dict) -> tuple[int, dict]:
    """Return (operations attempted, {"subcommand/scenario": reason}) for one job.

    ``calls`` holds one {"subcommand", "out", "code"} per CLI call;
    ``reference`` maps subcommand to the expected rows of its table.
    """
    attempted = 0
    failures: dict[str, str] = {}
    for call in calls:
        failed = _check_call(call, facts, reference)
        for subcommand in covered(call["subcommand"]):
            for sid in scenarios_of(subcommand, facts):
                attempted += 1
                if (subcommand, sid) in failed:
                    failures[f"{subcommand}/{sid}"] = failed[(subcommand, sid)]
    return attempted, failures


def _check_call(call: dict, facts: dict, reference: dict) -> dict:
    out, subcommands = call["out"], covered(call["subcommand"])
    if call["code"] != 0:
        return {(sc, sid): f"exit code {call['code']}"
                for sc in subcommands for sid in scenarios_of(sc, facts)}
    failed: dict = {}
    for path in glob.glob(os.path.join(out, "*_errors.json")):
        table = os.path.basename(path)[: -len("_errors.json")]
        for sc in subcommands:
            if TABLES[sc] == table:
                for sid in _read_json(path):
                    failed.setdefault((sc, sid), "scenario error")
    if call["subcommand"] == "report":
        summary = _read_json(os.path.join(out, "summary.json"))
        for sc, entry in summary["experiments"].items():
            for sid in entry["errors"]:
                failed.setdefault((sc, sid), "scenario error")
    for sc in subcommands:
        if call["subcommand"] == "report" and sc == "boundary-scale":
            continue  # report writes both boundary passes to one table; the noise pass wins
        path = os.path.join(out, TABLES[sc] + ".json")
        rows = _read_json(path)["rows"] if os.path.exists(path) else []
        for (sid, reason) in _check_rows(sc, rows, facts, reference.get(sc)):
            failed.setdefault((sc, sid), reason)
        seen = {_scenario_of(row) for row in rows}
        for sid in scenarios_of(sc, facts):
            if sid not in seen:
                failed.setdefault((sc, sid), "no table rows")
    return failed


def _check_rows(subcommand: str, rows: list, facts: dict, expected):
    if expected is not None:
        if len(rows) != len(expected):
            for row in rows + expected:
                yield _scenario_of(row), f"{len(rows)} rows, reference has {len(expected)}"
            return
        for row, ref in zip(rows, expected):
            column = _mismatch(row, ref)
            if column is not None:
                yield _scenario_of(row), f"{column}={row.get(column)!r}, reference {ref.get(column)!r}"
    elif subcommand == "scan-validity":
        for row in rows:
            reason = _validity_violation(row, facts)
            if reason:
                yield row["scenario"], reason
    elif subcommand == "closure":
        for row in rows:
            reason = _closure_violation(row, facts)
            if reason:
                yield row["scenario"], reason


def _mismatch(row: dict, ref: dict) -> str | None:
    """First column of ``row`` outside its tolerance, or None."""
    if set(row) != set(ref):
        return sorted(set(row) ^ set(ref))[0]
    for column, want in ref.items():
        got = row[column]
        if column in UNCOMPARED:
            continue
        if isinstance(want, float) and isinstance(got, float):
            rtol, atol = TOLERANCES.get(column, DEFAULT_TOLERANCE)
            if not abs(got - want) <= atol + rtol * abs(want):
                return column
        elif got != want or type(got) is not type(want):
            return column
    return None


def _validity_violation(row: dict, facts: dict) -> str | None:
    grid_max = max(facts["amplitude_grid"])
    if row["recommended_s_mu"] != grid_max:
        return f"recommended_s_mu {row['recommended_s_mu']!r} != grid maximum {grid_max!r}"
    for column in ("worst_p95_contrast", "worst_p95_snapshot"):
        if not row[column] < row["threshold"]:
            return f"{column} {row[column]!r} not below threshold {row['threshold']!r}"
    return None


def _closure_violation(row: dict, facts: dict) -> str | None:
    count = facts["sample_count"]
    if row["sample_count"] != count:
        return f"sample_count {row['sample_count']!r} != {count}"
    widen = math.sqrt(CLOSURE_REFERENCE_L / count)
    low, high = (bound * widen for bound in CLOSURE_EPS_RANGE)
    for column in ("eps_cov_lin", "eps_cov_exact"):
        if not low <= row[column] <= high:
            return f"{column} {row[column]!r} outside [{low:.4g}, {high:.4g}]"
    gap = abs(row["eps_cov_lin"] - row["eps_cov_exact"])
    if not gap < CLOSURE_MAX_MODE_GAP:
        return f"|eps_cov_lin - eps_cov_exact| {gap!r} not below {CLOSURE_MAX_MODE_GAP}"
    if not 0.0 <= row["eps_sub"] <= 1.0:
        return f"eps_sub {row['eps_sub']!r} outside [0, 1]"
    return None
