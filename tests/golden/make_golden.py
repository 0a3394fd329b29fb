"""Regenerate golden.json, the outputs the Tier-1 golden gate checks.

Usage (from the repository root):

    PYTHONPATH=src python3 tests/golden/make_golden.py          # rewrite golden.json
    PYTHONPATH=src python3 tests/golden/make_golden.py --diff   # drift against it
    PYTHONPATH=src python3 tests/golden/make_golden.py --columns tables.closure.eps_sub ...

Runs every experiment whose table does not depend on the seed at
GOLDEN_CONFIG, and the closure and validity scan at SEEDED_CONFIG, and
stores the rows of each table, the seeded experiments' reports as
``closure_reports.json`` and ``validity_scan_reports.json`` hold them, plus
the baseline spectral summary of every scenario as ``report`` writes it to
``baseline_summaries.json``. ``tests/test_golden.py`` compares the
program's current outputs with the file under explicit tolerances.
Regenerate only when a change is meant to alter these outputs, and say so
in that change.

``--diff`` writes nothing: it prints, for each golden column, the largest
absolute and relative drift of the current outputs from golden.json, then
every golden location the current outputs lack and every location only
they have, by name. A tolerance for values at their rounding floor is
taken from that listing under equivalent rewrites of the program.

``--columns`` rewrites only the named table or report columns, as
``--diff`` names them, and keeps every other value of golden.json byte
for byte: a change that alters some outputs on purpose regenerates those
alone.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from gprclutter.harness import experiments
from gprclutter.harness.config import ExperimentConfig, ExperimentSettings, RandomFieldConfig
from gprclutter.scene import GeometryConfig

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

#: The default configuration on a 12 x 10 grid (P = 120 instead of 525):
#: all 6 scenarios, the 8 x 8 array and every scan grid.
GOLDEN_CONFIG = ExperimentConfig(geometry=GeometryConfig(n_x=12, n_z=10))

#: GOLDEN_CONFIG at the default seed with L = 500 closure snapshots and 100
#: validity samples per amplitude, which keeps both runs near 0.3 s each.
SEEDED_CONFIG = GOLDEN_CONFIG.replace(
    random_field=RandomFieldConfig(sample_count=500),
    experiments=ExperimentSettings(validity_sample_count=100),
)

#: The experiments whose tables do not depend on the seed.
SEED_FREE = (
    experiments.run_derivative_check,
    experiments.run_kernel_diff,
    experiments.run_fda_scan,
    experiments.run_lx_scan,
    experiments.run_coupling_scan,
    experiments.run_target_scan,
    experiments.run_boundary,
)

#: The experiments run at SEEDED_CONFIG; their reports are kept too.
SEEDED = (experiments.run_closure, experiments.run_validity_scan)


def _run(run, config: ExperimentConfig):
    result = run(config)
    if result.errors:
        raise RuntimeError(f"{result.table.name} failed: {result.errors}")
    return result


def collect() -> dict:
    """{"tables": {name: rows}, "reports": {name: {scenario: report}},
    "baseline_summaries": {scenario: summary}}."""
    tables, reports, summaries = {}, {}, {}
    for run in SEED_FREE:
        result = _run(run, GOLDEN_CONFIG)
        tables[result.table.name] = json.loads(result.table.to_json_text())["rows"]
        summaries.update((sid, s.to_dict()) for sid, s in result.summaries.items())
    for run in SEEDED:
        result = _run(run, SEEDED_CONFIG)
        tables[result.table.name] = json.loads(result.table.to_json_text())["rows"]
        reports[result.table.name] = json.loads(json.dumps(
            {sid: report.to_dict() for sid, report in result.reports.items()}))
    return {"tables": tables, "reports": reports, "baseline_summaries": summaries}


def _float_leaves(node, column: str, where: str):
    """(column, location, value) of every float under ``node``.

    A table row's column is its table and key, a report's or a summary's
    its section and key: one column gathers every scenario and list entry.
    """
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _float_leaves(value, f"{column}.{key}", f"{where}.{key}")
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _float_leaves(value, column, f"{where}[{index}]")
    elif isinstance(node, float):
        yield column, where, node


def _columns(doc: dict) -> dict:
    """{column: {location: value}} over tables, reports and summaries."""
    columns: dict = {}

    def add(leaves):
        for column, where, value in leaves:
            columns.setdefault(column, {})[where] = value

    for name, rows in doc["tables"].items():
        for index, row in enumerate(rows):
            for key, value in row.items():
                add(_float_leaves(value, f"tables.{name}.{key}", f"tables.{name}[{index}].{key}"))
    for name, by_scenario in doc.get("reports", {}).items():
        for sid, report in by_scenario.items():
            for key, value in report.items():
                add(_float_leaves(value, f"reports.{name}.{key}", f"reports.{name}.{sid}.{key}"))
    for sid, summary in doc["baseline_summaries"].items():
        for key, value in summary.items():
            add(_float_leaves(value, f"baseline_summaries.{key}",
                              f"baseline_summaries.{sid}.{key}"))
    return columns


def drift(current: dict, golden: dict) -> list[tuple]:
    """(column, largest absolute drift, its location, largest relative drift,
    its location) of every golden float column, over the locations found
    in ``current`` (see :func:`unmatched` for the others).

    A golden 0.0 that moved has infinite relative drift.
    """
    now = _columns(current)
    rows = []
    for column, values in sorted(_columns(golden).items()):
        worst_abs, worst_rel = (0.0, ""), (0.0, "")
        for where, want in values.items():
            got = now.get(column, {}).get(where)
            if got is None:
                continue
            delta = abs(got - want)
            rel = delta / abs(want) if want else (math.inf if delta else 0.0)
            if delta > worst_abs[0]:
                worst_abs = (delta, where)
            if rel > worst_rel[0]:
                worst_rel = (rel, where)
        rows.append((column, *worst_abs, *worst_rel))
    return rows


def unmatched(current: dict, golden: dict) -> tuple[list[str], list[str]]:
    """(golden float locations missing from ``current``, locations only ``current`` has)."""
    now = {where for values in _columns(current).values() for where in values}
    then = {where for values in _columns(golden).values() for where in values}
    return sorted(then - now), sorted(now - then)


def diff_lines(current: dict, golden: dict) -> list[str]:
    """The ``--diff`` listing: each column's drift, then the unmatched locations."""
    lines = [f"{'column':52s} {'max abs':>10s} {'max rel':>10s}  where (abs | rel)"]
    for column, d_abs, at_abs, d_rel, at_rel in drift(current, golden):
        lines.append(
            f"{column:52s} {d_abs:10.3g} {d_rel:10.3g}  {at_abs or '-'} | {at_rel or '-'}")
    missing, extra = unmatched(current, golden)
    lines += [f"missing from the current outputs: {where}" for where in missing]
    lines += [f"only in the current outputs: {where}" for where in extra]
    return lines


def refresh(golden: dict, current: dict, columns) -> dict:
    """``golden`` with each named table or report column taken from ``current``, in place."""
    for column in columns:
        section, name, key = column.split(".", 2)
        if section not in ("tables", "reports"):
            raise SystemExit(f"{column!r} is not a table or report column")
        old, new = golden[section][name], current[section][name]
        if len(old) != len(new):
            raise SystemExit(f"{section}.{name} has {len(new)} entries, golden {len(old)}")
        for want, got in zip(old, new) if section == "tables" else (
                (old[sid], new[sid]) for sid in old):
            want[key] = got[key]
    return golden


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--diff", action="store_true",
                        help="print each column's drift from golden.json instead of writing it")
    parser.add_argument("--columns", nargs="+", metavar="COLUMN",
                        help="rewrite only these columns, as --diff names them")
    args = parser.parse_args(argv)
    if args.diff or args.columns:
        with open(GOLDEN_PATH, encoding="utf-8") as handle:
            golden = json.load(handle)
    if args.diff:
        print("\n".join(diff_lines(collect(), golden)))
        return 0
    doc = refresh(golden, collect(), args.columns) if args.columns else collect()
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
