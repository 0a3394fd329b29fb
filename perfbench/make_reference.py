"""Regenerate reference.json, the expected seed-independent output tables.

Usage (from the repository root): python3 perfbench/make_reference.py

Runs one job of each workload that has seed-independent tables and stores
the rows of those tables. Regenerate only when a change is meant to alter
these outputs, and say so in that change.
"""

from __future__ import annotations

import json
import os
import sys

sys.dont_write_bytecode = True

import checks  # noqa: E402
import run  # noqa: E402

# Seed-independent subcommands per workload.
SEEDLESS = {
    "report-default": ("check-derivatives", "kernel-diff"),
    "structural-scale": run.STRUCTURAL,
}


def main() -> int:
    reference = {}
    with run.work_dir("reference-") as work:
        for workload, subcommands in SEEDLESS.items():
            record = run.run_job(workload, 0, work)
            tables = {}
            for call in record["calls"]:
                if call["code"] != 0:
                    raise SystemExit(f"{workload} {call['subcommand']} exited {call['code']}")
                for subcommand in subcommands:
                    if subcommand in checks.covered(call["subcommand"]):
                        path = os.path.join(call["out"], checks.TABLES[subcommand] + ".json")
                        with open(path, encoding="utf-8") as handle:
                            tables[subcommand] = json.load(handle)["rows"]
            reference[workload] = tables
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
