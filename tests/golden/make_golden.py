"""Regenerate golden.json, the seed-free outputs the Tier-1 golden gate checks.

Usage (from the repository root):

    PYTHONPATH=src python3 tests/golden/make_golden.py

Runs every experiment whose table does not depend on the seed at
GOLDEN_CONFIG and stores the rows of each table, plus the baseline
spectral summary of every scenario as ``report`` writes it to
``baseline_summaries.json``. ``tests/test_golden.py`` compares the
program's current outputs with the file under explicit tolerances.
Regenerate only when a change is meant to alter these outputs, and say so
in that change.
"""

from __future__ import annotations

import json
import os
import sys

from gprclutter.harness import experiments
from gprclutter.harness.config import ExperimentConfig
from gprclutter.scene import GeometryConfig

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

#: The default configuration on a 12 x 10 grid (P = 120 instead of 525):
#: all 6 scenarios, the 8 x 8 array and every scan grid.
GOLDEN_CONFIG = ExperimentConfig(geometry=GeometryConfig(n_x=12, n_z=10))

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


def collect(config: ExperimentConfig = GOLDEN_CONFIG) -> dict:
    """{"tables": {name: rows}, "baseline_summaries": {scenario: summary}}."""
    tables, summaries = {}, {}
    for run in SEED_FREE:
        result = run(config)
        if result.errors:
            raise RuntimeError(f"{result.table.name} failed: {result.errors}")
        tables[result.table.name] = json.loads(result.table.to_json_text())["rows"]
        summaries.update((sid, s.to_dict()) for sid, s in result.summaries.items())
    return {"tables": tables, "baseline_summaries": summaries}


def main() -> int:
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(collect(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
