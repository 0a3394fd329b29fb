"""Golden gate: the seed-free outputs against ``tests/golden/golden.json``.

``tests/golden/make_golden.py`` generates the golden set: every seed-free
table at a small configuration and the baseline spectral summaries. A
change may alter rounding, not results. Each float is compared under the
tolerance of its kind below; integers (``p_0.9``, ``p_0.95``, ``p_rho``),
flags, names and grid inputs of another type must match exactly.
"""

import copy
import json

import numpy as np
import pytest

from golden.make_golden import GOLDEN_PATH, collect

#: Structural metrics (r_eff, trace, delta_a, ...): relative.
STRUCTURAL_RTOL = 1e-9

#: eta and its complement gamma are shares of a unit-norm steering vector,
#: so their 1e-9 is relative to that unit, not to the share.
SHARE_COLUMNS = frozenset(
    ("eta_0.9", "gamma_0.9", "mean_eta", "std_eta", "min_eta", "max_eta"))
SHARE_ATOL = 1e-9

#: At 0 dB, p_0.9 = 52 of 64 channels, so the boundary-noise eta and gamma
#: are set by nugget-level eigenvectors: an 8e-18 change of the spatial
#: diagonal moved gamma by 1.5e-9 (structural-scale S4).
ZERO_DB_SHARE_ATOL = 1.5e-9

#: Finite-difference errors are rounding noise: an equivalent formula moved
#: them by 40%, which is 2.2e-8 of the largest (5.5e-8, S_balance).
DERIVATIVE_ERROR_ATOL = 2.2e-8

#: The argmax of rounding-level errors: not compared.
UNCOMPARED = frozenset(("worst_channel", "worst_frequency_hz"))

#: Eigenvalues: absolute, as a multiple of the largest.
EIGENVALUE_TOL_OF_MAX = 1e-14


def _close(got: float, want: float, rtol: float = 0.0, atol: float = 0.0) -> bool:
    return abs(got - want) <= atol + rtol * abs(want)


def _float_ok(table: str, row: dict, column: str, got: float, want: float) -> bool:
    if column in SHARE_COLUMNS:
        zero_db = table == "boundary" and row["snr_db"] == 0.0
        return _close(got, want, atol=ZERO_DB_SHARE_ATOL if zero_db else SHARE_ATOL)
    if column == "max_rel_error":
        return _close(got, want, atol=DERIVATIVE_ERROR_ATOL)
    return _close(got, want, rtol=STRUCTURAL_RTOL)


def _table_mismatches(table: str, rows: list, golden_rows: list):
    if len(rows) != len(golden_rows):
        yield f"{table}: {len(rows)} rows, golden {len(golden_rows)}"
        return
    for index, (row, ref) in enumerate(zip(rows, golden_rows)):
        where = f"{table}[{index}]"
        if set(row) != set(ref):
            yield f"{where}: columns {sorted(set(row) ^ set(ref))} differ"
            continue
        for column, want in ref.items():
            got = row[column]
            if column in UNCOMPARED:
                continue
            if isinstance(want, float) and isinstance(got, float):
                ok = _float_ok(table, ref, column, got, want)
            else:
                ok = got == want and type(got) is type(want)
            if not ok:
                yield f"{where}.{column}: {got!r}, golden {want!r}"


def _summary_mismatches(sid: str, summary: dict, ref: dict):
    where = f"baseline_summaries.{sid}"
    if set(summary) != set(ref):
        yield f"{where}: keys {sorted(set(summary) ^ set(ref))} differ"
        return
    for key in ("eigenvalues", "normalized_eigenvalues"):
        got, want = np.asarray(summary[key]), np.asarray(ref[key])
        if got.shape != want.shape:
            yield f"{where}.{key}: {got.size} values, golden {want.size}"
            continue
        worst = np.abs(got - want).max()
        if not worst <= EIGENVALUE_TOL_OF_MAX * np.abs(want).max():
            yield f"{where}.{key}: deviates by {float(worst)!r} (largest {float(want.max())!r})"
    for key in ("r_eff", "trace"):
        if not _close(summary[key], ref[key], rtol=STRUCTURAL_RTOL):
            yield f"{where}.{key}: {summary[key]!r}, golden {ref[key]!r}"
    for key in ("p_rho", "provenance"):
        if summary[key] != ref[key]:
            yield f"{where}.{key}: {summary[key]!r}, golden {ref[key]!r}"


def mismatches(current: dict, golden: dict) -> list[str]:
    """Every value of ``current`` outside its tolerance of ``golden``."""
    found = []
    for name in sorted(set(current["tables"]) | set(golden["tables"])):
        if name not in current["tables"] or name not in golden["tables"]:
            found.append(f"{name}: table missing on one side")
            continue
        found.extend(_table_mismatches(name, current["tables"][name], golden["tables"][name]))
    summaries, golden_summaries = current["baseline_summaries"], golden["baseline_summaries"]
    if set(summaries) != set(golden_summaries):
        found.append(f"baseline_summaries: scenarios {sorted(summaries)}, "
                     f"golden {sorted(golden_summaries)}")
    for sid in sorted(set(summaries) & set(golden_summaries)):
        found.extend(_summary_mismatches(sid, summaries[sid], golden_summaries[sid]))
    return found


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def current():
    return collect()


def test_seed_free_outputs_match_the_golden_set(current, golden):
    assert mismatches(current, golden) == []


#: One value per kind of tolerance, each moved by twice its tolerance: path
#: into the golden document, and the change.
PERTURBATIONS = {
    "r_eff": (("tables", "lx_scan", 1, "r_eff"), lambda v: v * (1 + 2 * STRUCTURAL_RTOL)),
    "delta_a": (("tables", "kernel_diff", 1, "delta_a"),
                lambda v: v * (1 + 2 * STRUCTURAL_RTOL)),
    "diagonal delta_a": (("tables", "kernel_diff", 0, "delta_a"), lambda v: 5e-324),
    "p_0.9": (("tables", "fda_scan", 2, "p_0.9"), lambda v: v + 1),
    "eta": (("tables", "target_scan", 0, "eta_0.9"), lambda v: v + 2 * SHARE_ATOL),
    # Row 10 is S4 at 0 dB: 6 scale rows, then S2's 3 noise rows and S4's.
    "0 dB gamma": (("tables", "boundary", 10, "gamma_0.9"),
                   lambda v: v + 2 * ZERO_DB_SHARE_ATOL),
    "derivative error": (("tables", "derivative_check", 5, "max_rel_error"),
                         lambda v: v + 2 * DERIVATIVE_ERROR_ATOL),
    "eigenvalue": (("baseline_summaries", "S4", "eigenvalues", 0),
                   lambda v: v * (1 + 2 * EIGENVALUE_TOL_OF_MAX)),
    "p_rho": (("baseline_summaries", "S2", "p_rho", "0.9"), lambda v: v + 1),
}


@pytest.mark.parametrize("name", PERTURBATIONS)
def test_golden_comparator_rejects_a_perturbed_value(current, golden, name):
    path, change = PERTURBATIONS[name]
    perturbed = copy.deepcopy(golden)
    node = perturbed
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = change(node[path[-1]])
    (found,) = mismatches(current, perturbed)
    section, part, key, *_ = path
    where = f"{part}[{key}]" if section == "tables" else f"{section}.{part}.{key}"
    assert found.startswith(where), found
    assert golden["tables"]["boundary"][10]["snr_db"] == 0.0
