"""Golden gate: the program's outputs against ``tests/golden/golden.json``.

``tests/golden/make_golden.py`` generates the golden set: every seed-free
table at a small configuration, the closure and validity-scan tables and
reports at one fixed seed, and the baseline spectral summaries. A change
may alter rounding, not results. Each float is compared under the
tolerance of its kind below; integers (``p_0.9``, ``p_0.95``, ``p_rho``,
``subspace_dim``, ``sample_count``), ``recommended_s_mu``, flags, names and
grid inputs of another type must match exactly.
"""

import copy
import json
import math

import numpy as np
import pytest

from golden.make_golden import GOLDEN_PATH, collect, diff_lines

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

#: The validity scan's per-amplitude p95 errors sit at their rounding floor
#: at small amplitudes. Each bound is the largest drift of its column under
#: three equivalent exact-contrast formulations (the complex-power core,
#: the relaxation difference in real arithmetic, and a division by eps_b
#: instead of a product with its reciprocal), from ``make_golden.py
#: --diff``: 2.35e-12 (S4, s = 0.0625) and 4.82e-13 (S_syn, s = 0.125),
#: up to 4.2e-7 relative (S2, s = 0.0625).
P95_ATOL = {"p95_contrast_error": 2.4e-12, "p95_snapshot_error": 4.9e-13}

#: Floats compared exactly: the recommendation is a grid value, not a result
#: of arithmetic.
EXACT_FLOATS = frozenset(("recommended_s_mu",))

#: The argmax of rounding-level errors: not compared.
UNCOMPARED = frozenset(("worst_channel", "worst_frequency_hz"))

#: Eigenvalues: absolute, as a multiple of the largest.
EIGENVALUE_TOL_OF_MAX = 1e-14


def _close(got: float, want: float, rtol: float = 0.0, atol: float = 0.0) -> bool:
    return abs(got - want) <= atol + rtol * abs(want)


def _float_ok(table: str, row: dict, column: str, got: float, want: float) -> bool:
    if column in P95_ATOL:
        return _close(got, want, rtol=STRUCTURAL_RTOL, atol=P95_ATOL[column])
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
            if not _value_ok(table, ref, column, got, want):
                yield f"{where}.{column}: {got!r}, golden {want!r}"


def _value_ok(table: str, row: dict, column: str, got, want) -> bool:
    if isinstance(want, float) and isinstance(got, float) and column not in EXACT_FLOATS:
        return _float_ok(table, row, column, got, want)
    return got == want and type(got) is type(want)


def _report_mismatches(name: str, sid: str, report: dict, ref: dict):
    where = f"reports.{name}.{sid}"
    if set(report) != set(ref):
        yield f"{where}: keys {sorted(set(report) ^ set(ref))} differ"
        return
    for key, want in ref.items():
        got = report[key]
        if isinstance(want, list):
            if not isinstance(got, list) or len(got) != len(want):
                yield f"{where}.{key}: {got!r}, golden {want!r}"
                continue
            pairs = [(f"{where}.{key}[{i}]", g, w) for i, (g, w) in enumerate(zip(got, want))]
        else:
            pairs = [(f"{where}.{key}", got, want)]
        for at, g, w in pairs:
            if not _value_ok(name, report, key, g, w):
                yield f"{at}: {g!r}, golden {w!r}"


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
    reports, golden_reports = current["reports"], golden["reports"]
    for name in sorted(set(reports) | set(golden_reports)):
        scenarios, golden_scenarios = reports.get(name, {}), golden_reports.get(name, {})
        if set(scenarios) != set(golden_scenarios):
            found.append(f"reports.{name}: scenarios {sorted(scenarios)}, "
                         f"golden {sorted(golden_scenarios)}")
        for sid in sorted(set(scenarios) & set(golden_scenarios)):
            found.extend(_report_mismatches(name, sid, scenarios[sid], golden_scenarios[sid]))
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
    "eps_cov_exact": (("tables", "closure", 3, "eps_cov_exact"),
                      lambda v: v * (1 + 2 * STRUCTURAL_RTOL)),
    "subspace_dim": (("tables", "closure", 0, "subspace_dim"), lambda v: v + 1),
    "worst p95": (("tables", "validity_scan", 1, "worst_p95_contrast"),
                  lambda v: v * (1 + 2 * STRUCTURAL_RTOL)),
    "recommended_s_mu": (("tables", "validity_scan", 0, "recommended_s_mu"),
                         lambda v: math.nextafter(v, 0.0)),
    "report eps_sub": (("reports", "closure", "S4", "eps_sub"),
                       lambda v: v * (1 + 2 * STRUCTURAL_RTOL)),
    "report sample_count": (("reports", "closure", "S1", "sample_count"), lambda v: v - 1),
    # The largest drift of each p95 column was at small amplitude: twice the
    # bound there is still a few parts in 1e6 of the value.
    "p95 contrast": (("reports", "validity_scan", "S4", "p95_contrast_error", 0),
                     lambda v: v + 2 * P95_ATOL["p95_contrast_error"]),
    "p95 snapshot": (("reports", "validity_scan", "S_syn", "p95_snapshot_error", 1),
                     lambda v: v + 2 * P95_ATOL["p95_snapshot_error"]),
    "report recommended_s_mu": (("reports", "validity_scan", "S2", "recommended_s_mu"),
                                lambda v: math.nextafter(v, 0.0)),
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


def test_drift_listing_names_a_dropped_row_and_an_added_one(current, golden):
    dropped = copy.deepcopy(current)
    row = dropped["tables"]["kernel_diff"].pop()
    index = len(dropped["tables"]["kernel_diff"])
    lines = diff_lines(dropped, golden)
    assert f"missing from the current outputs: tables.kernel_diff[{index}].delta_a" in lines
    assert not any(line.startswith("only in") for line in lines)
    added = copy.deepcopy(current)
    added["tables"]["kernel_diff"].append(row)
    lines = diff_lines(added, golden)
    assert f"only in the current outputs: tables.kernel_diff[{index + 1}].delta_a" in lines
    assert not any(line.startswith("missing") for line in lines)
    assert not any(line.startswith(("missing", "only in")) for line in diff_lines(current, golden))
