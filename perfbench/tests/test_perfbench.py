"""Checks of the benchmark itself.

Run from the repository root (about a minute):

    python3 -B -m pytest -q -p no:cacheprovider perfbench/tests

- the output check passes on unmodified outputs and fails on one perturbed
  table value (seed-independent and seeded) and on one injected
  ``*_errors.json``;
- the tracer sees every call: on report-default at the default seed, each
  wrapped function's span count equals cProfile's call count for it;
- BENCHMARK.json lists exactly the metrics the benchmark prints;
- without the source tree the benchmark exits nonzero and prints no result.
"""

from __future__ import annotations

import collections
import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

sys.dont_write_bytecode = True
BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

DEFAULT_SEED = 20260405


@pytest.fixture(scope="module")
def work():
    with run.work_dir("test-") as path:
        yield path


@pytest.fixture(scope="module")
def jobs(work):
    return {name: run.run_job(name, 7, work) for name in ("structural-scale", "mc-scale")}


def _failures(record: dict, workload: str) -> dict:
    attempted, failures = checks.check_job(
        record["calls"], record["config"], checks.load_reference().get(workload, {}))
    assert attempted > 0
    return failures


def _copy(record: dict, work: str) -> dict:
    """A copy of a job whose outputs can be edited without touching the original."""
    copy = json.loads(json.dumps(record))
    copy["dir"] = tempfile.mkdtemp(prefix="edit-", dir=work)
    for call in copy["calls"]:
        out = os.path.join(copy["dir"], os.path.basename(call["out"]))
        shutil.copytree(call["out"], out)
        call["out"] = out
    return copy


def _out(record: dict, subcommand: str) -> str:
    return next(c["out"] for c in record["calls"] if c["subcommand"] == subcommand)


def _edit_rows(out: str, table: str, edit) -> None:
    path = os.path.join(out, table + ".json")
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    edit(doc["rows"])
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def test_unmodified_outputs_pass(jobs):
    for workload, record in jobs.items():
        assert _failures(record, workload) == {}


def test_perturbed_reference_value_fails(jobs, work):
    record = _copy(jobs["structural-scale"], work)

    def nudge(rows):
        rows[0]["r_eff"] *= 1.0 + 1e-6

    _edit_rows(_out(record, "scan-fda"), "fda_scan", nudge)
    assert list(_failures(record, "structural-scale")) == ["scan-fda/S1"]


def test_perturbed_seeded_value_fails(jobs, work):
    record = _copy(jobs["mc-scale"], work)

    def widen(rows):
        rows[1]["eps_cov_exact"] = rows[1]["eps_cov_lin"] + 0.02

    _edit_rows(_out(record, "closure"), "closure", widen)
    assert list(_failures(record, "mc-scale")) == ["closure/S_syn"]


def test_injected_scenario_error_fails(jobs, work):
    record = _copy(jobs["structural-scale"], work)
    with open(os.path.join(_out(record, "scan-targets"), "target_scan_errors.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"S3": "injected failure"}, handle)
    failures = _failures(record, "structural-scale")
    assert list(failures) == ["scan-targets/S3"]
    attempted, _ = checks.check_job(record["calls"], record["config"],
                                    checks.load_reference()["structural-scale"])
    assert 0 < len(failures) / attempted < 1


def test_tracer_calls_match_cprofile(work):
    record = run.run_job("report-default", DEFAULT_SEED, work, trace=True, profile=True)
    assert checks.check_job(record["calls"], record["config"],
                            checks.load_reference()["report-default"])[1] == {}
    spans_per_name = collections.Counter(span[0] for span in record["spans"])
    calls_per_function = collections.Counter()
    for name, count in spans_per_name.items():
        calls_per_function[record["split_names"].get(name, name)] += count
    profiled = record["profile_calls"]
    assert {k: v for k, v in profiled.items() if v} == dict(calls_per_function)
    metrics = tracer.layer_metrics(record["spans"], record["wall_s"])
    for name, value in metrics.items():
        if name.endswith(".calls"):
            assert value == spans_per_name[name[: -len(".calls")]], name
    assert metrics["trace.coverage"] > 0.98


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()


def test_fails_without_source_tree(work):
    bare = tempfile.mkdtemp(prefix="bare-", dir=work)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-scale", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
