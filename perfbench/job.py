"""One benchmark job: a fresh process that drives the gprclutter CLI.

Usage: python3 perfbench/job.py SPEC.json

The spec names the source tree, the CLI argument lists to run in order,
whether to trace or profile, and where to write the result JSON. The
process times the import of ``gprclutter.harness.cli`` (set-up), then calls
``cli.main(argv)`` once per argument list. Wall time runs from the first
call to the last return; CPU time and peak RSS come from ``getrusage`` of
this process, BLAS threads included. Standard output of the CLI goes to
the spec's log file.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
import traceback

import tracer


def _environment() -> dict:
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
    }


def _config_facts(config_path: str) -> dict:
    """Scenario lists and grid values the output check needs."""
    from gprclutter.harness.config import load_config

    config = load_config(config_path)
    exp = config.experiments
    return {
        "scenarios": list(config.scenarios),
        "lx_scan_scenario": exp.lx_scan_scenario,
        "coupling_scenario": exp.coupling_scenario,
        "boundary_scenarios": list(exp.boundary_scenarios),
        "kernel_diff_scenarios": list(exp.kernel_diff_scenarios),
        "amplitude_grid": list(exp.amplitude_grid),
        "sample_count": config.random_field.sample_count,
    }


def _profile_counts(profile, originals: dict) -> dict:
    import pstats

    stats = pstats.Stats(profile).stats
    counts = {}
    for name, fn in originals.items():
        code = fn.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        counts[name] = stats[key][1] if key in stats else 0
    return counts


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    start = time.perf_counter()
    import gprclutter.harness.cli as cli
    setup_s = time.perf_counter() - start
    if not os.path.abspath(cli.__file__).startswith(spec["src"] + os.sep):
        raise RuntimeError(f"imported gprclutter from {cli.__file__}, not {spec['src']}")
    record = {"setup_s": setup_s}
    if spec["calls"]:
        record.update(_run(cli, spec))
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


def _run(cli, spec: dict) -> dict:
    facts = _config_facts(spec["config"])
    active = tracer.install() if spec["trace"] else None
    profile = None
    if spec["profile"]:
        import cProfile

        profile = cProfile.Profile()
    codes = []
    with open(spec["log"], "w", encoding="utf-8") as log, contextlib.redirect_stdout(log):
        if profile is not None:
            profile.enable()
        first = time.perf_counter()
        for argv in spec["calls"]:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash is one failed call, not a failed benchmark
                traceback.print_exc(file=log)
                code = "exception"
            codes.append(code)
        last = time.perf_counter()
        if profile is not None:
            profile.disable()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record = {
        "wall_s": last - first,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "codes": codes,
        "config": facts,
        "environment": _environment(),
    }
    if active is not None:
        record["spans"] = active.spans
        record["split_names"] = active.split_names
    if profile is not None:
        record["profile_calls"] = _profile_counts(profile, active.originals)
    return record


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
