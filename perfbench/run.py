"""gprclutter benchmark: batch CLI jobs timed end to end and traced per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload report-default --seed 1 --seconds 30 --trace 0

Each job is one fresh Python process (``job.py``) that imports the CLI from
``src/`` and calls ``cli.main`` once per subcommand of the workload; the
next job starts after the previous one exits (a closed loop, one client).
A run starts jobs while the next one is predicted to end within
``--seconds``, and always runs at least one (two with ``--trace 1``: one
untraced, one traced). Outputs go to a fresh directory under
``.perfbench-work/`` in the checkout and are removed at the end.

``--trace 0`` reports the end-to-end metrics, each the median over the
run's jobs; ``--trace 1`` alternates untraced and traced jobs and reports
the per-layer metrics of the traced ones. The last line of standard output
is the JSON result; the lines before it print every metric by name with
its unit, the error rate, and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

import checks  # noqa: E402
import tracer  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")

STRUCTURAL = ("check-derivatives", "kernel-diff", "scan-fda", "scan-lx",
              "scan-coupling", "scan-targets", "boundary-scale", "boundary-noise")

# name -> (config file under configs/, subcommands run in order)
WORKLOADS = {
    "report-default": ("report-default.yaml", ("report",)),
    "structural-scale": ("structural-scale.yaml", STRUCTURAL),
    "mc-scale": ("mc-scale.yaml", ("scan-validity", "closure")),
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# Pinned BLAS thread count. Interleaved jobs on a shared 2-vCPU VM varied
# by 1.3% (coefficient of variation) with one thread and 7% with two.
BLAS_THREADS = 1
# Fresh interpreters that only import the CLI, for a steadier setup_s median.
SETUP_PROBES = 7
# A run ends within this many seconds or fails.
RUN_LIMIT_S = 170


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed operation)."""


def _child_env(work: str) -> dict:
    env = dict(os.environ)
    threads = str(BLAS_THREADS)
    env.update(
        PYTHONPATH=SRC,
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
        TMPDIR=work,
    )
    return env


@contextlib.contextmanager
def work_dir(prefix: str):
    """A fresh directory under WORK_ROOT, removed (with WORK_ROOT if empty) on exit."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=WORK_ROOT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still be using it
            os.rmdir(WORK_ROOT)


def run_job(workload: str | None, seed: int, work: str, trace: bool = False,
            profile: bool = False, timeout: float = RUN_LIMIT_S) -> dict:
    """Run one job in a fresh process; returns its record with the CLI calls.

    ``workload=None`` only times the import. ``profile`` also traces, and
    records cProfile's call count of every traced function.
    """
    job_dir = tempfile.mkdtemp(prefix="job-", dir=work)
    calls = []
    spec = {"src": SRC, "trace": trace or profile, "profile": profile, "calls": [],
            "result": os.path.join(job_dir, "result.json"),
            "log": os.path.join(job_dir, "cli.log")}
    if workload is not None:
        config_name, subcommands = WORKLOADS[workload]
        spec["config"] = os.path.join(BENCH_DIR, "configs", config_name)
        for index, subcommand in enumerate(subcommands):
            out = os.path.join(job_dir, f"{index}-{subcommand}")
            calls.append({"subcommand": subcommand, "out": out})
            spec["calls"].append(["--config", spec["config"], "--seed", str(seed),
                                  "--out", out, subcommand])
    spec_path = os.path.join(job_dir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "job.py"), spec_path],
            cwd=job_dir, env=_child_env(work), timeout=timeout,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"job of {workload} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"job process failed with exit code {proc.returncode}:\n{proc.stdout}")
    with open(spec["result"], encoding="utf-8") as handle:
        record = json.load(handle)
    for call, code in zip(calls, record.get("codes", ())):
        call["code"] = code
    record["calls"] = calls
    record["dir"] = job_dir
    return record


def _config_hash(calls: list[dict]) -> str | None:
    """The config hash the CLI recorded (summary.json for report)."""
    for call in calls:
        for name in ("summary.json", f"{checks.TABLES.get(call['subcommand'], '')}.json"):
            path = os.path.join(call["out"], name)
            if os.path.exists(path):
                with open(path, encoding="utf-8") as handle:
                    doc = json.load(handle)
                return doc.get("config_hash") or doc["provenance"]["config_hash"]
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


class Run:
    """The jobs of one benchmark run and their checked outcomes."""

    def __init__(self, workload: str, seed: int, work: str):
        self.workload, self.seed, self.work = workload, seed, work
        self.reference = checks.load_reference().get(workload, {})
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.setup: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, str] = {}
        self.config_hashes: set = set()
        self.environment: dict = {}
        self.longest_job_s = 0.0
        self.deadline = time.perf_counter() + RUN_LIMIT_S

    def _job(self, workload: str | None, trace: bool = False) -> dict:
        return run_job(workload, self.seed, self.work, trace=trace,
                       timeout=max(self.deadline - time.perf_counter(), 0.1))

    def job(self, trace: bool) -> None:
        start = time.perf_counter()
        record = self._job(self.workload, trace)
        self.longest_job_s = max(self.longest_job_s, time.perf_counter() - start)
        attempted, failures = checks.check_job(record["calls"], record["config"], self.reference)
        self.attempted += attempted
        self.failed += len(failures)
        self.failures.update(failures)
        self.config_hashes.add(_config_hash(record["calls"]))
        self.environment = record["environment"]
        if trace:
            self.traced.append(record)
        else:
            self.untraced.append(record)
            self.setup.append(record["setup_s"])
        shutil.rmtree(record["dir"])

    def probe_setup(self) -> None:
        record = self._job(None)
        self.setup.append(record["setup_s"])
        shutil.rmtree(record["dir"])

    def end_to_end(self) -> dict:
        metrics = {"setup_s": statistics.median(self.setup)}
        for name in ("wall_s", "cpu_s", "peak_rss_mb"):
            metrics[name] = statistics.median(r[name] for r in self.untraced)
        return metrics

    def per_layer(self) -> dict:
        per_job = [tracer.layer_metrics(r["spans"], r["wall_s"]) for r in self.traced]
        metrics = {name: statistics.median(m[name] for m in per_job) for name in per_job[0]}
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in self.traced)
                                       - statistics.median(r["wall_s"] for r in self.untraced))
        return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool, work: str) -> Run:
    run = Run(workload, seed, work)
    start = time.perf_counter()
    if not trace:
        for _ in range(SETUP_PROBES):
            run.probe_setup()
    kinds = [False, True] if trace else [False]
    while True:
        for kind in kinds:
            run.job(trace=kind)
        elapsed = time.perf_counter() - start
        if elapsed + len(kinds) * run.longest_job_s > seconds:
            return run


def report(run: Run, trace: bool, seconds: float) -> dict:
    if trace:
        metrics, units = run.per_layer(), tracer.metric_units()
    else:
        metrics, units = run.end_to_end(), END_TO_END_UNITS
    environment = {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": seconds,
        "config_hash": sorted(h for h in run.config_hashes if h),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_threads": BLAS_THREADS,
        "jobs_untraced": len(run.untraced),
        "jobs_traced": len(run.traced),
        "setup_samples": len(run.setup),
        **run.environment,
    }
    print("environment " + json.dumps(environment, sort_keys=True))
    for key, reason in sorted(run.failures.items()):
        print(f"failed {key}: {reason}")
    print(f"error_rate = {run.failed / run.attempted!r} ratio "
          f"({run.failed} of {run.attempted} operations)")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def _terminate(signum, frame):
    # Unwinds through subprocess.run, which kills and reaps the running job.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gprclutter", "harness", "cli.py")):
        print(f"error: no gprclutter source tree at {SRC}", file=sys.stderr)
        return 2
    try:
        with work_dir("run-") as work:
            run = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
            result = report(run, bool(args.trace), args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
