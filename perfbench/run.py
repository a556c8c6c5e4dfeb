"""casweep benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload exact-q2 --seed 1 --seconds 25 --trace 0

Each pass over the workload's cases runs in a fresh worker process
(`worker.py`), one process at a time, against the checkout's own
``src/casweep``.  Passes repeat until the next one would overrun
``--seconds`` (at least one pass).  With ``--trace 0`` the last line of
stdout is the end-to-end result; with ``--trace 1`` passes run in pairs,
untraced then traced, and the result carries the per-layer metrics and the
tracing overhead.  Metric names and units come from BENCHMARK.json; every
case's outcome is checked against a known answer (`workloads.py`).  Times
are in reference seconds, corrected for the host's speed while they were
measured (`worker.HostSpeed`).

Exit code 0 with a result line, 2 on bad arguments or a checkout without
the program, 1 when a worker crashes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

from workloads import WORKLOADS, Case, Plan

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
STATE = ROOT / ".perfbench"
WORK = STATE / "work"
SETUP_WORKERS = 5          # extra set-up-only workers per run, for the median
RUN_LIMIT_S = 175          # a run must end within 180 s


class WorkerError(RuntimeError):
    """A worker process failed outside any case."""


def spawn(job: dict, deadline: float) -> dict:
    """Run one worker job to completion and return its JSON result."""
    job = dict(job, src=str(ROOT / "src"))
    job_path = WORK / "job.json"
    job_path.write_text(json.dumps(job))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), str(job_path), repr(spawned)],
            env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{job['mode']} worker passed the run time limit") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{job['mode']} worker exited {proc.returncode}:\n"
                          f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_pass(cases: list[Case], result: dict) -> list[str]:
    """Failure messages, one per case whose outcome differs from its known
    answer or that raised."""
    failures = []
    for case, outcome in zip(cases, result["cases"]):
        if outcome["error"] is not None:
            failures.append(f"{case.id}: raised {outcome['error']}")
            continue
        try:
            report = json.loads(outcome["stdout"])
        except ValueError:
            failures.append(f"{case.id}: exit {outcome['exit']}, no JSON report")
            continue
        problem = case.check(outcome["exit"], report)
        if problem:
            failures.append(f"{case.id}: {problem}")
    return failures


class Run:
    """State of one benchmark run: passes made and failures found."""

    def __init__(self, cases: list[Case], workload: str, seed: int,
                 layer_metrics: list[str]):
        self.cases = cases
        self.layer_metrics = layer_metrics
        self.spans_out = STATE / "spans" / f"{workload}-seed{seed}.json"
        self.attempted = 0
        self.failures: list[str] = []
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def run_pass(self, trace: bool) -> dict:
        job = {"mode": "pass", "trace": self.layer_metrics if trace else [],
               "spans_out": str(self.spans_out),
               "cases": [{"id": c.id, "argv": c.argv} for c in self.cases]}
        result = spawn(job, self.deadline)
        self.attempted += len(self.cases)
        self.failures += check_pass(self.cases, result)
        return result

    def repeat(self, seconds: float, step) -> list:
        """Call step() until the next call would end after `seconds`."""
        start = time.monotonic()
        results = []
        while True:
            t0 = time.monotonic()
            results.append(step())
            now = time.monotonic()
            if now - start + (now - t0) > seconds:
                return results


def end_to_end(run: Run, seconds: float) -> dict[str, float]:
    """Medians over the run's passes; a case's time is its median over the
    passes, and `case_s.max` the largest of those."""
    passes = run.repeat(seconds, lambda: run.run_pass(trace=False))
    setups = [p["setup_s"] for p in passes]
    setups += [spawn({"mode": "setup"}, run.deadline)["setup_s"]
               for _ in range(SETUP_WORKERS)]
    case_s = [statistics.median(p["cases"][i]["seconds"] for p in passes)
              for i in range(len(run.cases))]
    return {
        "run_s": statistics.median(p["run_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "case_s.max": max(case_s),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setups),
    }


def per_layer(run: Run, seconds: float) -> dict[str, float]:
    pairs = run.repeat(seconds, lambda: (run.run_pass(trace=False),
                                         run.run_pass(trace=True)))
    metrics = {name: statistics.median(traced["layers"][name] for _, traced in pairs)
               for name in pairs[0][1]["layers"]}
    metrics["trace.overhead"] = statistics.median(
        traced["run_s"] / plain["run_s"] for plain, traced in pairs)
    return metrics


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            pick: Callable[[Plan], list[Case]] | None = None) -> dict:
    """One run; returns the result object.  `pick` chooses the cases from
    the workload's plan instead of taking all of them (the self-test uses
    it to run only the cheap ones)."""
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    (STATE / "spans").mkdir(exist_ok=True)
    try:
        plan = WORKLOADS[workload](ROOT, WORK, seed)
        layer_metrics = [name for name in declared_metrics(True) if name != "trace.overhead"]
        run = Run(plan.cases if pick is None else pick(plan), workload, seed, layer_metrics)
        if plan.synthesize:
            spawn({"mode": "prepare", "synthesize": plan.synthesize}, run.deadline)
        values = (per_layer if trace else end_to_end)(run, seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    units = declared_metrics(trace)
    missing = sorted(set(units) - set(values))
    if missing:
        raise WorkerError(f"declared metrics not measured: {', '.join(missing)}")
    for failure in run.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def checkout_problem() -> str | None:
    for needed in ("src/casweep/cli.py", "tests/golden", "BENCHMARK.json"):
        if not (ROOT / needed).exists():
            return f"{ROOT / needed} is missing: run from a casweep checkout"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = checkout_problem()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
