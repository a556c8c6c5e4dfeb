"""Print every end-to-end and per-layer metric, by name and with its unit,
for all workloads (about five minutes).

Usage (from the repository root):

    python3 perfbench/all_metrics.py [--seed N] [--seconds S]

For each workload this makes one untraced and one traced run, exactly as
``run.py`` does, and prints one line per metric.  ``fail_ratio`` (failed
cases over attempted cases, from both runs) is printed with them; it is
not a BENCHMARK.json metric because it is 0 on a correct program.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
from workloads import WORKLOADS


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    problem = run.checkout_problem()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    all_correct = True
    for workload in WORKLOADS:
        attempted = failed = 0
        for trace in (False, True):
            result = run.measure(workload, args.seed, args.seconds, trace)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                print(f"{workload:12s} {name:45s} {metric['value']:>16.6g} {metric['unit']}")
        print(f"{workload:12s} {'fail_ratio':45s} {failed / attempted:>16.6g} ratio")
        all_correct &= failed == 0
        sys.stdout.flush()
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
