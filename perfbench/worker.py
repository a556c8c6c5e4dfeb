"""One benchmark job in a fresh interpreter, so start-up and peak memory are
measured honestly.

Usage: ``python3 worker.py JOB.json SPAWNED_AT``, where SPAWNED_AT is the
``time.monotonic()`` reading the parent took just before starting this
process (the clock is system-wide on Linux).  Prints one JSON object.

Jobs (the ``mode`` field):

- ``setup``: import ``casweep.cli`` and report the set-up time only.
- ``prepare``: synthesize block rules with the public ``synthesize`` and
  write them as input files; nothing is timed.
- ``pass``: run the given CLI command lines in order through
  ``casweep.cli.main`` and report run time, CPU time, peak RSS and each
  case's exit code, stdout and seconds; traced when ``trace`` names
  per-layer metrics.

Every time a worker reports is in reference seconds (see `HostSpeed`).
"""

import contextlib
import gc
import io
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

# Seconds one `_reference_work` call takes on the reference host.  The
# value is the call's typical time on the 2-vCPU VM the benchmark was
# written on, so reference seconds read close to that machine's wall seconds.
REFERENCE_S = 0.0004
TICK_S = 0.01          # interval of the host-speed samples
MIN_SAMPLES = 20       # samples a scale is computed from, at least


def _reference_work() -> int:
    """A fixed slice of the interpreter work casweep does: building tuple
    keys, hashing them, and dict lookups and inserts with small integers."""
    table: dict = {}
    for i in range(1500):
        key = (i & 63, i >> 3)
        table[key] = table.get(key, 0) + i
    return len(table)


class HostSpeed:
    """How fast the host runs Python right now, measured while the job runs.

    On a small VM that shares its host, such as the 2-vCPU one this
    benchmark was written on, the speed drifts by tens of percent within
    seconds and between hours, and the guest sees no steal time.  So a
    timer signal interrupts the job every TICK_S and times one
    `_reference_work` call in the handler.  `clock` and `cpu` are
    perf_counter and process CPU time less the time spent in those calls,
    so the job's own times exclude them.  `scale` turns such a time into
    reference seconds: the time the job would take on a host where one
    call takes REFERENCE_S, judged from the calls made while the job ran
    (their 10%-trimmed mean).
    """

    def __init__(self):
        self.samples: list[float] = []
        self.paused = 0.0
        self.paused_cpu = 0.0

    def _tick(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()            # the job's garbage is not the host's speed
        start, start_cpu = time.perf_counter(), time.process_time()
        _reference_work()
        took = time.perf_counter() - start
        self.paused_cpu += time.process_time() - start_cpu
        self.paused += took
        self.samples.append(took)
        if collecting:
            gc.enable()

    def start(self) -> None:
        for _ in range(3):      # let the interpreter specialise the code first
            _reference_work()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def cpu(self) -> float:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return usage.ru_utime + usage.ru_stime - self.paused_cpu

    def scale(self, since: int = 0) -> float:
        """Reference seconds per second on `clock`, from samples[since:]."""
        while len(self.samples) - since < MIN_SAMPLES:
            signal.pause()      # a short job: wait for the timer
        ordered = sorted(self.samples[since:])
        cut = len(ordered) // 10
        return REFERENCE_S / statistics.fmean(ordered[cut:len(ordered) - cut])


def run_pass(cli, cases: list, host: HostSpeed, tracer) -> dict:
    results = []
    first_sample = len(host.samples)
    cpu0 = host.cpu()
    t0 = host.clock()
    for case in cases:
        if tracer is not None:
            tracer.case = case["id"]
        out = io.StringIO()
        error = None
        code = None
        start = host.clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(case["argv"])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # a case that raises is a failed case
            error = f"{type(exc).__name__}: {exc}"
        results.append({"exit": code, "stdout": out.getvalue(), "error": error,
                        "seconds": host.clock() - start})
    run_s = host.clock() - t0
    cpu_s = host.cpu() - cpu0
    scale = host.scale(first_sample)
    for outcome in results:
        outcome["seconds"] *= scale
    return {"run_s": run_s * scale, "cpu_s": cpu_s * scale, "scale": scale,
            "cases": results}


def prepare(pairs: dict) -> None:
    from casweep.ca import LocalRule
    from casweep.synthesis import synthesize
    for rule_path, out_path in pairs.items():
        rule = LocalRule.from_json(json.loads(Path(rule_path).read_text()))
        Path(out_path).write_text(json.dumps(synthesize(rule).to_json()))


def main() -> None:
    job_path, spawned_at = sys.argv[1], float(sys.argv[2])
    host = HostSpeed()
    host.start()
    import casweep.cli as cli
    setup_s = (time.monotonic() - spawned_at - host.paused) * host.scale()
    job = json.loads(Path(job_path).read_text())
    src = Path(job["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"casweep imported from {cli.__file__}, not from {src}")
    result = {"setup_s": setup_s}
    if job["mode"] == "prepare":
        prepare(job["synthesize"])
    elif job["mode"] == "pass":
        tracer = None
        if job["trace"]:
            from spans import Tracer
            tracer = Tracer(job["trace"], host.clock)
            tracer.install()
        result.update(run_pass(cli, job["cases"], host, tracer))
        if tracer is not None:
            result["layers"] = tracer.layer_metrics(result["scale"])
            tracer.write(job["spans_out"])
    host.stop()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
