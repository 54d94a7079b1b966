"""morseflow benchmark: one closed-loop client driving morseflow.cli.main.

    python3 perfbench/run.py --workload torus-suite --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the package is imported from
the checkout's src/.  One process, one request in flight, no threads,
MORSEFLOW_THREADS removed from the environment.  Each request is one argv
handed to `cli.main` in-process; its report is judged by the oracle in
workloads.py.

A run does a fixed amount of work that takes about --seconds on a 2-vCPU
VM (workloads.budget), so `attempted` and `failed` depend on the seed and
--seconds only.  --trace 0 runs that many requests and reports the
end-to-end metrics.  --trace 1 replays the first few requests of the stream
in a fixed, even number of passes (workloads.trace_passes), alternating
untraced and traced passes, and reports per-layer means per request from
the traced passes and the tracing overhead between the two.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it describe the run.
The program exits 2 without a result when the checkout has no src/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_REPEATS = 7

sys.path.insert(0, str(HERE))
import tracing    # noqa: E402
import workloads  # noqa: E402


def unit(name: str) -> str:
    for suffix, u in (("_per_s", "1/s"), ("_s", "s"), ("_frac", "ratio"), ("_mb", "MB")):
        if name.endswith(suffix):
            return u
    return "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# --- environment record -------------------------------------------------------------

def git_sha(root: Path):
    """HEAD of the checkout read from .git, or None outside a git clone."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines(src: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(src.rglob("*.py")))


def environment(args, inherited_threads) -> dict:
    import numpy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(ROOT), "src_lines": src_lines(SRC),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "MORSEFLOW_THREADS": {"inherited": inherited_threads, "in_run": "unset"},
    }


# --- set-up --------------------------------------------------------------------------

def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports morseflow.cli."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import morseflow.cli"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
    return time.perf_counter() - t0


def set_up(args, workdir: Path, n: int):
    """Median over repeats of (fresh import + input generation).

    One untimed import first, so that compiling src/ to bytecode in a fresh
    checkout is not part of any repeat."""
    import_seconds()
    totals = []
    for _ in range(SETUP_REPEATS):
        t_import = import_seconds()
        t0 = time.perf_counter()
        reqs = workloads.requests(args.workload, args.seed, workdir, n)
        totals.append(t_import + time.perf_counter() - t0)
    return reqs, statistics.median(totals)


# --- one request ------------------------------------------------------------------------

def execute(main, req, tracer=None):
    """Run one request in-process; returns (seconds, outcome, warnings)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = main(list(req.argv))
            else:
                code = tracer.call("cli.main", main, list(req.argv))
        except Exception:   # a traceback escaping main is a crash, not a stop
            code = None
            err.write(traceback.format_exc())
        dt = time.perf_counter() - t0
    return dt, workloads.judge(req, code, out.getvalue()), len(caught)


class Tally:
    def __init__(self):
        self.outcomes = Counter()
        self.unexpected = 0     # failures outside the documented defect class
        self.warnings = 0

    def add(self, req, outcome, n_warnings):
        self.outcomes[outcome] += 1
        self.warnings += n_warnings
        if outcome != "ok" and req.known_defect is None:
            self.unexpected += 1

    @property
    def attempted(self):
        return sum(self.outcomes.values())

    @property
    def failed(self):
        return self.attempted - self.outcomes["ok"]


# --- runs ------------------------------------------------------------------------------

def run_plain(main, reqs, tally):
    times = []
    t0 = time.perf_counter()
    for req in reqs:
        dt, outcome, n_warn = execute(main, req)
        times.append(dt)
        tally.add(req, outcome, n_warn)
    elapsed = time.perf_counter() - t0
    return times, elapsed


def end_to_end(times, elapsed, tally, setup_s) -> dict:
    p90 = (statistics.quantiles(times, n=10, method="inclusive")[-1]
           if len(times) > 1 else times[0])
    return {
        "solve_p50_s": statistics.median(times),
        "solve_p90_s": p90,
        "solves_per_s": tally.outcomes["ok"] / elapsed,
        "correct_frac": tally.outcomes["ok"] / tally.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_traced(main, reqs, passes, tally):
    """Alternate untraced and traced passes over the same requests.

    The traced passes repeat identical work, so their counters per request
    do not depend on the number of passes."""
    tracer = tracing.Tracer()
    plain, traced = [], []
    for k in range(passes):
        use = tracer if k % 2 else None
        t0 = time.perf_counter()
        if use is not None:
            tracer.install()
        try:
            for req in reqs:
                _, outcome, n_warn = execute(main, req, use)
                tally.add(req, outcome, n_warn)
        finally:
            tracer.uninstall()
        (traced if use is not None else plain).append(time.perf_counter() - t0)
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics = tracing.layer_metrics(tracer, len(traced) * len(reqs), overhead)
    return metrics, len(traced), tracer.missing


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "morseflow" / "cli.py").is_file():
        print(f"perfbench: no morseflow sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    inherited = os.environ.pop("MORSEFLOW_THREADS", None)
    workdir = WORK / f"{args.workload}-seed{args.seed}"
    n = (workloads.TRACE_PASS[args.workload] if args.trace
         else workloads.budget(args.workload, args.seconds))
    try:
        reqs, setup_s = set_up(args, workdir, n)
        sys.path.insert(0, str(SRC))
        from morseflow import cli
        if not Path(cli.__file__).resolve().is_relative_to(SRC):
            print(f"perfbench: imported {cli.__file__}, not the checkout's src/",
                  file=sys.stderr)
            return 2
        tally = Tally()
        record = environment(args, inherited)
        if args.trace:
            passes = workloads.trace_passes(args.workload, args.seconds)
            metrics, traced, missing = run_traced(cli.main, reqs, passes, tally)
            record["traced_passes"] = traced
            record["untraced_entry_points"] = missing
            record["pass_requests"] = len(reqs)
            samples = traced * len(reqs)
        else:
            times, elapsed = run_plain(cli.main, reqs, tally)
            metrics = end_to_end(times, elapsed, tally, setup_s)
            record["elapsed_s"] = elapsed
            samples = len(times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    record["outcomes"] = {k: tally.outcomes[k] for k in workloads.OUTCOMES}
    record["unexpected_failures"] = tally.unexpected
    record["warnings"] = tally.warnings
    print(json.dumps({"record": record}, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:<24} {value:>14.6g} {unit(name):<6} n={samples}")
    result = {
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
