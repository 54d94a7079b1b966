"""Digest of every CLI report of the benchmark's requests and of a fixed
set of examples, to show that a change leaves the reports byte-identical.

    python3 tools/report_digest.py ROOT

ROOT is a morseflow source checkout.  The script imports its
`perfbench/workloads.py` (writing no bytecode there) and its
`src/morseflow`, refusing to run when `morseflow.cli` resolves outside
ROOT/src.  For each workload and seeds 1-3 it runs every request of
`workloads.budget(workload, run_seconds)`, with `run_seconds` from
ROOT/BENCHMARK.json, through `cli.main` in-process and hashes its argv,
exit code, stdout and stderr.  Lift loop files are written to a temporary
directory whose path is replaced by a fixed token before hashing, since
`maslov` reports embed the loop path.  It prints one sha256 per workload,
one over EXAMPLES, requests the benchmark never makes (the README's
examples, every subcommand and output format, fields with exp and log,
floer off the circle, connections and flow on rp2, flow from inside a
capture ball and on torusN:4, and the usage errors), and the total of
these four; run it on two checkouts and compare the totals.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

SEEDS = (1, 2, 3)
WORKDIR_TOKEN = "<workdir>"
LOOP = "<loop>"    # in EXAMPLES: the path of LOOP_CSV, written to the work directory
# a line of R^2 turning by half a turn, 17 frames: Maslov index 1
LOOP_CSV = "".join(f"{t:.6f},{math.cos(t):.6f},{math.sin(t):.6f}\n"
                   for t in (math.pi * k / 16 for k in range(17)))
TORUS = ("--manifold", "torus2", "--function", "cos(2*pi*x1) + cos(2*pi*x2)")
CIRCLE = ("--manifold", "circle", "--function")
RP2 = ("--manifold", "rp2", "--function", "(x1^2+2*x2^2+3*x3^2)/(x1^2+x2^2+x3^2)")
EXAMPLES = (
    # the README's examples
    ("critpoints", *TORUS),
    ("flow", "--manifold", "sphere2", "--function", "x3", "--from", "1,0,0"),
    ("connections", *TORUS),
    ("homology", "--manifold", "rp2", "--function", "(1*x2^2 + 2*x3^2)/(x1^2 + x2^2 + x3^2)"),
    ("floer", "--base", "circle", "--function", "cos(2*pi*x1)", "--epsilon", "0.05"),
    ("maslov", "--loop", LOOP),
    ("arnold", "--manifold", "sphere2", "--function", "x3"),
    # homology on the other manifolds, and the other output formats
    ("homology", *CIRCLE, "cos(2*pi*x1)"),
    ("homology", "--manifold", "rp1", "--function", "(x2^2) / (x1^2 + x2^2)"),
    ("homology", "--manifold", "rp3", "--function",
     "(x2^2 + 2*x3^2 + 3*x4^2) / (x1^2 + x2^2 + x3^2 + x4^2)"),
    ("homology", "--manifold", "torusN:3", "--function",
     "cos(2*pi*x1) + cos(2*pi*x2) + cos(2*pi*x3)"),
    # exp and log, whose numpy values differ from math's in the last bit on
    # some inputs, and floer off the circle
    ("critpoints", "--manifold", "sphere2", "--function", "x3 + 0.1*exp(x1)*x2"),
    ("homology", *CIRCLE, "log(2 + cos(2*pi*x1)) + 0.1*sin(2*pi*x1)"),
    ("floer", "--base", "torus2", "--function",
     "exp(cos(2*pi*x1)) + cos(2*pi*x2) + 0.05*sin(2*pi*(x1+2*x2))"),
    ("floer", "--base", *RP2[1:]),
    ("floer", "--base", "sphere2", "--function", "x3 + 0.1*x1*x2"),
    ("critpoints", *TORUS, "--out", "csv"),
    ("flow", *TORUS, "--from", "0.2,0.3", "--out", "json"),
    # the projective branch of connections and flow
    ("connections", *RP2),
    ("flow", *RP2, "--from", "1,0.2,0.1", "--out", "json"),
    # flow from inside a capture ball (captured at once), and flow on a
    # torus whose capture cells key on 3 of its 4 coordinates
    ("flow", *RP2, "--from", "0,0,-1", "--out", "json"),
    ("flow", "--manifold", "torusN:4", "--function",
     "cos(2*pi*x1)+cos(2*pi*x2)+cos(2*pi*x3)+cos(2*pi*x4)", "--grid", "4",
     "--from", "0.1,0.2,0.3,0.4"),
    # usage errors
    ("critpoints", *CIRCLE, "cos(2*pi*x1"),
    ("critpoints", *CIRCLE, "x1^\u00b2"),
    ("critpoints", *CIRCLE, "1e400*x1"),
    ("critpoints", *CIRCLE, "(" * 300 + "x1" + ")" * 300),
    ("critpoints", *CIRCLE, "foo(x1)"),
    ("critpoints", "--manifold", "torus2", "--function", "x1"),
    ("critpoints", "--manifold", "rp2", "--function", "x3"),
    ("critpoints", *TORUS, "--grid", "1"),
    ("floer", "--base", "circle", "--function", "cos(2*pi*x1)", "--epsilon", "nan"),
    ("critpoints", "--manifold", "klein", "--function", "cos(2*pi*x1)"),
)


def _load(name: str, path: Path):
    """Import the module at `path` without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _cli(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    from morseflow import cli
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"report_digest: imported {cli.__file__}, not {src}")
    return cli


def _request_digest(main, argv, workdir: str) -> bytes:
    """sha256 of one request's argv, exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("always")   # every warning prints, in every request
        try:
            code = str(main(list(argv)))
        except Exception as exc:          # a crash: its type and message, not its frames
            code = "".join(traceback.format_exception_only(type(exc), exc))
    parts = [" ".join(argv), code, out.getvalue(), err.getvalue()]
    text = "\0".join(parts).replace(workdir, WORKDIR_TOKEN)
    return hashlib.sha256(text.encode("utf-8")).digest()


def _examples_digest(main):
    """The sha256 object over the requests of EXAMPLES, in order."""
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as workdir:
        loop = Path(workdir) / "loop.csv"
        loop.write_text(LOOP_CSV, encoding="utf-8")
        for argv in EXAMPLES:
            h.update(_request_digest(main, [str(loop) if a == LOOP else a for a in argv],
                                     workdir))
    return h


def digests(root: Path, seeds=SEEDS, limit: int | None = None) -> dict:
    """Hex sha256 per workload over its requests of every seed, in order,
    "examples" over EXAMPLES, and "total" over these; `limit` caps the
    requests per seed of each workload."""
    root = Path(root)
    workloads = _load("report_digest_workloads", root / "perfbench" / "workloads.py")
    seconds = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    main = _cli(root).main
    out, total = {}, hashlib.sha256()
    for name in workloads.WORKLOADS:
        h = hashlib.sha256()
        n = workloads.budget(name, seconds)
        if limit is not None:
            n = min(n, limit)
        for seed in seeds:
            with tempfile.TemporaryDirectory() as workdir:
                for req in workloads.requests(name, seed, Path(workdir), n):
                    h.update(_request_digest(main, req.argv, workdir))
        out[name] = h.hexdigest()
        total.update(h.digest())
    h = _examples_digest(main)
    out["examples"] = h.hexdigest()
    total.update(h.digest())
    out["total"] = total.hexdigest()
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if len(argv) != 1:
        print("usage: report_digest.py ROOT", file=sys.stderr)
        return 2
    for name, digest in digests(Path(argv[0])).items():
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
