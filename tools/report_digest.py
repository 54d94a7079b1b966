"""Digest of every CLI report of the benchmark's requests, to show that a
change leaves the reports byte-identical.

    python3 tools/report_digest.py ROOT

ROOT is a morseflow source checkout.  The script imports its
`perfbench/workloads.py` (writing no bytecode there) and its
`src/morseflow`, refusing to run when `morseflow.cli` resolves outside
ROOT/src.  For each workload and seeds 1-3 it runs every request of
`workloads.budget(workload, run_seconds)`, with `run_seconds` from
ROOT/BENCHMARK.json, through `cli.main` in-process and hashes its argv,
exit code, stdout and stderr.  Lift loop files are written to a temporary
directory whose path is replaced by a fixed token before hashing, since
`maslov` reports embed the loop path.  It prints one sha256 per workload
and their total; run it on two checkouts and compare the totals.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

SEEDS = (1, 2, 3)
WORKDIR_TOKEN = "<workdir>"


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


def digests(root: Path, seeds=SEEDS, limit: int | None = None) -> dict:
    """Hex sha256 per workload over its requests of every seed, in order,
    and "total" over the workloads; `limit` caps the requests per seed."""
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
