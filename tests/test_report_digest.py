"""Smoke test of tools/report_digest.py, the report byte-identity check."""

import importlib.util
import re
from pathlib import Path

from morseflow import cli

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("report_digest",
                                                  ROOT / "tools" / "report_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_of_one_request_per_workload_is_reproducible():
    tool = _tool()
    first = tool.digests(ROOT, seeds=(1,), limit=1)
    assert list(first) == ["torus-suite", "rp2-suite", "lift", "examples", "total"]
    assert all(re.fullmatch(r"[0-9a-f]{64}", d) for d in first.values())
    assert tool.digests(ROOT, seeds=(1,), limit=1) == first


def test_examples_run_every_subcommand_and_output_format():
    tool = _tool()
    assert {argv[0] for argv in tool.EXAMPLES} == set(cli._DISPATCH)
    outs = {(argv[0], argv[argv.index("--out") + 1]) for argv in tool.EXAMPLES if "--out" in argv}
    assert outs == {("critpoints", "csv"), ("flow", "json")}
