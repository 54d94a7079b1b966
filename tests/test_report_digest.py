"""Smoke test of tools/report_digest.py, the report byte-identity check."""

import importlib.util
import re
from pathlib import Path

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
    assert list(first) == ["torus-suite", "rp2-suite", "lift", "total"]
    assert all(re.fullmatch(r"[0-9a-f]{64}", d) for d in first.values())
    assert tool.digests(ROOT, seeds=(1,), limit=1) == first
