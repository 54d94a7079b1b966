"""Tests of the benchmark itself, not of morseflow:  python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402
import workloads     # noqa: E402

sys.path.insert(0, str(bench.SRC))
from morseflow import cli  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def _argv(workload, seed, workdir):
    n = workloads.budget(workload, SPEC["run_seconds"])
    return [r.argv for r in workloads.requests(workload, seed, workdir, n)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    assert _argv(workload, 7, tmp_path) == _argv(workload, 7, tmp_path)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_other_argv(workload, tmp_path):
    a = _argv(workload, 7, tmp_path / "a")
    b = _argv(workload, 8, tmp_path / "b")
    assert len(a) == len(b) and a != b


@pytest.mark.parametrize("seed", [3, 4])
def test_lift_blocks_hold_every_request_type(seed, tmp_path):
    size = workloads.BLOCK["lift"]
    reqs = workloads.requests("lift", seed, tmp_path, 2 * size)
    for block in (reqs[:size], reqs[size:]):
        assert sorted(r.expect["strips"] // 2 for r in block if r.kind == "circle") \
            == list(workloads.CIRCLE_KS)
        assert sorted(r.expect["n"] for r in block if r.kind == "maslov") \
            == list(workloads.MASLOV_NS)
        large = [r for r in block if r.kind == "circle" and float(r.argv[-1]) >= 24.0]
        assert len(large) == workloads.LARGE_EPS_PER_BLOCK
        assert [r for r in block if r.known_defect is not None] == large


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_budget_is_whole_blocks_and_traced_passes_even(workload):
    for seconds in (0.5, 1, 30, 60):
        n = workloads.budget(workload, seconds)
        assert n >= workloads.BLOCK[workload] and n % workloads.BLOCK[workload] == 0
        passes = workloads.trace_passes(workload, seconds)
        assert passes >= 2 and passes % 2 == 0


def _counters(workload, seed, n, workdir):
    reqs = workloads.requests(workload, seed, workdir, n)
    tally = bench.Tally()
    metrics, passes, missing = bench.run_traced(cli.main, reqs, 2, tally)
    assert passes == 1 and missing == [] and tally.unexpected == 0
    return {k: v for k, v in metrics.items()
            if not k.endswith("_s") and k != "trace_overhead_frac"}


@pytest.mark.parametrize("workload,n", [("torus-suite", 1), ("rp2-suite", 1), ("lift", 19)])
def test_traced_counters_repeat(workload, n, tmp_path):
    first = _counters(workload, 5, n, tmp_path)
    second = _counters(workload, 5, n, tmp_path)
    assert first == second
    assert first["flow.trajectories"] > 0 and first["flow.rhs_evals"] > 0
    assert first["critpoint.seeds"] > 0 and first["funcexpr.grad_evals"] > 0
    if workload == "lift":
        assert first["novikov.muls"] > 0 and first["maslov.frames"] > 0
        assert first["floer.strips"] > 0


def test_oracle_counts_truncation_defect_as_wrong():
    """Large epsilon with k >= 2: HF (k, k), exit 0, today (ROADMAP item 4)."""
    bad = workloads._circle_request(2, 0.1, 30.0)
    good = workloads._circle_request(2, 0.1, 0.05)
    assert bad.known_defect is not None and good.known_defect is None
    for req, want in ((bad, "wrong"), (good, "ok")):
        _, outcome, _ = bench.execute(cli.main, req)
        assert outcome == want


def test_oracle_outcome_kinds():
    req = workloads.torus_requests(1, 1)[0]
    assert workloads.judge(req, None, "") == "crashed"
    assert workloads.judge(req, 1, "") == "refused"
    assert workloads.judge(req, 2, "") == "refused"
    assert workloads.judge(req, 0, "not json") == "wrong"
    assert workloads.judge(req, 0, json.dumps({"ranks": [1, 0, 1]})) == "wrong"


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_names_every_metric(trace, section):
    proc = _run(bench.ROOT, "--workload", "lift", "--seed", "2", "--seconds", "1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    if trace == "0":   # one lift block: every k once, four of them truncated
        assert (result["attempted"], result["failed"]) \
            == (workloads.BLOCK["lift"], workloads.LARGE_EPS_PER_BLOCK)
    assert {m["name"]: m["unit"] for m in SPEC[section]} \
        == {k: v["unit"] for k, v in result["metrics"].items()}
    assert not (HERE / ".work").exists()


def test_fails_without_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = _run(tmp_path, "--workload", "lift", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
