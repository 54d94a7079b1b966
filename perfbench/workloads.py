"""Seeded request streams for the benchmark workloads, and their oracle.

Nothing here imports morseflow.  A request is the argv list the CLI sees
plus the golden answer, which is known in closed form from the generator's
own parameters; the oracle reads only the JSON report the CLI prints.

Streams are stratified so that any prefix covers the parameter domain
evenly: continuous parameters follow a Kronecker (R_d) sequence with a
seeded offset, and `lift` cycles through blocks that hold every request
type once, in a seeded order, with the same number of large-epsilon
requests in each.  Run-to-run spread then comes from timing noise, not
from which fields a short run happened to draw.

A run does a fixed amount of work, `budget(workload, seconds)` requests:
the number that takes about `seconds` on a 2-vCPU x86-64 VM.  How many
requests are attempted, and how many of them fail, therefore depends on
the seed and `seconds` only, never on how fast the machine ran.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CMAX = 32.0                 # truncation level of morseflow's Novikov field
CIRCLE_KS = tuple(range(1, 17))
LARGE_EPS_PER_BLOCK = 4     # of the 15 floer requests with k >= 2 in a lift block
MASLOV_NS = (1, 2, 3)
MASLOV_FRAMES = 129
LOOPS_PER_N = 8

WORKLOADS = ("torus-suite", "rp2-suite", "lift")

BLOCK = {"torus-suite": 1, "rp2-suite": 1, "lift": len(CIRCLE_KS) + len(MASLOV_NS)}

# Mean wall seconds of one request on a shared 2-vCPU x86-64 VM (Python
# 3.11, numpy 2.4), measured on the program as it stood when this benchmark
# was written, in one of the host's slow stretches (its speed drifts by up
# to ~35% over tens of minutes), so that a run seldom takes much longer
# than `seconds`.  Only the amount of work in a run derives from these; no
# metric does.
NOMINAL_REQUEST_S = {"torus-suite": 1.9, "rp2-suite": 5.0, "lift": 0.14}

# Requests per pass of a traced run: 5-15 s a pass.
TRACE_PASS = {"torus-suite": 4, "rp2-suite": 3, "lift": 2 * BLOCK["lift"]}


def budget(workload: str, seconds: float) -> int:
    """Requests in a run of `seconds`: whole blocks, at least one."""
    block = BLOCK[workload]
    blocks = round(seconds / (NOMINAL_REQUEST_S[workload] * block))
    return block * max(1, blocks)


def trace_passes(workload: str, seconds: float) -> int:
    """Passes in a traced run: an even number, at least one of each kind."""
    pass_s = NOMINAL_REQUEST_S[workload] * TRACE_PASS[workload]
    return 2 * max(1, round(seconds / (2 * pass_s)))


@dataclass(frozen=True)
class Request:
    argv: tuple
    kind: str                       # torus, rp2, circle or maslov
    expect: dict                    # golden values the oracle checks
    # Why a wrong answer is expected today; the request still counts as failed.
    known_defect: str | None = None


def _kronecker(rng: random.Random, dims: int):
    """Infinite R_d low-discrepancy sequence in [0, 1)^dims, seeded offset."""
    g = 2.0
    for _ in range(64):
        g = (1.0 + g) ** (1.0 / (dims + 1))
    alpha = [g ** -(j + 1) for j in range(dims)]
    offset = [rng.random() for _ in range(dims)]
    i = 0
    while True:
        i += 1
        yield [(o + i * a) % 1.0 for o, a in zip(offset, alpha)]


def _signed(c: float) -> str:
    return f"+ {c:.6f}" if c >= 0 else f"- {-c:.6f}"


def torus_requests(seed: int, n: int) -> list[Request]:
    """homology on the criterion-4 family, d in [0, 0.1)."""
    seq = _kronecker(random.Random(f"torus-suite/{seed}"), 1)
    out = []
    for _ in range(n):
        d = 0.1 * next(seq)[0]
        fn = f"cos(2*pi*x1) + cos(2*pi*x2) + {d:.6f}*cos(2*pi*(x1 + x2))"
        out.append(Request(("homology", "--manifold", "torus2", "--function", fn),
                           "torus", {"ranks": [1, 2, 1], "euler": 0}))
    return out


def rp2_requests(seed: int, n: int) -> list[Request]:
    """homology on (a x2^2 + b x3^2 + c x2 x3)/|x|^2, b/a in [2, 3), |c/a| < 0.05."""
    seq = _kronecker(random.Random(f"rp2-suite/{seed}"), 3)
    out = []
    for _ in range(n):
        u = next(seq)
        a = 0.5 + 1.5 * u[0]
        b = a * (2.0 + u[1])
        c = a * 0.1 * (u[2] - 0.5)
        fn = f"({a:.6f}*x2^2 + {b:.6f}*x3^2 {_signed(c)}*x2*x3)/(x1^2 + x2^2 + x3^2)"
        out.append(Request(("homology", "--manifold", "rp2", "--function", fn),
                           "rp2", {"ranks": [1, 1, 1], "euler": 1}))
    return out


def _circle_request(k: int, a: float, eps: float) -> Request:
    fn = f"cos(2*pi*{k}*x1) + {a:.6f}*sin(2*pi*x1)"
    argv = ("floer", "--base", "circle", "--function", fn,
            "--grid", str(8 * k), "--epsilon", f"{eps:.6f}")
    # Adjacent critical values differ by at least 2 - 2a >= 1.4, so a
    # large epsilon pushes every differential entry to T^c with c >= C_max.
    defect = None
    if eps * (2.0 - 2.0 * a) >= CMAX and k >= 2:
        defect = ("every differential entry is truncated at C_max, so HF reads "
                  "(k, k) with exit 0 (ROADMAP item 4)")
    return Request(argv, "circle", {"hf_ranks": [1, 1], "strips": 2 * k}, defect)


def write_loops(seed: int, workdir: Path) -> dict[int, list[tuple[Path, int]]]:
    """Criterion-9 unitary loops Q diag(exp(i pi k t)) Q^T, frames mixed by G.

    Returns n -> [(csv path, golden index sum(k))]."""
    rng = np.random.default_rng([seed, 9])
    workdir.mkdir(parents=True, exist_ok=True)
    thetas = np.linspace(0.0, 1.0, MASLOV_FRAMES)
    pool = {}
    for n in MASLOV_NS:
        pool[n] = []
        for j in range(LOOPS_PER_N):
            ks = rng.integers(-3, 4, size=n)
            Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            G = np.eye(n) + 0.3 * rng.normal(size=(n, n)) / n
            lines = ["theta," + ",".join(f"f{r}{c}" for r in range(2 * n) for c in range(n))]
            for t in thetas:
                Z = Q @ np.diag(np.exp(1j * np.pi * t * ks)) @ Q.T
                frame = np.vstack([Z.real, Z.imag]) @ G
                lines.append(",".join([repr(float(t))] + [repr(float(v)) for v in frame.ravel()]))
            path = workdir / f"loop-n{n}-{j}.csv"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            pool[n].append((path, int(ks.sum())))
    return pool


def lift_requests(seed: int, n: int, workdir: Path) -> list[Request]:
    """Blocks of 16 circle floer requests (k = 1..16) and 3 maslov requests."""
    rng = random.Random(f"lift/{seed}")
    pool = write_loops(seed, workdir)
    out = []
    block = 0
    while len(out) < n:
        large = set(rng.sample(CIRCLE_KS[1:], LARGE_EPS_PER_BLOCK))
        slots = []
        for k in CIRCLE_KS:
            a = rng.uniform(0.05, 0.3)
            eps = rng.uniform(24.0, 40.0) if k in large else rng.uniform(0.01, 0.1)
            slots.append(_circle_request(k, a, eps))
        for m in MASLOV_NS:
            path, index = pool[m][block % LOOPS_PER_N]
            slots.append(Request(("maslov", "--loop", str(path)), "maslov",
                                 {"index": index, "n": m, "samples": MASLOV_FRAMES}))
        rng.shuffle(slots)
        out.extend(slots)
        block += 1
    return out[:n]


def requests(workload: str, seed: int, workdir: Path, n: int) -> list[Request]:
    if workload == "torus-suite":
        return torus_requests(seed, n)
    if workload == "rp2-suite":
        return rp2_requests(seed, n)
    if workload == "lift":
        return lift_requests(seed, n, workdir)
    raise ValueError(f"unknown workload {workload!r}")


# --- oracle ---------------------------------------------------------------------

def _homology_ok(report: dict, expect: dict) -> bool:
    ranks = expect["ranks"]
    if report.get("ranks") != ranks or report.get("euler") != expect["euler"]:
        return False
    ineq = report.get("inequalities", {})
    if ineq.get("all_ok") is not True:
        return False
    # Recount from the listed critical points: weak Morse inequalities and
    # the Euler characteristic, independent of the reported rows.
    crit = [0] * len(ranks)
    for p in report.get("points", []):
        if not 0 <= p["index"] < len(crit):
            return False
        crit[p["index"]] += 1
    return (all(c >= b for c, b in zip(crit, ranks))
            and sum((-1) ** k * c for k, c in enumerate(crit)) == expect["euler"])


def _circle_ok(report: dict, expect: dict) -> bool:
    strips = report.get("strip_checks", [])
    return (report.get("hf_ranks") == expect["hf_ranks"]
            and report.get("t1_matches_morse") is True
            and len(strips) == expect["strips"]
            and all(s.get("agrees") is True for s in strips))


def _maslov_ok(report: dict, expect: dict) -> bool:
    return (report.get("index") == expect["index"] and report.get("n") == expect["n"]
            and report.get("samples") == expect["samples"])


_CHECKS = {"torus": _homology_ok, "rp2": _homology_ok,
           "circle": _circle_ok, "maslov": _maslov_ok}

OUTCOMES = ("ok", "wrong", "refused", "crashed")


def judge(req: Request, exit_code: int | None, stdout: str) -> str:
    """ok, wrong (exit 0, not the golden answer), refused (exit 1 or 2), crashed."""
    if exit_code in (1, 2):
        return "refused"
    if exit_code != 0:
        return "crashed"
    try:
        report = json.loads(stdout)
        good = _CHECKS[req.kind](report, req.expect)
    except (ValueError, KeyError, TypeError, AttributeError):
        good = False
    return "ok" if good else "wrong"
