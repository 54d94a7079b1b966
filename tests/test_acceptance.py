"""Acceptance gate: ten criteria, one pass/fail line each.

Run with plain `pytest -v`; every criterion prints its own line to the
terminal (bypassing capture) in addition to the usual test outcome.
Budgets are wall-clock on a single thread.
"""

import cmath
import math
import time

import numpy as np
import pytest

from morseflow import floer, flow, geometry, gf2chain, maslov, novikov, pipeline
from morseflow.errors import IndexGapError
from morseflow.funcexpr import ScalarField
from morseflow.novikov import NovikovElement

TORUS_TEXT = "cos(2*pi*x1) + cos(2*pi*x2)"


def report(capsys, ok: bool, label: str, detail: str = ""):
    mark = "✅" if ok else "❌"
    line = f"{mark} {label}" + (f"  [{detail}]" if detail else "")
    with capsys.disabled():
        print(line)
    assert ok, line


@pytest.fixture(scope="module")
def torus_bundle():
    field = ScalarField.from_text(TORUS_TEXT, 2)
    m = geometry.torus(2)
    t0 = time.perf_counter()
    run = pipeline.run_morse(field, m)
    elapsed = time.perf_counter() - t0
    return field, m, run, elapsed


@pytest.fixture(scope="module")
def sphere_bundle():
    field = ScalarField.from_text("x3", 3)
    m = geometry.sphere(2)
    t0 = time.perf_counter()
    run = pipeline.run_morse(field, m)
    elapsed = time.perf_counter() - t0
    return field, m, run, elapsed


def test_criterion_01_torus_morse_homology(capsys, torus_bundle):
    field, m, run, elapsed = torus_bundle
    ok = len(run.points) == 4
    ok = ok and sorted(p.index for p in run.points) == [0, 1, 1, 2]
    table = {(c.source, c.sink): (c.raw_count, c.count_mod2) for c in run.counts}
    ok = ok and set(table) == {(1, 0), (2, 0), (3, 1), (3, 2)}
    ok = ok and all(v == (2, 0) for v in table.values())
    ok = ok and run.ranks.by_degree == (1, 2, 1)
    ok = ok and elapsed < 30.0
    report(capsys, ok, "criterion 1: torus homology (1,2,1), four counts raw 2 mod 0",
           f"{elapsed:.2f}s < 30s")


def test_criterion_02_sphere_morse_homology(capsys, sphere_bundle):
    field, m, run, elapsed = sphere_bundle
    ok = len(run.points) == 2
    ok = ok and sorted(p.index for p in run.points) == [0, 2]
    ok = ok and run.ranks.by_degree == (1, 0, 1)
    try:
        flow.count_connecting(field, m, run.points[1], run.points[0],
                              points=run.points)
        gap_refused = False
    except IndexGapError:
        gap_refused = True
    ok = ok and gap_refused
    ok = ok and elapsed < 5.0
    report(capsys, ok, "criterion 2: sphere homology (1,0,1), index gap 2 refused",
           f"{elapsed:.2f}s < 5s")


def test_criterion_03_projective_spaces(capsys):
    ok = True
    details = []
    for n, want in ((1, (1, 1)), (2, (1, 1, 1))):
        num = " + ".join(f"{j}*x{j + 1}^2" for j in range(1, n + 1))
        den = " + ".join(f"x{j + 1}^2" for j in range(n + 1))
        field = ScalarField.from_text(f"({num}) / ({den})", n + 1)
        m = geometry.projective(n)
        run = pipeline.run_morse(field, m)
        ok = ok and len(run.points) == n + 1
        for j, p in enumerate(run.points):
            axis = np.zeros(n + 1)
            axis[j] = 1.0
            ok = ok and p.index == j
            ok = ok and geometry.distance(m, p.location, axis) < 1e-8
        ok = ok and run.ranks.by_degree == want
        details.append(f"rp{n}={run.ranks.by_degree}")
    report(capsys, ok, "criterion 3: RP^1 and RP^2 ranks exact, index j at axis j",
           ", ".join(details))


def test_criterion_04_d_squared_perturbation_suite(capsys):
    rng = np.random.default_rng(2026)
    t0 = time.perf_counter()
    ok = True
    for _ in range(50):
        d = float(rng.uniform(0.0, 0.1))
        field = ScalarField.from_text(
            f"{TORUS_TEXT} + {d!r}*cos(2*pi*(x1 + x2))", 2)
        run = pipeline.run_morse(field, geometry.torus(2))
        ok = ok and gf2chain.verify_d_squared(run.complex)
        ok = ok and run.ranks.by_degree == (1, 2, 1)
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    report(capsys, ok, "criterion 4: d^2 = 0 and ranks (1,2,1) on 50 perturbations",
           f"{elapsed:.1f}s < 600s")


def test_criterion_05_morse_inequalities_and_euler(capsys, torus_bundle, sphere_bundle):
    runs = [torus_bundle[2], sphere_bundle[2]]
    for n in (1, 2):
        num = " + ".join(f"{j}*x{j + 1}^2" for j in range(1, n + 1))
        den = " + ".join(f"x{j + 1}^2" for j in range(n + 1))
        field = ScalarField.from_text(f"({num}) / ({den})", n + 1)
        runs.append(pipeline.run_morse(field, geometry.projective(n)))
    ok = True
    for run in runs:
        rep = run.inequalities
        ok = ok and rep.all_ok and rep.euler_ok
        for _, crit, betti, row_ok in rep.rows:
            ok = ok and crit >= betti and row_ok
            ok = ok and crit == betti  # equality on the worked examples
        ok = ok and rep.euler_crit == rep.euler_betti
    report(capsys, ok, "criterion 5: Morse inequalities with equality, Euler identity",
           f"{len(runs)} examples")


def test_criterion_06_floer_ranks_and_t1_reduction(capsys, torus_bundle):
    _, _, run, _ = torus_bundle
    fc = floer.build_floer_complex(run.points, run.counts, epsilon=0.05)
    hf = floer.hf_ranks(fc)
    ok = hf.total == 4
    reduced = fc.mod2_matrices()
    ok = ok and set(reduced) == set(run.complex.matrices)
    for k in reduced:
        ok = ok and reduced[k].bitstrings() == run.complex.matrices[k].bitstrings()

    cfield = ScalarField.from_text("cos(2*pi*x1)", 1)
    cm = geometry.parse_manifold("circle")
    crun = pipeline.run_morse(cfield, cm)
    cfc = floer.build_floer_complex(crun.points, crun.counts, epsilon=0.05)
    chf = floer.hf_ranks(cfc)
    ok = ok and chf.total == 2
    creduced = cfc.mod2_matrices()
    for k in creduced:
        ok = ok and creduced[k].bitstrings() == crun.complex.matrices[k].bitstrings()
    report(capsys, ok, "criterion 6: HF totals 4 (torus) and 2 (circle), T=1 bitwise",
           f"torus {hf.by_degree}, circle {chf.by_degree}")


def test_criterion_07_strip_area_bookkeeping(capsys, torus_bundle):
    field, m, run, _ = torus_bundle
    t0 = time.perf_counter()
    ok = True
    n = 0
    worst = 0.0
    for c in run.counts:
        for traj in c.representatives:
            [w] = floer.strip_area_check(field, m, [traj], epsilon=0.05,
                                         points=run.points)
            rel = abs(w.quadrature - w.analytic) / (1.0 + abs(w.analytic))
            worst = max(worst, rel)
            ok = ok and rel < 1e-6 and w.agrees
            n += 1
    elapsed = time.perf_counter() - t0
    ok = ok and n == 8 and elapsed < 60.0
    report(capsys, ok, "criterion 7: strip area = eps*(f(p)-f(q)) per trajectory",
           f"{n} strips, worst rel {worst:.1e} < 1e-6, {elapsed:.2f}s < 60s")


def test_criterion_08_novikov_field_axioms(capsys):
    rng = np.random.default_rng(8)
    t0 = time.perf_counter()
    one = NovikovElement.one()
    ok = True
    for _ in range(1000):
        def draw():
            k = int(rng.integers(0, 9))
            exps = rng.integers(0, 129, size=k) * 0.125  # [0, C_max/2] grid
            return NovikovElement(tuple(float(e) for e in exps), 32.0)
        a, b, c = draw(), draw(), draw()
        ok = ok and (a * b) * c == a * (b * c)
        ok = ok and a * (b + c) == a * b + a * c
        if not a.is_zero:
            ok = ok and novikov.invert(a) * a == one
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(capsys, ok, "criterion 8: Novikov axioms on 10^3 elements at C_max=32",
           f"{elapsed:.1f}s < 60s")


def winding_residual(frames):
    """Independent det^2 phase-unwrapping oracle."""
    phases = []
    for fr in frames:
        q, _ = np.linalg.qr(fr)
        n = fr.shape[1]
        z = q[:n] + 1j * q[n:]
        phases.append(cmath.phase(np.linalg.det(z) ** 2))
    total = 0.0
    for k in range(1, len(phases)):
        d = phases[k] - phases[k - 1]
        while d > math.pi:
            d -= 2 * math.pi
        while d < -math.pi:
            d += 2 * math.pi
        total += d
    w = total / (2 * math.pi)
    return w, abs(w - round(w))


def test_criterion_09_maslov_index(capsys):
    t0 = time.perf_counter()
    frame = np.vstack([np.eye(2), np.zeros((2, 2))])
    const = maslov.LagrangianLoop.from_samples(
        [(t, frame) for t in np.linspace(0, 1, 17)])
    ok = maslov.maslov_index(const) == 0

    thetas = np.linspace(0.0, 1.0, 65)
    half = [(t, np.array([[np.cos(np.pi * t)], [np.sin(np.pi * t)]]))
            for t in thetas]
    loop = maslov.LagrangianLoop.from_samples(half)
    idx = maslov.maslov_index(loop)
    _, residual = winding_residual([fr for _, fr in half])
    ok = ok and idx in (1, -1) and residual < 0.1

    rng = np.random.default_rng(9)
    adds = 0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        base = np.eye(n)
        loops = []
        want = 0
        for _ in range(2):
            ks = rng.integers(-3, 4, size=n)
            want += int(ks.sum())
            samples = []
            for t in np.linspace(0.0, 1.0, 129):
                U = Q @ np.diag(np.exp(1j * np.pi * t * ks)) @ Q.T.conj()
                Z = U @ base
                samples.append((t, np.vstack([Z.real, Z.imag])))
            loops.append(maslov.LagrangianLoop.from_samples(samples))
        both = maslov.concatenate(loops[0], loops[1])
        got = (maslov.maslov_index(loops[0]) + maslov.maslov_index(loops[1]),
               maslov.maslov_index(both))
        if got[0] == got[1] and got[1] == want:
            adds += 1
    elapsed = time.perf_counter() - t0
    ok = ok and adds == 100 and elapsed < 60.0
    report(capsys, ok, "criterion 9: Maslov 0 / +-1 golden, additivity on 100 loops",
           f"residual {residual:.2e} < 0.1, {elapsed:.1f}s < 60s")


def test_criterion_10_arnold_bound(capsys, torus_bundle, sphere_bundle):
    _, _, run, _ = torus_bundle
    fc = floer.build_floer_complex(run.points, run.counts, epsilon=0.05)
    t2 = floer.arnold_bound(floer.hf_ranks(fc))
    s2 = floer.arnold_bound(sphere_bundle[2].ranks)
    ok = t2 == 4 and s2 == 2
    report(capsys, ok, "criterion 10: Arnol'd bound 4 on T^2, 2 on S^2",
           f"T^2={t2}, S^2={s2}")
