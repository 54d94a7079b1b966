"""Maslov index as the winding number of the squared frame determinant.

Loop generator for the additivity oracle: Z(theta) = U(theta) Z0 with
U = Q diag(exp(i pi theta k_j)) Q^T for integer k_j gives a closed loop
of Lagrangian frames with index sum(k_j), read off the construction.
"""

import cmath
import contextlib
import io
import math
import re

import numpy as np
import pytest

from morseflow import cli, maslov
from morseflow.errors import (
    LoopNotClosedError,
    NotLagrangianError,
    SamplingTooCoarseError,
    UsageError,
)


def vertical(n):
    return np.vstack([np.eye(n), np.zeros((n, n))])


def spectral_loop(rng, n, samples=129):
    """Closed loop with known index: sum of the integer spectrum."""
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    ks = rng.integers(-3, 4, size=n)
    thetas = np.linspace(0.0, 1.0, samples)
    out = []
    for t in thetas:
        U = Q @ np.diag(np.exp(1j * np.pi * t * ks)) @ Q.T.conj()
        Z = U @ np.eye(n)
        out.append((t, np.vstack([Z.real, Z.imag])))
    return maslov.LagrangianLoop.from_samples(out), int(ks.sum())


def test_constant_loop_zero():
    frame = vertical(2)
    loop = maslov.LagrangianLoop.from_samples(
        [(t, frame) for t in np.linspace(0, 1, 17)])
    assert maslov.maslov_index(loop) == 0


def test_half_turn_is_plus_one():
    thetas = np.linspace(0.0, 1.0, 65)
    loop = maslov.LagrangianLoop.from_samples(
        [(t, np.array([[np.cos(np.pi * t)], [np.sin(np.pi * t)]])) for t in thetas])
    assert maslov.maslov_index(loop) == 1


def test_reverse_half_turn_is_minus_one():
    thetas = np.linspace(0.0, 1.0, 65)
    loop = maslov.LagrangianLoop.from_samples(
        [(t, np.array([[np.cos(-np.pi * t)], [np.sin(-np.pi * t)]])) for t in thetas])
    assert maslov.maslov_index(loop) == -1


def test_spectral_loops_match_construction():
    rng = np.random.default_rng(41)
    for _ in range(10):
        loop, expected = spectral_loop(rng, int(rng.integers(1, 4)))
        assert maslov.maslov_index(loop) == expected


def test_reparametrization_invariance():
    rng = np.random.default_rng(42)
    loop, expected = spectral_loop(rng, 2)
    warped = maslov.LagrangianLoop.from_samples(
        [(t ** 2, fr) for t, fr in zip(loop.thetas, loop.frames)])
    assert maslov.maslov_index(warped) == expected


def test_index_invariant_under_frame_rescaling():
    # same subspaces, non-orthonormal frames
    thetas = np.linspace(0.0, 1.0, 65)
    loop = maslov.LagrangianLoop.from_samples(
        [(t, 3.7 * np.array([[np.cos(np.pi * t)], [np.sin(np.pi * t)]]))
         for t in thetas])
    assert maslov.maslov_index(loop) == 1


def test_concatenation_additivity():
    rng = np.random.default_rng(43)
    for _ in range(10):
        a, ka = spectral_loop(rng, 3)
        b, kb = spectral_loop(rng, 3)
        ab = maslov.concatenate(a, b)
        assert maslov.maslov_index(ab) == ka + kb


def test_non_lagrangian_rejected():
    X = np.eye(2)
    Y = np.array([[0.0, 1.0], [0.0, 0.0]])  # X^T Y not symmetric
    frame = np.vstack([X, Y])
    with pytest.raises(NotLagrangianError):
        maslov.validate_loop(maslov.LagrangianLoop.from_samples(
            [(0.0, frame), (1.0, frame)]))


def test_open_path_rejected():
    thetas = np.linspace(0.0, 1.0, 33)
    quarter = maslov.LagrangianLoop.from_samples(
        [(t, np.array([[np.cos(np.pi * t / 2)], [np.sin(np.pi * t / 2)]]))
         for t in thetas])
    with pytest.raises(LoopNotClosedError):
        maslov.maslov_index(quarter)


def test_coarse_sampling_rejected():
    thetas = np.linspace(0.0, 1.0, 3)  # phase jumps of pi per step
    loop = maslov.LagrangianLoop.from_samples(
        [(t, np.array([[np.cos(np.pi * t)], [np.sin(np.pi * t)]])) for t in thetas])
    with pytest.raises(SamplingTooCoarseError):
        maslov.maslov_index(loop)


def test_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(44)
    loop, expected = spectral_loop(rng, 2, samples=65)
    path = tmp_path / "loop.csv"
    lines = ["# theta, frame entries row-major"]
    for t, fr in zip(loop.thetas, loop.frames):
        lines.append(",".join([repr(float(t))] + [repr(float(v)) for v in fr.ravel()]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    back = maslov.LagrangianLoop.from_csv(str(path))
    assert back.n == 2
    assert maslov.maslov_index(back) == expected


def test_csv_header_line_tolerated(tmp_path):
    path = tmp_path / "loop.csv"
    lines = ["theta,x1,y1"]
    for t in np.linspace(0.0, 1.0, 65):
        lines.append(",".join(repr(float(v))
                              for v in (t, np.cos(np.pi * t), np.sin(np.pi * t))))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert maslov.maslov_index(maslov.LagrangianLoop.from_csv(str(path))) == 1


def test_csv_malformed_rows_rejected(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("theta,x1,y1\n0.0,1.0,0.0\noops,here\n", encoding="utf-8")
    with pytest.raises(UsageError):
        maslov.LagrangianLoop.from_csv(str(bad))
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("0.0,1.0,0.0\n0.5,1.0\n", encoding="utf-8")
    with pytest.raises(UsageError):
        maslov.LagrangianLoop.from_csv(str(ragged))
    single = tmp_path / "single.csv"
    single.write_text("0.0\n1.0\n", encoding="utf-8")
    with pytest.raises(NotLagrangianError):
        maslov.LagrangianLoop.from_csv(str(single))


# --- the per-frame loop the stacked computation replaced, kept as its reference ---

def _ref_orthonormal(frame):
    q, r = np.linalg.qr(frame)
    if np.min(np.abs(np.diag(r))) < 1e-10 * max(1.0, float(np.max(np.abs(frame)))):
        raise NotLagrangianError("frame columns are linearly dependent")
    return q


def _ref_check_frame(k, frame, first):
    two_n, n = frame.shape
    if two_n != 2 * n:
        raise NotLagrangianError(f"frame shape {frame.shape} is not 2n x n")
    if frame.shape != first:
        raise NotLagrangianError(f"frame {k} has shape {frame.shape}, not frame 0's {first}")
    X, Y = frame[:n], frame[n:]
    pairing = X.T @ Y - Y.T @ X
    if np.max(np.abs(pairing)) > maslov.LAGRANGIAN_TOL * max(1.0, float(np.max(np.abs(frame)))) ** 2:
        raise NotLagrangianError(
            f"frame violates the Lagrangian condition by {np.max(np.abs(pairing)):.3e}")


def _ref_det_squared(frame):
    q = _ref_orthonormal(frame)
    n = frame.shape[1]
    Z = q[:n] + 1j * q[n:]
    if np.max(np.abs(Z.conj().T @ Z - np.eye(n))) > 1e-8:
        raise NotLagrangianError("orthonormalized frame is not unitary in C^n")
    d = complex(np.linalg.det(Z))
    return d * d


def reference_index(loop):
    if len(loop.frames) < 2:
        raise LoopNotClosedError("a loop needs at least two samples")
    for k, fr in enumerate(loop.frames):
        _ref_check_frame(k, fr, loop.frames[0].shape)
    q0 = _ref_orthonormal(loop.frames[0])
    q1 = _ref_orthonormal(loop.frames[-1])
    gap = np.linalg.norm(q0 @ q0.T - q1 @ q1.T, 2)
    if gap > maslov.CLOSURE_TOL:
        raise LoopNotClosedError(
            f"first and last subspaces differ by {gap:.3e} (tolerance {maslov.CLOSURE_TOL})")
    dets = [_ref_det_squared(fr) for fr in loop.frames]
    total = 0.0
    for a, b in zip(dets, dets[1:]):
        delta = cmath.phase(b / a)
        if abs(delta) >= math.pi * (1.0 - 1e-12):
            raise SamplingTooCoarseError(f"phase jump {delta:+.3f} between consecutive samples")
        total += delta
    winding = total / (2.0 * math.pi)
    index = round(winding)
    if abs(winding - index) >= maslov.RESIDUAL_TOL:
        raise SamplingTooCoarseError(
            f"winding {winding:.4f} is not within {maslov.RESIDUAL_TOL} of an integer")
    return int(index)


def warped(loop, rng):
    """The same subspaces, each frame right-multiplied by a random invertible matrix."""
    n = loop.n
    mats = [np.eye(n) + 0.5 * rng.normal(size=(n, n)) for _ in loop.frames]
    return maslov.LagrangianLoop.from_samples(
        (t, fr @ A) for t, fr, A in zip(loop.thetas, loop.frames, mats))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_index_is_the_per_frame_index(n):
    rng = np.random.default_rng(150 + n)
    for _ in range(4):
        loop, expected = spectral_loop(rng, n)
        for lp in (loop, warped(loop, rng)):
            assert maslov.maslov_index(lp) == reference_index(lp) == expected


def _bad_loop(bad_frames):
    """A 33-frame n = 2 spectral loop with frames replaced at the given positions."""
    loop, _ = spectral_loop(np.random.default_rng(151), 2, samples=33)
    frames = list(loop.frames)
    for k, fr in bad_frames.items():
        frames[k] = np.asarray(fr, dtype=float)
    return maslov.LagrangianLoop(loop.thetas, tuple(frames))


NON_LAGRANGIAN = np.vstack([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]])
DEPENDENT = [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
# columns 1e-9 apart within a Lagrangian-condition slack of 5e-11: both
# checks on the frame pass, and its orthonormalization is far from unitary
NOT_UNITARY = [[1.0, 1.0], [0.0, 1e-9], [0.0, 5e-11], [0.0, 0.0]]
NOT_2N_BY_N = np.ones((3, 2))
OTHER_N = [[1.0], [0.0]]


@pytest.mark.parametrize("bad_frames,error,message", [
    ({16: NON_LAGRANGIAN}, NotLagrangianError, r"Lagrangian condition by 1\.000e\+00"),
    ({16: DEPENDENT}, NotLagrangianError, "linearly dependent"),
    ({16: NOT_UNITARY}, NotLagrangianError, "not unitary"),
    ({16: NOT_2N_BY_N}, NotLagrangianError, r"frame shape \(3, 2\) is not 2n x n"),
    ({16: OTHER_N}, NotLagrangianError, r"frame 16 has shape \(2, 1\), not frame 0's \(4, 2\)"),
    # frame by frame, the rank check before the unitary check
    ({12: NOT_UNITARY, 20: DEPENDENT}, NotLagrangianError, "not unitary"),
    ({12: DEPENDENT, 20: NOT_UNITARY}, NotLagrangianError, "linearly dependent"),
    # every frame's Lagrangian check first, then closure, then rank
    ({20: DEPENDENT, 32: NON_LAGRANGIAN}, NotLagrangianError, "Lagrangian condition"),
    ({16: DEPENDENT, 32: np.vstack([np.zeros((2, 2)), np.eye(2)])}, LoopNotClosedError,
     "first and last subspaces differ"),
    ({32: DEPENDENT}, NotLagrangianError, "linearly dependent"),
])
def test_bad_frames_same_refusal_as_per_frame(bad_frames, error, message):
    loop = _bad_loop(bad_frames)
    with pytest.raises(error, match=message) as stacked:
        maslov.maslov_index(loop)
    with pytest.raises(error) as per_frame:
        reference_index(loop)
    assert str(stacked.value) == str(per_frame.value)


def test_frames_of_different_n_refused():
    # a 2 x 1 frame, a 4 x 2 frame and the 2 x 1 frame again
    line = [[1.0], [0.0]]
    loop = maslov.LagrangianLoop.from_samples(
        [(0.0, line), (0.5, vertical(2)), (1.0, line)])
    with pytest.raises(NotLagrangianError, match=r"frame 1 has shape \(4, 2\)"):
        maslov.maslov_index(loop)


def test_one_qr_and_one_det_call_whatever_the_length(monkeypatch):
    calls = {"qr": 0, "det": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    seen = []
    for samples in (17, 129):
        loop, expected = spectral_loop(np.random.default_rng(152), 3, samples=samples)
        calls.update(qr=0, det=0)
        assert maslov.maslov_index(loop) == expected
        seen.append(dict(calls))
    assert seen[0] == seen[1] and seen[0]["det"] == 1


def test_csv_frames_are_the_sampled_frames(tmp_path):
    loop, _ = spectral_loop(np.random.default_rng(153), 3, samples=17)
    path = tmp_path / "loop.csv"
    path.write_text("".join(",".join(repr(float(v)) for v in (t, *fr.ravel())) + "\n"
                            for t, fr in zip(loop.thetas, loop.frames)), encoding="utf-8")
    back = maslov.LagrangianLoop.from_csv(str(path))
    assert back.thetas == loop.thetas
    assert all(np.array_equal(a, b) and a.shape == (6, 3) for a, b in zip(back.frames, loop.frames))


# --- non-finite and out-of-order loop files ------------------------------------------

def _half_turn_rows(samples=17):
    """[theta, x, y] rows of the half-turn line loop, index 1."""
    return [[float(t), math.cos(math.pi * t), math.sin(math.pi * t)]
            for t in np.linspace(0.0, 1.0, samples)]


def _probe(rows, k, j, value):
    rows[k][j] = value
    return rows


def _reversed_thetas(rows):
    for row, t in zip(rows, [row[0] for row in rows][::-1]):
        row[0] = t
    return rows


@pytest.mark.parametrize("rows,code,message", [
    # frame k is line k + 1 of a file without a header
    (_probe(_half_turn_rows(), 4, 1, math.nan), 2, r":5: row has an entry that is not finite"),
    (_probe(_half_turn_rows(), 4, 2, math.inf), 2, r":5: row has an entry that is not finite"),
    (_probe(_half_turn_rows(), 8, 1, math.nan), 2, r":9: row has an entry that is not finite"),
    (_probe(_half_turn_rows(), 8, 2, -math.inf), 2, r":9: row has an entry that is not finite"),
    (_probe(_half_turn_rows(), 8, 0, math.nan), 2, r":9: row has an entry that is not finite"),
    (_probe(_half_turn_rows(), 8, 0, 0.4375), 2,
     r":9: theta 0\.4375 does not exceed the previous theta 0\.4375"),
    (_reversed_thetas(_half_turn_rows()), 2, r":2: theta 0\.9375 does not exceed the previous"),
    # still a Lagrangian line, but its pairing would overflow
    ([[t, 1e308 * x, 1e308 * y] if k == 4 else [t, x, y]
      for k, (t, x, y) in enumerate(_half_turn_rows())], 1,
     r"frame 4 has an entry that is not finite or exceeds 1e\+150 in magnitude"),
])
def test_non_finite_or_unordered_loop_files_refused(tmp_path, rows, code, message):
    path = tmp_path / "loop.csv"
    path.write_text("".join(",".join(repr(v) for v in row) + "\n" for row in rows),
                    encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.main(["maslov", "--loop", str(path)]) == code
    assert out.getvalue() == ""
    kind = "usage error" if code == 2 else "error"
    assert re.fullmatch(f"morseflow: {kind}: .*{message}.*\n", err.getvalue())


@pytest.mark.parametrize("value", [math.nan, math.inf, -1e151])
def test_non_finite_or_huge_frames_refused_before_the_pairing(value):
    samples = [(t, np.array([[x], [y]])) for t, x, y in _half_turn_rows()]
    samples[8][1][1, 0] = value
    loop = maslov.LagrangianLoop.from_samples(samples)
    with pytest.raises(NotLagrangianError, match="^frame 8 has an entry"):
        maslov.validate_loop(loop)
    samples[8][1][1, 0] = 1e150          # the largest magnitude accepted
    assert maslov.maslov_index(maslov.LagrangianLoop.from_samples(samples)) == 1
