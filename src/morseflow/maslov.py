"""Maslov index of a loop of Lagrangian subspaces of (R^{2n}, omega_0).

Coordinates are blocked as (x_1..x_n, y_1..y_n) and the symplectic form
pairs omega(a, b) = a_x . b_y - a_y . b_x.  A subspace is presented by a
2n x n frame of spanning columns.  After orthonormalization a Lagrangian
frame [X; Y] yields a unitary matrix Z = X + iY under the identification
(x, y) -> x + iy, and det(Z)^2 is independent of the frame choice, so it
descends to the Lagrangian Grassmannian.  The index is the winding number
of det^2 along the loop, accumulated by phase unwrapping; the convention
makes the half-turn line loop t -> span(cos(pi t), sin(pi t)) in R^2 have
index +1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    LoopNotClosedError,
    NotLagrangianError,
    SamplingTooCoarseError,
    UsageError,
)

LAGRANGIAN_TOL = 1e-10
CLOSURE_TOL = 1e-8
RESIDUAL_TOL = 0.1
MAX_ENTRY = 1e150        # largest frame entry magnitude accepted


@dataclass(frozen=True)
class LagrangianLoop:
    thetas: tuple            # increasing sample parameters
    frames: tuple            # matching 2n x n numpy arrays

    @property
    def n(self) -> int:
        return self.frames[0].shape[1]

    @classmethod
    def from_samples(cls, samples) -> "LagrangianLoop":
        thetas, frames = [], []
        for th, fr in samples:
            thetas.append(float(th))
            frames.append(np.asarray(fr, dtype=float))
        return cls(tuple(thetas), tuple(frames))

    @classmethod
    def from_csv(cls, path: str) -> "LagrangianLoop":
        rows = []
        header_seen = False
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    row = [float(tok) for tok in line.split(",")]
                except ValueError:
                    if not rows and not header_seen:
                        header_seen = True      # one column-name header is fine
                        continue
                    raise UsageError(
                        f"{path}:{lineno}: row is not comma-separated numbers")
                if rows and len(row) != len(rows[0]):
                    raise UsageError(
                        f"{path}:{lineno}: expected {len(rows[0])} fields, "
                        f"got {len(row)}")
                if not all(map(math.isfinite, row)):
                    raise UsageError(f"{path}:{lineno}: row has an entry that is not finite")
                if rows and not row[0] > rows[-1][0]:
                    raise UsageError(f"{path}:{lineno}: theta {row[0]!r} does not exceed "
                                     f"the previous theta {rows[-1][0]!r}")
                rows.append(row)
        if not rows:
            raise LoopNotClosedError("empty loop file")
        width = len(rows[0]) - 1
        n = int(round(math.sqrt(width / 2)))
        if n == 0 or 2 * n * n != width:
            raise NotLagrangianError(
                f"row width {width} is not 2*n^2 for any integer n")
        data = np.array(rows)
        return cls(tuple(data[:, 0].tolist()), tuple(data[:, 1:].reshape(-1, 2 * n, n)))


def _orthonormal(frame: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(frame)
    if np.min(np.abs(np.diag(r))) < 1e-10 * max(1.0, float(np.max(np.abs(frame)))):
        raise NotLagrangianError("frame columns are linearly dependent")
    return q


def validate_loop(loop: LagrangianLoop) -> np.ndarray:
    """Check every frame, then closure; returns the frames stacked, (N, 2n, n)."""
    if len(loop.frames) < 2:
        raise LoopNotClosedError("a loop needs at least two samples")
    first = loop.frames[0].shape
    for k, fr in enumerate(loop.frames):
        if len(fr.shape) != 2 or fr.shape[0] != 2 * fr.shape[1]:
            raise NotLagrangianError(f"frame shape {fr.shape} is not 2n x n")
        if fr.shape != first:
            raise NotLagrangianError(f"frame {k} has shape {fr.shape}, not frame 0's {first}")
    F = np.asarray(loop.frames)
    # below MAX_ENTRY the product of two entries stays finite
    wild = ~(np.abs(F) <= MAX_ENTRY).all(axis=(1, 2))
    if wild.any():
        raise NotLagrangianError(f"frame {wild.argmax()} has an entry that is not finite "
                                 f"or exceeds {MAX_ENTRY:.0e} in magnitude")
    X, Y = F[:, :loop.n], F[:, loop.n:]
    # omega evaluated on all column pairs of every frame
    pairing = np.abs(X.transpose(0, 2, 1) @ Y - Y.transpose(0, 2, 1) @ X).max(axis=(1, 2))
    bad = pairing > LAGRANGIAN_TOL * np.maximum(1.0, np.abs(F).max(axis=(1, 2))) ** 2
    if bad.any():
        raise NotLagrangianError(
            f"frame violates the Lagrangian condition by {pairing[bad.argmax()]:.3e}")
    q0, q1 = _orthonormal(F[0]), _orthonormal(F[-1])
    gap = np.linalg.norm(q0 @ q0.T - q1 @ q1.T, 2)
    if gap > CLOSURE_TOL:
        raise LoopNotClosedError(
            f"first and last subspaces differ by {gap:.3e} (tolerance {CLOSURE_TOL})")
    return F


def maslov_index(loop: LagrangianLoop) -> int:
    """Winding number of det^2 along the loop, from one QR and one det of the stack.

    Raises SamplingTooCoarseError when consecutive samples jump by a phase
    of pi or more, or when the accumulated winding is farther than 0.1
    from an integer.
    """
    F = validate_loop(loop)
    Q, R = np.linalg.qr(F)
    dependent = abs(R.diagonal(0, 1, 2)).min(1) < 1e-10 * np.maximum(1.0, abs(F).max((1, 2)))
    Z = Q[:, :loop.n] + 1j * Q[:, loop.n:]
    # orthonormal + Lagrangian => unitary; guard against silent drift
    drift = np.abs(Z.conj().transpose(0, 2, 1) @ Z - np.eye(loop.n)).max(axis=(1, 2)) > 1e-8
    k = np.argmax(dependent | drift)     # the first frame failing a check, rank first
    if dependent[k] or drift[k]:
        raise NotLagrangianError("frame columns are linearly dependent" if dependent[k]
                                 else "orthonormalized frame is not unitary in C^n")
    dets = [d * d for d in np.linalg.det(Z).tolist()]
    total = 0.0
    for a, b in zip(dets, dets[1:]):
        delta = cmath.phase(b / a)
        if abs(delta) >= math.pi * (1.0 - 1e-12):
            raise SamplingTooCoarseError(
                f"phase jump {delta:+.3f} between consecutive samples")
        total += delta
    winding = total / (2.0 * math.pi)
    index = round(winding)
    if abs(winding - index) >= RESIDUAL_TOL:
        raise SamplingTooCoarseError(
            f"winding {winding:.4f} is not within {RESIDUAL_TOL} of an integer")
    return int(index)


def concatenate(a: LagrangianLoop, b: LagrangianLoop) -> LagrangianLoop:
    """Join two loops sharing a base subspace; indices add."""
    qa = _orthonormal(a.frames[-1])
    qb = _orthonormal(b.frames[0])
    if np.linalg.norm(qa @ qa.T - qb @ qb.T, 2) > CLOSURE_TOL:
        raise LoopNotClosedError("loops do not share the base subspace")
    shift = a.thetas[-1] - b.thetas[0]
    thetas = a.thetas + tuple(t + shift for t in b.thetas[1:])
    frames = a.frames + b.frames[1:]
    return LagrangianLoop(thetas, frames)
