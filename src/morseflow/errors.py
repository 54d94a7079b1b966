"""Exception hierarchy shared by all morseflow modules.

Two broad classes matter for the command line tool: usage errors (bad
expression text, wrong variable count, unknown manifold name) exit with
code 2, domain errors raised during a computation exit with code 1.
"""

from __future__ import annotations


class MorseflowError(Exception):
    """Base class for every error raised by this package."""


class UsageError(MorseflowError):
    """Input that can be rejected before any computation starts."""


# --- expression language ---------------------------------------------------

class ExprSyntaxError(UsageError):
    """Malformed expression text.  Carries the 0-based offset and a hint."""

    def __init__(self, message: str, position: int, expected: str = ""):
        self.position = position
        self.expected = expected
        hint = f" (expected {expected})" if expected else ""
        super().__init__(f"{message} at offset {position}{hint}")


class UnknownIdentifierError(UsageError):
    def __init__(self, name: str, position: int):
        self.name = name
        self.position = position
        super().__init__(f"unknown identifier '{name}' at offset {position}")


class DimensionError(UsageError):
    def __init__(self, message: str):
        super().__init__(message)


class DomainError(MorseflowError):
    """Evaluation left the real domain (log of a non-positive value, etc.)."""

    def __init__(self, message: str, point=None):
        self.point = point
        super().__init__(message)


# --- geometry --------------------------------------------------------------

class DegeneratePointError(MorseflowError):
    """A representative that cannot be canonicalized (e.g. the zero vector)."""


class UnknownManifoldError(UsageError):
    """Manifold name not recognized by the command line layer."""


# --- critical points -------------------------------------------------------

class NotCriticalError(MorseflowError):
    """classify() was handed a point whose gradient residual is too large."""


class EmptyResultError(MorseflowError):
    """No critical point survived the Newton sweep."""


# --- flow ------------------------------------------------------------------

class StepCollapseError(MorseflowError):
    """Adaptive step size underflowed; the field is pathological here."""


class NoConvergenceError(MorseflowError):
    """t_max was reached before any capture ball claimed the trajectory.

    The partial trajectory is attached so callers can still inspect it.
    """

    def __init__(self, message: str, trajectory=None):
        self.trajectory = trajectory
        super().__init__(message)


class IndexGapError(MorseflowError):
    """Connection counting requires index(source) - index(sink) == 1."""


class SourceIndexError(MorseflowError):
    """A pair has no index-1 end under f or -f (index k, 2 <= k <= n-1).

    Counts come only from the two seeds of an index-1 point."""


class ResolutionWarning(UserWarning):
    """A seed trajectory reached t_max uncaptured; its source's counts are flagged."""


# --- chain complexes -------------------------------------------------------

class MissingPairError(MorseflowError):
    """A required (source, sink) connection count was not supplied."""


class IndexMismatchError(MorseflowError):
    """A connection count does not fit the grading of the complex."""


class NotAComplexError(MorseflowError):
    """The boundary matrices do not square to zero."""


# --- Novikov field ---------------------------------------------------------

class TruncationMismatchError(MorseflowError):
    """Two elements with different truncation levels met in one operation."""


class TruncationExhaustedError(MorseflowError):
    """An elimination step needs exponents at or beyond the truncation."""


# --- Floer lift ------------------------------------------------------------

class QuadratureFailureError(MorseflowError):
    """Strip-area quadrature could not reach the requested accuracy."""


# --- Maslov index ----------------------------------------------------------

class NotLagrangianError(MorseflowError):
    """A frame fails the Lagrangian test F^T J0 F = 0 or has rank < n."""


class LoopNotClosedError(MorseflowError):
    """First and last sampled subspaces do not match."""


class SamplingTooCoarseError(MorseflowError):
    """Phase jump of at least pi between consecutive samples."""
