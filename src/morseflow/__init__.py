"""Morse homology by counting gradient flow lines on model manifolds,
lifted to a Lagrangian Floer complex over a truncated Novikov field.

The names below are the library surface; the modules hold the rest, and
every error class is importable from `morseflow.errors`.
"""

from .errors import MorseflowError, ResolutionWarning, UsageError
from .floer import arnold_bound, build_floer_complex, hf_ranks, strip_area_check
from .funcexpr import ScalarField
from .geometry import parse_manifold, projective, sphere, torus
from .maslov import LagrangianLoop, maslov_index
from .pipeline import MorseRun, run_morse

__version__ = "0.1.0"

__all__ = [
    "LagrangianLoop",
    "MorseRun",
    "MorseflowError",
    "ResolutionWarning",
    "ScalarField",
    "UsageError",
    "arnold_bound",
    "build_floer_complex",
    "hf_ranks",
    "maslov_index",
    "parse_manifold",
    "projective",
    "run_morse",
    "sphere",
    "strip_area_check",
    "torus",
]
