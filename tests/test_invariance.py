"""Verdicts of `run_morse` under the torus's symmetries and duality: f, -f,
a shift of the chart and the swap of x1 and x2 all have the torus's ranks,
so a right program answers all four with (1, 2, 1) or refuses all four.

Two torus fields pin today's known flips, where the verdict depends on the
variant because the default seed grid misses critical points on some
charts and not on others.  On F1 (a product field) the sweep misses the
index-1 point (0.5, 0.5) and the maximum (0.5, 0): 2 of the 9 counts are
flagged and the b0/b2 check refuses f, -f and the swap, while the shifted
field is answered.  On F2 the shifted field's sweep finds an odd point set
(Euler characteristic -1) and is refused, while the others are answered.
When the sweep stops missing points, these become agreements.
"""

import re
import warnings

import pytest

from morseflow import ScalarField, run_morse, torus
from morseflow.errors import DomainError, ResolutionWarning

F1 = ("cos(2*pi*x1) + cos(2*pi*x2)+0.027574*cos(2*pi*(1*x1 + 0*x2))"
      "+0.266900*cos(2*pi*(2*x1 + 0*x2))")
F2 = ("cos(2*pi*x1) + cos(2*pi*x2)-0.159968*cos(2*pi*(2*x1 + 2*x2))"
      "-0.151355*cos(2*pi*(-2*x1 + 2*x2))")


def _substitute(text, names):
    return re.sub(r"x[12]", lambda m: names[m.group()], text)


VARIANTS = {
    "f": lambda t: t,
    "minus_f": lambda t: f"-({t})",
    "shift": lambda t: _substitute(t, {"x1": "(x1 + 0.3719)", "x2": "(x2 + 0.1234)"}),
    "swap": lambda t: _substitute(t, {"x1": "x2", "x2": "x1"}),
}
B0_B2 = r"have b0 = \d+ and b2 = \d+"
EULER = r"Euler characteristic -1 "

# (field, variant) -> ranks answered, or the refusal message it matches
VERDICTS = {
    ("F1", "f"): B0_B2, ("F1", "minus_f"): B0_B2,
    ("F1", "shift"): (1, 2, 1), ("F1", "swap"): B0_B2,
    ("F2", "f"): (1, 2, 1), ("F2", "minus_f"): (1, 2, 1),
    ("F2", "shift"): EULER, ("F2", "swap"): (1, 2, 1),
}


@pytest.mark.parametrize("name, variant", list(VERDICTS))
def test_documented_verdict_flip(name, variant):
    text = VARIANTS[variant]({"F1": F1, "F2": F2}[name])
    field = ScalarField.from_text(text, 2)
    verdict = VERDICTS[name, variant]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)   # F1's flagged counts
        if isinstance(verdict, str):
            with pytest.raises(DomainError, match=verdict):
                run_morse(field, torus(2))
        else:
            assert run_morse(field, torus(2)).ranks.by_degree == verdict
