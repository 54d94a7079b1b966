"""Reference implementations that only the tests use.

`eval_expr` walks the AST and is the bitwise oracle of the evaluators that
`funcexpr` compiles; `to_string` renders an AST so that parsing gives it
back; `parse_novikov` reads what `novikov.format_novikov` writes.
"""

from __future__ import annotations

import math
import re

from morseflow.errors import DomainError
from morseflow.funcexpr import (_OPERATORS, Add, Call, Div, Expr, Mul, Neg, Num, Pi,
                                Pow, Sub, Var)
from morseflow.novikov import CMAX_DEFAULT, NovikovElement


# --- printing ----------------------------------------------------------------

def to_string(e: Expr) -> str:
    """Fully parenthesized rendering; parse(to_string(e)) == e."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Pi):
        return "pi"
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, Neg):
        return f"(-{to_string(e.arg)})"
    if type(e) in _OPERATORS:
        return f"({to_string(e.left)} {_OPERATORS[type(e)]} {to_string(e.right)})"
    if isinstance(e, Pow):
        return f"({to_string(e.base)} ^ {e.exponent})"
    if isinstance(e, Call):
        return f"{e.name}({to_string(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


# --- evaluation ---------------------------------------------------------------

def eval_expr(e: Expr, point) -> float:
    """Tree-walking evaluation at `point` (sequence indexed from 0)."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Pi):
        return math.pi
    if isinstance(e, Var):
        return float(point[e.index - 1])
    if isinstance(e, Neg):
        return -eval_expr(e.arg, point)
    if isinstance(e, Add):
        return eval_expr(e.left, point) + eval_expr(e.right, point)
    if isinstance(e, Sub):
        return eval_expr(e.left, point) - eval_expr(e.right, point)
    if isinstance(e, Mul):
        return eval_expr(e.left, point) * eval_expr(e.right, point)
    if isinstance(e, Div):
        num = eval_expr(e.left, point)
        den = eval_expr(e.right, point)
        if den == 0.0:
            raise DomainError(f"division by zero in {to_string(e)}", point)
        return num / den
    if isinstance(e, Pow):
        b = eval_expr(e.base, point)
        if b == 0.0 and e.exponent < 0:
            raise DomainError(f"zero base with negative exponent in {to_string(e)}", point)
        return b ** e.exponent
    if isinstance(e, Call):
        x = eval_expr(e.arg, point)
        if e.name == "sin":
            return math.sin(x)
        if e.name == "cos":
            return math.cos(x)
        if e.name == "exp":
            return math.exp(x)
        if e.name == "log":
            if x <= 0.0:
                raise DomainError(f"log of non-positive value {x}", point)
            return math.log(x)
        if e.name == "sqrt":
            if x < 0.0:
                raise DomainError(f"sqrt of negative value {x}", point)
            return math.sqrt(x)
    raise TypeError(f"not an expression node: {e!r}")


# --- Novikov elements -----------------------------------------------------------

_TERM_RE = re.compile(r"^T\^(.+)$")


def parse_novikov(text: str, cmax: float = CMAX_DEFAULT) -> NovikovElement:
    text = text.strip()
    if text == "0":
        return NovikovElement.zero(cmax)
    exps = []
    for tok in text.split("+"):
        tok = tok.strip()
        m = _TERM_RE.match(tok)
        if not m:
            raise ValueError(f"bad Novikov term {tok!r}")
        exps.append(float(m.group(1)))
    return NovikovElement(exps, cmax)
