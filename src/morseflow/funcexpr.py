"""Expression language for scalar fields in chart coordinates.

Variables are x1..xn, `pi` is a keyword constant, and the operators
+ - * / ^ follow the precedence ^ > unary minus > * / > + -, all
left-associative.  Exponents of ^ must be integer literals so that
differentiation stays inside the language.  sin, cos, exp, log and
sqrt are the only functions.  Digits and identifiers are ASCII, and a
literal that overflows a float is a syntax error, as is nesting or an
AST deeper than MAX_DEPTH levels.

Differentiation is symbolic on the AST (no dual numbers); evaluation
is either tree-walking (`eval_expr`) or compiled to a plain Python
function (`compile_tuple`) for the integrator hot loop, over `math`
for scalars or numpy for arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, ExprSyntaxError, UnknownIdentifierError

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")
# deepest nesting (parentheses, calls, unary minus) and deepest AST the parser
# accepts.  The parser takes up to five frames per level and the walkers
# recurse over derivatives deeper than the AST, so this keeps every
# expression within Python's default limit of 1000 frames.
MAX_DEPTH = 100
# what a compiled evaluator raises outside the real domain; over numpy arrays
# it raises FloatingPointError under np.errstate(divide/invalid/over="raise")
EVAL_ERRORS = (ValueError, ZeroDivisionError, OverflowError, FloatingPointError)


# --- AST nodes (frozen: structural equality, safe to share) -----------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Pi:
    pass


@dataclass(frozen=True)
class Var:
    index: int  # 1-based, i.e. Var(1) is x1


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Call:
    name: str
    arg: "Expr"


Expr = Num | Pi | Var | Neg | Add | Sub | Mul | Div | Pow | Call
_OPERATORS = {Add: "+", Sub: "-", Mul: "*", Div: "/"}


# --- lexer -------------------------------------------------------------------

_NUM = "num"
_IDENT = "ident"
_OP = "op"
_END = "end"


def _digits(s: str) -> bool:
    """True for a non-empty run of ASCII digits (str.isdigit also takes '²')."""
    return s.isascii() and s.isdigit()


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if _digits(c) or (c == "." and i + 1 < n and _digits(text[i + 1])):
            j = i
            while j < n and _digits(text[j]):
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and _digits(text[j]):
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and _digits(text[k]):
                    j = k
                    while j < n and _digits(text[j]):
                        j += 1
            if not math.isfinite(float(text[i:j])):
                raise ExprSyntaxError(f"number {text[i:j]} overflows", i)
            toks.append((_NUM, text[i:j], i))
            i = j
            continue
        if c.isascii() and (c.isalpha() or c == "_"):
            j = i
            while j < n and text[j].isascii() and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append((_IDENT, text[i:j], i))
            i = j
            continue
        if c in "+-*/^()":
            toks.append((_OP, c, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character '{c}'", i)
    toks.append((_END, "", n))
    return toks


# --- parser ------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str, dim: int):
        self.toks = _tokenize(text)
        self.pos = 0
        self.dim = dim
        self.level = 0       # open unary() calls: the recursion depth in levels
        self.depths = {}     # id of each built node -> its AST depth

    def deeper(self, at: int):
        raise ExprSyntaxError(f"expression nests deeper than {MAX_DEPTH} levels", at)

    def node(self, e: Expr, at: int, *kids) -> Expr:
        """e, whose children are kids, once its AST depth is known to be in bounds."""
        depth = 1 + max(self.depths.get(id(k), 1) for k in kids)
        if depth > MAX_DEPTH:
            self.deeper(at)
        self.depths[id(e)] = depth
        return e

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect_op(self, op: str):
        kind, val, at = self.peek()
        if kind != _OP or val != op:
            raise ExprSyntaxError("unexpected token", at, expected=f"'{op}'")
        self.next()

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, at = self.peek()
        if kind != _END:
            raise ExprSyntaxError(f"trailing input '{val}'", at, expected="end of expression")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, val, at = self.peek()
            if kind == _OP and val in "+-":
                self.next()
                rhs = self.term()
                e = self.node(Add(e, rhs) if val == "+" else Sub(e, rhs), at, e, rhs)
            else:
                return e

    def term(self) -> Expr:
        e = self.unary()
        while True:
            kind, val, at = self.peek()
            if kind == _OP and val in "*/":
                self.next()
                rhs = self.unary()
                e = self.node(Mul(e, rhs) if val == "*" else Div(e, rhs), at, e, rhs)
            else:
                return e

    def unary(self) -> Expr:
        # every recursion of the parser passes through here
        kind, val, at = self.peek()
        if self.level == MAX_DEPTH:
            self.deeper(at)
        self.level += 1
        try:
            if kind == _OP and val == "-":
                self.next()
                arg = self.unary()
                return self.node(Neg(arg), at, arg)
            return self.power()
        finally:
            self.level -= 1

    def power(self) -> Expr:
        e = self.atom()
        while True:
            kind, val, at = self.peek()
            if kind == _OP and val == "^":
                self.next()
                e = self.node(Pow(e, self.exponent()), at, e)
            else:
                return e

    def exponent(self) -> int:
        # ^ admits integer literals only; a sign is part of the literal.
        sign = 1
        kind, val, at = self.peek()
        if kind == _OP and val == "-":
            self.next()
            sign = -1
            kind, val, at = self.peek()
        if kind != _NUM:
            raise ExprSyntaxError("exponent is not a literal", at, expected="integer literal")
        x = float(val)
        if x != int(x):
            raise ExprSyntaxError(f"exponent {val} is not an integer", at, expected="integer literal")
        self.next()
        return sign * (int(val) if _digits(val) else int(x))

    def atom(self) -> Expr:
        kind, val, at = self.next()
        if kind == _NUM:
            return Num(float(val))
        if kind == _IDENT:
            if val == "pi":
                return Pi()
            if val in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return self.node(Call(val, arg), at, arg)
            if val.startswith("x") and _digits(val[1:]):
                idx = int(val[1:])
                if idx == 0:
                    raise UnknownIdentifierError(val, at)
                if idx > self.dim:
                    raise DimensionError(
                        f"variable {val} exceeds declared dimension {self.dim}")
                return Var(idx)
            raise UnknownIdentifierError(val, at)
        if kind == _OP and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == _END:
            raise ExprSyntaxError("unexpected end of expression", at, expected="operand")
        raise ExprSyntaxError(f"unexpected token '{val}'", at, expected="operand")


def parse(text: str, dim: int) -> Expr:
    """Parse `text` into an AST over variables x1..x`dim`."""
    if dim < 1:
        raise DimensionError(f"dimension must be >= 1, got {dim}")
    return _Parser(text, dim).parse()


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


# --- differentiation -----------------------------------------------------------

def _is_zero(e: Expr) -> bool:
    return isinstance(e, Num) and e.value == 0.0


def _is_one(e: Expr) -> bool:
    return isinstance(e, Num) and e.value == 1.0


def _add(a: Expr, b: Expr) -> Expr:
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_zero(b):
        return a
    if _is_zero(a):
        return Neg(b)
    return Sub(a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_zero(a) or _is_zero(b):
        return Num(0.0)
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    return Mul(a, b)


def differentiate(e: Expr, i: int) -> Expr:
    """Symbolic partial derivative with respect to x_i (1-based)."""
    if isinstance(e, (Num, Pi)):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0) if e.index == i else Num(0.0)
    if isinstance(e, Neg):
        d = differentiate(e.arg, i)
        return Num(0.0) if _is_zero(d) else Neg(d)
    if isinstance(e, Add):
        return _add(differentiate(e.left, i), differentiate(e.right, i))
    if isinstance(e, Sub):
        return _sub(differentiate(e.left, i), differentiate(e.right, i))
    if isinstance(e, Mul):
        return _add(_mul(differentiate(e.left, i), e.right),
                    _mul(e.left, differentiate(e.right, i)))
    if isinstance(e, Div):
        # (u/v)' = u'/v - u v'/v^2
        du = differentiate(e.left, i)
        dv = differentiate(e.right, i)
        first = Num(0.0) if _is_zero(du) else Div(du, e.right)
        if _is_zero(dv):
            return first
        second = Div(_mul(e.left, dv), Pow(e.right, 2))
        return _sub(first, second)
    if isinstance(e, Pow):
        if e.exponent == 0:
            return Num(0.0)
        db = differentiate(e.base, i)
        if _is_zero(db):
            return Num(0.0)
        inner = e.base if e.exponent == 2 else Pow(e.base, e.exponent - 1)
        return _mul(Num(float(e.exponent)), _mul(inner, db))
    if isinstance(e, Call):
        da = differentiate(e.arg, i)
        if _is_zero(da):
            return Num(0.0)
        if e.name == "sin":
            return _mul(Call("cos", e.arg), da)
        if e.name == "cos":
            return Neg(_mul(Call("sin", e.arg), da))
        if e.name == "exp":
            return _mul(e, da)
        if e.name == "log":
            return Div(da, e.arg)
        if e.name == "sqrt":
            return Div(da, _mul(Num(2.0), e))
    raise TypeError(f"not an expression node: {e!r}")


# --- compilation ----------------------------------------------------------------

_MATH_ENV = {
    "sin": math.sin, "cos": math.cos, "exp": math.exp,
    "log": math.log, "sqrt": math.sqrt, "pi": math.pi,
}
_NUMPY_ENV = {
    "sin": np.sin, "cos": np.cos, "exp": np.exp,
    "log": np.log, "sqrt": np.sqrt, "pi": math.pi,
}


def _source(exprs, dim: int) -> str:
    """Python source of `def _f(x1, ..., x<dim>)` returning the tuple of exprs.

    Each distinct operation on distinct operands is computed once, into a
    temporary, as `eval_expr` computes it, so results are bitwise those of
    `eval_expr` under the same functions.
    """
    lines: list = []
    temps: dict = {}   # code of one operation -> its temporary
    seen: dict = {}    # id of a node already named -> its temporary

    def name(e) -> str:
        if isinstance(e, Num):
            return repr(e.value)
        if isinstance(e, Pi):
            return "pi"
        if isinstance(e, Var):
            return f"x{e.index}"
        if id(e) not in seen:
            if isinstance(e, Neg):
                code = f"-{name(e.arg)}"
            elif isinstance(e, Pow):
                code = f"{name(e.base)} ** {e.exponent}"
            elif isinstance(e, Call):
                code = f"{e.name}({name(e.arg)})"
            else:
                code = f"{name(e.left)} {_OPERATORS[type(e)]} {name(e.right)}"
            if code not in temps:
                temps[code] = f"t{len(temps)}"
                lines.append(f"    {temps[code]} = {code}")
            seen[id(e)] = temps[code]
        return seen[id(e)]

    ret = ", ".join(name(e) for e in exprs)
    args = ", ".join(f"x{k}" for k in range(1, dim + 1))
    return "\n".join([f"def _f({args}):", *lines, f"    return ({ret},)"])


def compile_tuple(exprs, dim: int, env: dict = _MATH_ENV):
    """Compile expressions to one callable of dim arguments returning a tuple.

    `env` binds sin, cos, exp, log, sqrt and pi: `math` by default.
    """
    namespace = dict(env, __builtins__={})
    exec(_source(exprs, dim), namespace)
    return namespace["_f"]


class ScalarField:
    """A parsed expression together with its gradient and Hessian.

    `dim` is the number of chart (or homogeneous/ambient) variables the
    expression may mention; partial derivative ASTs and compiled fast
    evaluators are built once and reused.  `value`, `gradient` and
    `hessian` evaluate on Python floats, so a numpy point fails with a
    DomainError, never a numpy warning.
    """

    def __init__(self, expr: Expr, dim: int, text: str | None = None):
        self.expr = expr
        self.dim = dim
        self.text = text if text is not None else to_string(expr)
        self.partials = tuple(differentiate(expr, i) for i in range(1, dim + 1))
        self.second = tuple(
            tuple(differentiate(self.partials[i], j + 1) for j in range(dim))
            for i in range(dim)
        )
        self._value = compile_tuple((expr,), dim)
        self._grad = compile_tuple(self.partials, dim)
        # the same gradient, elementwise over numpy arrays
        self.array_gradient = compile_tuple(self.partials, dim, _NUMPY_ENV)
        flat = [self.second[i][j] for i in range(dim) for j in range(dim)]
        self._hess = compile_tuple(flat, dim)

    @classmethod
    def from_text(cls, text: str, dim: int) -> "ScalarField":
        return cls(parse(text, dim), dim, text=text)

    def value(self, point) -> float:
        try:
            return float(self._value(*map(float, point))[0])
        except EVAL_ERRORS as exc:
            raise DomainError(f"evaluation failed: {exc}", tuple(point)) from exc

    def gradient(self, point):
        try:
            return self._grad(*map(float, point))
        except EVAL_ERRORS as exc:
            raise DomainError(f"gradient evaluation failed: {exc}", tuple(point)) from exc

    def hessian(self, point):
        try:
            flat = self._hess(*map(float, point))
        except EVAL_ERRORS as exc:
            raise DomainError(f"hessian evaluation failed: {exc}", tuple(point)) from exc
        n = self.dim
        return [[flat[i * n + j] for j in range(n)] for i in range(n)]

    def __repr__(self):
        return f"ScalarField({self.text!r}, dim={self.dim})"
