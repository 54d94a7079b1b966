"""Expression language for scalar fields in chart coordinates.

Variables are x1..xn, `pi` is a keyword constant, and FUNCTIONS are the
only functions (both evaluation environments are built from it).  The
binary operators are one table, `_BINARY`: + - below * /, each level one
left-associative loop; unary minus binds tighter, ^ (left-associative)
tighter still, and its exponents must be integer literals so that
differentiation stays inside the language.  The tokens are one regular
expression, `_TOKEN`: digits and identifiers are ASCII, and a literal
that overflows a float is a syntax error, as is nesting or an AST
deeper than MAX_DEPTH levels.

Differentiation is symbolic on the AST (no dual numbers).  Evaluation
is compiled only: each tuple of expressions becomes plain Python code
once (`compile_tuple`), bound (`bind`) over `math` for scalars (f, and
the gradient the flow steps with) and over numpy for arrays (the
gradient, and the only Hessian).  The tree-walking oracle the compiled
code is checked against bitwise lives with the tests.
"""

from __future__ import annotations

import math
import re
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
# the binary operators by precedence, loosest first; all left-associative
_BINARY = ({"+": Add, "-": Sub}, {"*": Mul, "/": Div})
_OPERATORS = {cls: op for ops in _BINARY for op, cls in ops.items()}


# --- lexer -------------------------------------------------------------------

_NUM, _IDENT, _OP, _END = "num", "ident", "op", "end"   # group names of _TOKEN, and the end
# one token at the start of the rest of the text; `bad` takes any character
# no other group starts with, so the matches tile the text
_TOKEN = re.compile(r"""
    (?P<space> \s+ )
  | (?P<num>   (?: [0-9]+ (?: \. [0-9]* )? | \. [0-9]+ ) (?: [eE] [+-]? [0-9]+ )? )
  | (?P<ident> [A-Za-z_] [A-Za-z0-9_]* )
  | (?P<op>    [-+*/^()] )
  | (?P<bad>   . )
""", re.VERBOSE | re.DOTALL)


def _digits(s: str) -> bool:
    """True for a non-empty run of ASCII digits (str.isdigit also takes '²')."""
    return s.isascii() and s.isdigit()


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    for m in _TOKEN.finditer(text):
        kind, val, at = m.lastgroup, m.group(), m.start()
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character '{val}'", at)
        if kind == _NUM and not math.isfinite(float(val)):
            raise ExprSyntaxError(f"number {val} overflows", at)
        if kind != "space":
            toks.append((kind, val, at))
    toks.append((_END, "", len(text)))
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

    def expr(self, level: int = 0) -> Expr:
        """_BINARY[level] over the operands of the next level, or of unary()."""
        ops = _BINARY[level]
        down = level + 1 < len(_BINARY)
        e = self.expr(level + 1) if down else self.unary()
        while True:
            kind, val, at = self.peek()
            if kind != _OP or val not in ops:
                return e
            self.next()
            rhs = self.expr(level + 1) if down else self.unary()
            e = self.node(ops[val](e, rhs), at, e, rhs)

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

_MATH_ENV = {**{name: getattr(math, name) for name in FUNCTIONS}, "pi": math.pi}
_NUMPY_ENV = {**{name: getattr(np, name) for name in FUNCTIONS}, "pi": math.pi}


def _source(exprs, dim: int) -> str:
    """Python source of `def _f(x1, ..., x<dim>)` returning the tuple of exprs.

    Each distinct operation on distinct operands is computed once, into a
    temporary, as a walk of the tree computes it, so results are bitwise
    those of such a walk under the same functions.
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


def compile_tuple(exprs, dim: int):
    """Compile expressions to the code of one function of dim arguments
    returning a tuple; `bind` makes it callable."""
    return compile(_source(exprs, dim), "<field>", "exec")


def bind(code, env: dict = _MATH_ENV):
    """The function of compiled `code` with FUNCTIONS and pi bound from
    `env`: `math` by default, numpy for arrays."""
    namespace = dict(env, __builtins__={})
    exec(code, namespace)
    return namespace["_f"]


class ScalarField:
    """A parsed expression together with its gradient and Hessian.

    `dim` is the number of chart (or homogeneous/ambient) variables the
    expression may mention; partial derivative ASTs and compiled
    evaluators are built once and reused.  `value` is f on Python floats,
    a fault raised as DomainError; `_grad`, the flow's gradient, too.
    The Hessian is numpy only: `array_hessian` gives the flat second
    partials, and `array_gradient` the gradient, elementwise over arrays.
    """

    def __init__(self, expr: Expr, dim: int, text: str):
        self.expr = expr
        self.dim = dim
        self.text = text
        self.partials = tuple(differentiate(expr, i) for i in range(1, dim + 1))
        self.second = tuple(tuple(differentiate(d, j) for j in range(1, dim + 1))
                            for d in self.partials)
        self._value = bind(compile_tuple((expr,), dim))
        grad = compile_tuple(self.partials, dim)
        self._grad = bind(grad)
        # the same gradient, elementwise over numpy arrays
        self.array_gradient = bind(grad, _NUMPY_ENV)
        self.array_hessian = bind(compile_tuple([e for row in self.second for e in row], dim),
                                  _NUMPY_ENV)

    @classmethod
    def from_text(cls, text: str, dim: int) -> "ScalarField":
        return cls(parse(text, dim), dim, text=text)

    def value(self, point) -> float:
        """f at the float coordinates of point; evaluation faults become DomainError."""
        try:
            return float(self._value(*map(float, point))[0])
        except EVAL_ERRORS as exc:
            raise DomainError(f"evaluation failed: {exc}", tuple(point)) from exc

    def __repr__(self):
        return f"ScalarField({self.text!r}, dim={self.dim})"
