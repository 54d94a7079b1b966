"""The lexer's character classes over all of Unicode: whitespace is exactly
str.isspace, and only ASCII letters, digits, '_' and '.' start a token."""

import sys

from morseflow.errors import ExprSyntaxError
from morseflow.funcexpr import _tokenize


def _first_token(c: str):
    """The first token of c + "0", or the offset of the character refused."""
    try:
        return _tokenize(c + "0")[0]
    except ExprSyntaxError as exc:
        assert exc.args[0].startswith(f"unexpected character '{c}'")
        return exc.position


def _expected(c: str):
    if c.isspace():
        return ("num", "0", 1)        # skipped: the literal after it is the first token
    if not c.isascii():
        return 0                      # refused where it stands
    # a number ('.' and digits) or an identifier, which takes the 0 along
    return ("ident" if c.isalpha() or c == "_" else "num", c + "0", 0)


def test_whitespace_and_token_starts_over_every_code_point():
    chars = [c for c in map(chr, range(sys.maxunicode + 1))
             if c.isspace() or c.isalnum() or c in "._"]
    assert {c: _first_token(c) for c in chars} == {c: _expected(c) for c in chars}
