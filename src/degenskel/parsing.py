"""Parsers for the exact text syntax of field elements and polynomials.

Field elements are rational-coefficient expressions in t with + - * / ^ and
parentheses, e.g. "t^2*(2+t)/(3+t)".  Polynomials additionally use the
variables T1..Tr with nonnegative integer exponents, e.g. "t + T1*T2^2".
Parsing is exact: no decimals are accepted.  A value is a BaseElement of
Q(t) until a T-variable appears, and only then a MultivariatePoly.  A divisor
or a negative-power base must be a BaseElement, so one written with a
T-variable is rejected, even if the variables cancel.  Literals, t and T_k
are built in canonical form, unchecked; each operation reduces as it goes.
"""
from __future__ import annotations

import re
from fractions import Fraction

from .errors import ValidationError, _shown
from .field import INFINITY, BaseElement
from .flow import _check_flow_time
from .monoval import MultivariatePoly

_TOKEN = re.compile(r"(\d+)|(T\d+)|(t)|([()+\-*/^])|(\S)")
_VARIABLE = re.compile(r"T(\d+)")


def _tokenize(text: str) -> list[str]:
    tokens = []
    for match in _TOKEN.finditer(re.sub(r"\s+", "", text)):
        if match.group(5):
            raise ValidationError(
                f"unexpected character {match.group(5)!r} in expression"
            )
        tokens.append(match.group(0))
    return tokens


def _integer(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # past the digit limit of int()
        n = len(digits)
        raise ValidationError(f"integer literal of {n} digits is too long") from None


class _Parser:
    def __init__(self, text: str, arity: int):
        self.shown = _shown(text)
        self.tokens = _tokenize(text)
        self.pos = 0
        self.arity = arity

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise ValidationError(f"unexpected end of expression in {self.shown}")
        self.pos += 1
        return tok

    def _expr(self):
        value = self._term()
        while self._peek() in ("+", "-"):
            op = self._next()
            rhs = self._term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self):
        value = self._unary()
        while self._peek() in ("*", "/"):
            op = self._next()
            rhs = self._unary()
            if op == "/" and isinstance(rhs, MultivariatePoly):
                raise ValidationError("cannot divide by an expression in T-variables")
            if op == "/" and not rhs:
                raise ValidationError("division by zero in expression")
            value = value * (rhs.inverse() if op == "/" else rhs)
        return value

    def _unary(self):
        negate = False
        while self._peek() == "-":
            self._next()
            negate = not negate
        value = self._power()
        return -value if negate else value

    def _power(self):
        base = self._atom()
        if self._peek() != "^":
            return base
        self._next()
        negative = self._peek() == "-"
        if negative:
            self._next()
        tok = self._next()
        if not tok.isdigit():
            raise ValidationError(f"exponent must be an integer, got {_shown(tok)}")
        n = -_integer(tok) if negative else _integer(tok)
        if n < 0 and isinstance(base, MultivariatePoly):
            raise ValidationError("negative powers of T-variables are not allowed")
        return base**n

    def _atom(self):
        tok = self._next()
        if tok == "(":
            value = self._expr()
            if self._next() != ")":
                raise ValidationError(f"unbalanced parentheses in {self.shown}")
            return value
        if tok == "t":
            return BaseElement._of({1: 1}, {0: 1})
        if tok.isdigit():
            n = _integer(tok)
            return BaseElement._of({0: n} if n else {}, {0: 1})
        m = _VARIABLE.fullmatch(tok)
        if m:
            index = _integer(m.group(1))
            if not 1 <= index <= self.arity:
                raise ValidationError(
                    f"variable {_shown(tok, quote=str)} out of range:"
                    f" expression has arity {self.arity}"
                )
            return MultivariatePoly.variable(index, self.arity)
        raise ValidationError(f"unexpected token {_shown(tok)} in {self.shown}")


def _parse(text: str, arity: int):
    """A BaseElement, or a MultivariatePoly of this arity if a T-variable occurs."""
    parser = _Parser(text, arity)
    try:
        value = parser._expr()
    except RecursionError:
        raise ValidationError("expression nested too deeply") from None
    tok = parser._peek()
    if tok is not None:
        raise ValidationError(f"unexpected token {_shown(tok)} in {parser.shown}")
    return value


def parse_polynomial(text: str, arity: int | None = None) -> MultivariatePoly:
    """Parse a polynomial in T1..Tr over the base field.

    When arity is None it is inferred as the largest variable index that
    occurs (zero for a constant expression).
    """
    if arity is None:
        arity = max((_integer(m[1]) for m in _VARIABLE.finditer(text)), default=0)
    value = _parse(text, arity)
    if isinstance(value, BaseElement):
        return MultivariatePoly.constant(arity, value)
    return value


def parse_element(text: str) -> BaseElement:
    """Parse a base-field element; T-variables are rejected."""
    if _VARIABLE.search(text):
        raise ValidationError("field elements cannot contain T-variables")
    return _parse(text, 0)


def parse_flow_time(text: str):
    """Parse a flow time: a nonnegative rational, or the token 'inf'."""
    text = text.strip()
    try:
        s = INFINITY if text == "inf" else Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        # the reason quotes the text again, so only a short text gets it
        reason = f": {exc}" if len(repr(text)) <= 80 else ""
        raise ValidationError(f"invalid flow time {_shown(text)}{reason}") from None
    return _check_flow_time(s)
