"""Parsers for the exact text syntax of field elements and polynomials.

Field elements are rational-coefficient expressions in t with + - * / ^ and
parentheses, e.g. "t^2*(2+t)/(3+t)".  Polynomials additionally use the
variables T1..Tr with nonnegative integer exponents, e.g. "t + T1*T2^2".
Parsing is exact: no decimals are accepted, and division by anything
involving a variable is rejected (polynomial inputs stay polynomials).
"""
from __future__ import annotations

import re
from fractions import Fraction

from .errors import ValidationError
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


class _Parser:
    def __init__(self, text: str, arity: int):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.arity = arity

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise ValidationError(f"unexpected end of expression in {self.text!r}")
        self.pos += 1
        return tok

    def parse(self) -> MultivariatePoly:
        value = self._expr()
        if self._peek() is not None:
            raise ValidationError(
                f"unexpected token {self._peek()!r} in {self.text!r}"
            )
        return value

    def _expr(self) -> MultivariatePoly:
        value = self._term()
        while self._peek() in ("+", "-"):
            op = self._next()
            rhs = self._term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self) -> MultivariatePoly:
        value = self._unary()
        while self._peek() in ("*", "/"):
            op = self._next()
            rhs = self._unary()
            if op == "*":
                value = value * rhs
            else:
                value = value * self._constant_inverse(rhs)
        return value

    def _constant_inverse(self, divisor: MultivariatePoly) -> MultivariatePoly:
        const = _constant_of(divisor)
        if const is None:
            raise ValidationError("cannot divide by an expression in T-variables")
        if not const:
            raise ValidationError("division by zero in expression")
        return MultivariatePoly.constant(self.arity, const.inverse())

    def _unary(self) -> MultivariatePoly:
        negate = False
        while self._peek() == "-":
            self._next()
            negate = not negate
        value = self._power()
        return -value if negate else value

    def _power(self) -> MultivariatePoly:
        base = self._atom()
        if self._peek() != "^":
            return base
        self._next()
        sign = 1
        if self._peek() == "-":
            self._next()
            sign = -1
        tok = self._next()
        if not tok.isdigit():
            raise ValidationError(f"exponent must be an integer, got {tok!r}")
        n = sign * int(tok)
        if n >= 0:
            return base**n
        const = _constant_of(base)
        if const is None:
            raise ValidationError("negative powers of T-variables are not allowed")
        return MultivariatePoly.constant(self.arity, const ** n)

    def _atom(self) -> MultivariatePoly:
        tok = self._next()
        if tok == "(":
            value = self._expr()
            if self._next() != ")":
                raise ValidationError(f"unbalanced parentheses in {self.text!r}")
            return value
        if tok == "t":
            return MultivariatePoly.constant(self.arity, BaseElement({1: 1}))
        if tok.isdigit():
            return MultivariatePoly.constant(self.arity, int(tok))
        m = _VARIABLE.fullmatch(tok)
        if m:
            index = int(m.group(1))
            if not 1 <= index <= self.arity:
                raise ValidationError(
                    f"variable {tok} out of range: expression has arity {self.arity}"
                )
            return MultivariatePoly.variable(index, self.arity)
        raise ValidationError(f"unexpected token {tok!r} in {self.text!r}")


def _constant_of(poly: MultivariatePoly) -> BaseElement | None:
    """The constant value of a polynomial, or None if a variable occurs."""
    if not poly.terms:
        return BaseElement(0)
    if len(poly.terms) == 1:
        exps, coeff = next(iter(poly.terms.items()))
        if not any(exps):
            return coeff
    return None


def parse_polynomial(text: str, arity: int | None = None) -> MultivariatePoly:
    """Parse a polynomial in T1..Tr over the base field.

    When arity is None it is inferred as the largest variable index that
    occurs (zero for a constant expression).
    """
    if arity is None:
        indices = [int(m.group(1)) for m in _VARIABLE.finditer(text)]
        arity = max(indices, default=0)
    try:
        return _Parser(text, arity).parse()
    except RecursionError:
        raise ValidationError("expression nested too deeply") from None


def parse_element(text: str) -> BaseElement:
    """Parse a base-field element; T-variables are rejected."""
    if _VARIABLE.search(text):
        raise ValidationError("field elements cannot contain T-variables")
    poly = parse_polynomial(text, arity=0)
    return poly.terms.get((), BaseElement(0))


def parse_flow_time(text: str):
    """Parse a flow time: a nonnegative rational, or the token 'inf'."""
    text = text.strip()
    try:
        s = INFINITY if text == "inf" else Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"invalid flow time {text!r}: {exc}") from None
    return _check_flow_time(s)
