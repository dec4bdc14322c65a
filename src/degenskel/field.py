"""Exact arithmetic in the base field: rational functions of the uniformizer t.

Every computation in this package takes place over Q(t), the field of
rational functions in one variable t over the rationals, carrying the t-adic
valuation (order of vanishing at t = 0).  This is the computable core of a
complete discretely valued field with residue characteristic zero: all the
formulas in scope use only field arithmetic and the valuation, so Q(t)
realizes them exactly.

An element is stored as one pair of integer polynomials: a Laurent
numerator over a denominator with positive constant term, coprime, with
joint integer content 1.  Rationals enter only in the constructor, which
clears their denominators once, and leave only in rendering, so all
arithmetic runs on Python ints.  The flow's Taylor coefficients come in a
deferred form, _Unreduced, whose invariant is weaker: den is a polynomial
with nonzero constant term, so v = min(num) with no reduction; the pair is
reduced to the canonical one on first read.

Reduction takes one heuristic gcd: the integer gcd of both sides at a
large x, read back as a polynomial off its base-x digits, with both
cofactors read the same way.  A read-out is kept only if it gives both
sides back exactly, and x grows until it does.  No fallback is needed:
past a bound set by the resultant of the cofactors every read-out is exact.

Absolute values are handled additively throughout the package: instead of
|x| = exp(-v(x)) we compute with v(x) itself, so comparisons and min/max of
absolute values become comparisons of rationals.  The only non-rational
value anywhere is INFINITY = math.inf, used for the valuation of zero; it is
absorbing under addition and maximal under comparison, which is exactly the
arithmetic the convention v(0) = +infinity requires.
"""
from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

from .errors import ValidationError

INFINITY = math.inf

# Sparse Laurent polynomial in t: exponent -> nonzero integer coefficient.
Coeffs = dict[int, int]


def _as_coeffs(value) -> dict[int, int | Fraction]:
    if isinstance(value, dict):
        if not all(
            isinstance(e, int) and isinstance(c, (int, Fraction))
            for e, c in value.items()
        ):
            raise TypeError("polynomial data must be {int: rational}, no floats")
        return {e: c for e, c in value.items() if c}
    if not isinstance(value, (int, Fraction)):
        raise TypeError("floats are not exact; use Fraction or int")
    return {0: value} if value else {}


def _integral(num: dict, den: dict) -> tuple[Coeffs, Coeffs]:
    """Rational num and den multiplied by one positive integer that clears
    every coefficient denominator, so the quotient is unchanged."""
    lcm = math.lcm(*(c.denominator for c in num.values()),
                   *(c.denominator for c in den.values()))
    return (
        {e: c.numerator * (lcm // c.denominator) for e, c in num.items()},
        {e: c.numerator * (lcm // c.denominator) for e, c in den.items()},
    )


def _shift(p: Coeffs, k: int) -> Coeffs:
    return {e + k: c for e, c in p.items()} if k else dict(p)


def _add(a: Coeffs, b: Coeffs) -> Coeffs:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _mul(a: Coeffs, b: Coeffs) -> Coeffs:
    out: Coeffs = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _scale(p: Coeffs, c) -> Coeffs:
    return {e: v * c for e, v in p.items()}


def _power(p: Coeffs, n: int) -> Coeffs:
    if not n:
        return {0: 1}
    out = dict(p)  # the leading bit; a copy, so p^1 is never p itself
    for bit in bin(n)[3:]:  # left-to-right binary powering
        out = _mul(_mul(out, out), p) if bit == "1" else _mul(out, out)
    return out


# -- heuristic gcd over the integers (exponents >= 0) ------------------------


def _eval(p: Coeffs, x: int) -> int:
    """p(x) by Horner's rule."""
    v = 0
    for e in range(max(p), -1, -1):
        v = v * x + p.get(e, 0)
    return v


def _digits(v: int, x: int) -> Coeffs:
    """The balanced base-x digits of v, each in (-x/2, x/2], as a polynomial."""
    out: Coeffs = {}
    h, e = (x - 1) // 2, 0
    while v:
        v, d = divmod(v + h, x)
        if d != h:
            out[e] = d - h
        e += 1
    return out


def _poly_gcd(a: Coeffs, b: Coeffs) -> tuple[Coeffs, Coeffs, Coeffs]:
    """(g, a/g, b/g), g the primitive gcd, by heuristic gcd (Char, Geddes &
    Gonnet, J. Symbolic Comput. 7, 1989).

    g is the primitive part of the balanced base-x digits of h = gcd(a(x),
    b(x)); h > 0, so g has a positive leading coefficient.  The cofactors
    are the digits of a(x)/g(x) and b(x)/g(x).  g is accepted when it times
    the cofactors gives a and b exactly; as x >= 2*min(|a|, |b|) + 2 (|.|
    the largest coefficient), it is then the gcd.

    No try limit or fallback is needed.  Write a = G*A, b = G*B with G the
    gcd; U*A + V*B = R = Res(A, B) != 0 for some U, V in Z[t], so
    gcd(a(x), b(x)) = |G(x)| * h' with h' dividing R.  Once x exceeds
    2*|R|*|G| and twice |A| and |B|, every read-out is exact and the loop
    returns G; x grows geometrically, so it gets there.
    """
    x = 2 * max(map(abs, (*a.values(), *b.values()))) + 2
    while True:
        ax, bx = _eval(a, x), _eval(b, x)
        g = _digits(math.gcd(ax, bx), x)
        content = math.gcd(*g.values())
        g = {e: c // content for e, c in g.items()}
        if g == {0: 1}:
            return g, a, b
        gx = _eval(g, x)
        ca, cb = _digits(ax // gx, x), _digits(bx // gx, x)
        if _mul(g, ca) == a and _mul(g, cb) == b:
            return g, ca, cb
        x = x * 73794 // 27011 + 1


def _canonical(num: Coeffs, den: Coeffs) -> tuple[Coeffs, Coeffs]:
    """Reduce the integer pair num/den to the canonical form.

    The denominator ends up a polynomial with positive constant term and no
    common factor with the numerator, and the joint content of the pair is
    1, so equality is structural and the valuation is the lowest exponent of
    the (Laurent) numerator.
    """
    if not den:
        raise ZeroDivisionError("denominator is zero")
    if not num:
        return {}, {0: 1}
    if den == {0: 1}:
        return num, den
    low_n, low_d = min(num), min(den)
    num0 = _shift(num, -low_n)
    den0 = _shift(den, -low_d)
    if len(num0) > 1 and len(den0) > 1:
        # a one-term side is c*t^k, whose t-power is already shifted out
        _, num0, den0 = _poly_gcd(num0, den0)
    g = math.gcd(*num0.values(), *den0.values())
    if den0[0] < 0:
        g = -g
    if g != 1:
        num0 = {e: c // g for e, c in num0.items()}
        den0 = {e: c // g for e, c in den0.items()}
    return _shift(num0, low_n - low_d), den0


class BaseElement:
    """An element of the base field Q(t), kept in reduced canonical form.

    The numerator is a Laurent polynomial in t with integer coefficients
    (negative exponents appear when the element has negative valuation) and
    the denominator is an integer polynomial with positive constant term,
    coprime to the numerator; the two share no integer content.  Instances
    are immutable; all operations return new elements.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, numerator, denominator=1):
        num, den = _canonical(
            *_integral(_as_coeffs(numerator), _as_coeffs(denominator))
        )
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):
        raise AttributeError("BaseElement is immutable")

    @classmethod
    def _make(cls, num: Coeffs, den: Coeffs) -> BaseElement:
        return cls._of(*_canonical(num, den))

    @classmethod
    def _of(cls, num: Coeffs, den: Coeffs) -> BaseElement:
        """Wrap a pair that is already in canonical form."""
        self = object.__new__(cls)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)
        return self

    # -- valuation ----------------------------------------------------------

    def valuation(self):
        """t-adic order of the element; INFINITY exactly for zero."""
        return min(self._num) if self._num else INFINITY

    def __bool__(self) -> bool:
        return bool(self._num)

    # -- field operations ---------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, BaseElement):
            return other
        if isinstance(other, (int, Fraction)):
            return BaseElement(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        num = _add(_mul(self._num, o._den), _mul(o._num, self._den))
        return BaseElement._make(num, _mul(self._den, o._den))

    __radd__ = __add__

    def __neg__(self):
        return BaseElement._of(_scale(self._num, -1), self._den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return BaseElement._make(_mul(self._num, o._num), _mul(self._den, o._den))

    __rmul__ = __mul__

    def inverse(self) -> BaseElement:
        if not self._num:
            raise ZeroDivisionError("inversion of zero in the base field")
        # den/num, shifted so num's lowest term is a positive constant term
        v = min(self._num)
        s = -1 if self._num[v] < 0 else 1
        return BaseElement._of(
            _scale(_shift(self._den, -v), s), _scale(_shift(self._num, -v), s)
        )

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        # powers of a coprime pair with joint content 1 stay canonical
        return BaseElement._of(_power(self._num, n), _power(self._den, n))

    # -- comparison and rendering -------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._num == o._num and self._den == o._den

    def __hash__(self):
        return hash(
            (tuple(sorted(self._num.items())), tuple(sorted(self._den.items())))
        )

    def __str__(self) -> str:
        if not self._num:
            return "0"
        # the printed pair is divided by the denominator's constant term
        c = self._den[0]
        num = _poly_str(self._num, c)
        if len(self._den) == 1:
            return num
        den = _poly_str(self._den, c)
        if len(self._num) > 1:
            num = f"({num})"
        return f"{num}/({den})"

    def __repr__(self) -> str:
        return f"BaseElement({str(self)!r})"


class _Unreduced(BaseElement):
    """num/den unreduced, den a polynomial with nonzero constant term: the
    valuation and truth value are read off num, and the first read of _num
    or _den reduces the pair once, as BaseElement._make(num, den) would."""

    __slots__ = ("_pair",)

    def __init__(self, num: Coeffs, den: Coeffs):
        object.__setattr__(self, "_pair", (num, den))

    def __getattr__(self, name):
        if name not in ("_num", "_den"):
            raise AttributeError(name)
        num, den = _canonical(*self._pair)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)
        return num if name == "_num" else den

    def valuation(self):
        return min(self._pair[0]) if self._pair[0] else INFINITY

    def __bool__(self) -> bool:
        return bool(self._pair[0])


def _term_str(c: Fraction, e: int) -> str:
    if e == 0:
        return str(c)
    t = "t" if e == 1 else f"t^{e}"
    if c == 1:
        return t
    if c == -1:
        return f"-{t}"
    return f"{c}*{t}"


def _poly_str(p: Coeffs, scale: int) -> str:
    parts = []
    for e in sorted(p):
        s = _term_str(Fraction(p[e], scale), e)
        if not parts:
            parts.append(s)
        elif s.startswith("-"):
            parts.append(f" - {s[1:]}")
        else:
            parts.append(f" + {s}")
    return "".join(parts)


def uniformizer() -> BaseElement:
    """The uniformizer t, of valuation 1."""
    return BaseElement({1: 1})


def format_rational(v) -> str:
    """Render a rational value (or INFINITY) as 'p/q' in lowest terms."""
    if v == INFINITY:
        return "inf"
    v = Fraction(v)
    try:
        return str(v)
    except ValueError:  # a part past the digit limit of int()
        digits = Decimal(max(abs(v.numerator), v.denominator)).adjusted() + 1
        raise ValidationError(f"rational of {digits} digits is too long to print") from None
