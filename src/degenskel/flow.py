"""Exact simulator of the retraction flow on the basic two-component model.

The model is Spec R[T1, T2]/(T1^N1 * T2^N2 - t): two components E1, E2 of
multiplicities N1, N2 meeting in a single stratum O, with dual complex a
1-simplex.  Writing c = gcd(N1, N2) and M_i = N_i / c, the flow moves a
point x = (x1, x2) along the one-parameter family

    T1 |-> x1 * V^{M2},    T2 |-> x2 * V^{-M1}

and evaluates a polynomial f at flow time s through the Taylor expansion of
the resulting one-variable Laurent polynomial around V = 1: after clearing
the V-denominator,

    value(f, s) = min_i ( v(c_i) + i * s )

over the nonzero Taylor coefficients c_i.  Flow time is parametrized
additively, s = -log of the classical disc radius, so s = +infinity is the
identity end (only c_0 = f(x1, x2) survives) and s = 0 is the retraction
end (the Gauss value of the expansion).  The reparametrization is strictly
monotone, so every order-theoretic statement transfers.

Two kinds of points are supported, and both read f by diagonal: the terms
d * T1^(i + l*N1) * T2^(j + l*N2), l >= 0, equal (sum of d * t^l) * x1^i *
x2^j, with (i, j) the diagonal's least term in f.  Each sum is an unreduced
integer pair, so an expression that is actually zero cancels exactly and
no gcd is taken.  Rigid points have coordinates in the base field with
x1^N1 * x2^N2 = t and nonnegative valuations; their coefficients c_i are
exact field elements over one common denominator, each reduced on its first
read.  Monomial points on the edge carry weights (a1, a2); distinct
diagonals are independent and each moves as one power of V, so every
v(c_i) is a minimum of v_K(sum) + i*a1 + j*a2, read off without building
any c_i.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Mapping

from .dualcomplex import ModelDescription, MonomialPointData
from .errors import ValidationError
from .field import INFINITY, BaseElement, _add, _mul, _power, _scale, _shift, _Unreduced
from .monoval import MultivariatePoly


@dataclass(frozen=True)
class BasicModel:
    """The model T1^N1 * T2^N2 = t with its derived flow constants."""

    n1: int
    n2: int

    def __post_init__(self):
        for n in (self.n1, self.n2):
            if not isinstance(n, int) or n < 1:
                raise ValidationError("multiplicities must be positive integers")

    @property
    def c(self) -> int:
        return math.gcd(self.n1, self.n2)

    @property
    def m1(self) -> int:
        return self.n1 // self.c

    @property
    def m2(self) -> int:
        return self.n2 // self.c

    def model_description(self) -> ModelDescription:
        """The two-component model: vertices E1, E2 and the edge stratum O."""
        return ModelDescription(
            [("E1", self.n1), ("E2", self.n2)],
            [("O", ("E1", "E2"), None)],
        )

    def rigid_point(self, x1: BaseElement, x2: BaseElement) -> RigidPoint:
        """Validated point with coordinates in the base field.

        The point must satisfy x1^N1 * x2^N2 = t exactly and have
        nonnegative coordinate valuations (it lies where both |T_i| <= 1).
        """
        problems = []
        if x1.valuation() < 0:
            problems.append("rigid point: x1 has negative valuation")
        if x2.valuation() < 0:
            problems.append("rigid point: x2 has negative valuation")
        # cross-multiplied over the integer pairs, so no gcd is taken
        lhs = _mul(_power(x1._num, self.n1), _power(x2._num, self.n2))
        rhs = _mul(_power(x1._den, self.n1), _power(x2._den, self.n2))
        if lhs != _shift(rhs, 1):
            problems.append(
                f"rigid point: x1^{self.n1} * x2^{self.n2} must equal t"
            )
        if problems:
            raise ValidationError(problems)
        return RigidPoint(x1, x2)

    def monomial_point(self, a1, a2) -> MonomialPointData:
        """Monomial point on the edge stratum with weights (a1, a2)."""
        data = MonomialPointData("O", {"E1": a1, "E2": a2})
        self._edge_weights(data)
        return data

    def _edge_weights(self, data: MonomialPointData) -> tuple[Fraction, Fraction]:
        if data.stratum != "O" or set(data.alpha) != {"E1", "E2"}:
            raise ValidationError(
                "monomial data must live on the edge stratum O with weights"
                " for E1 and E2"
            )
        a1, a2 = data.alpha["E1"], data.alpha["E2"]
        if a1 * self.n1 + a2 * self.n2 != 1:
            raise ValidationError(
                f"weights must satisfy a1*{self.n1} + a2*{self.n2} = 1,"
                f" got {a1 * self.n1 + a2 * self.n2}"
            )
        return a1, a2


@dataclass(frozen=True)
class RigidPoint:
    """Coordinates of a rigid point; build through BasicModel.rigid_point."""

    x1: BaseElement
    x2: BaseElement


def _check_flow_time(s):
    """s as a Fraction (one passed in is returned as it is), or INFINITY."""
    if isinstance(s, float):  # tested first: a Fraction == float test is slow
        if s == INFINITY:
            return INFINITY
        raise ValidationError("flow time must be an exact rational or INFINITY")
    if not isinstance(s, Fraction):
        s = Fraction(s)
    if s < 0:
        raise ValidationError("flow time must be nonnegative")
    return s


def _diagonals(bm: BasicModel, f: MultivariatePoly) -> dict[tuple[int, int], tuple]:
    """f by flow diagonal: {(i, j): (num, den)}, with (i, j) the diagonal's
    least term in f and num/den the unreduced sum of its d * t^l.  den is a
    product of canonical denominators (positive constant term, so v(sum) =
    min(num)) and no gcd is taken; diagonals whose sum cancels are dropped."""
    if f.arity > 2:
        raise ValidationError("flow evaluation needs a polynomial in T1, T2")
    sums: dict[tuple[int, int], tuple] = {}
    for (i, j), d in sorted(f.with_arity(2).terms.items()):  # least term first
        l = i // bm.n1
        key = (i - l * bm.n1, j - l * bm.n2)
        ij, l0, num, den = sums.get(key, ((i, j), l, {}, d._den))
        n = _shift(d._num, l - l0)
        if den == d._den:
            num = _add(num, n)
        else:
            num, den = _add(_mul(num, d._den), _mul(n, den)), _mul(den, d._den)
        sums[key] = (ij, l0, num, den)
    return {ij: (num, den) for ij, _, num, den in sums.values() if num}


def _taylor_at_one(by_exp: Mapping[int, dict]) -> dict[int, dict]:
    """Taylor coefficients around V = 1 after clearing the V-denominator.

    Multiplies sum a_k V^k, with integer polynomials a_k, by the least power
    of V making it a polynomial and returns the nonzero coefficients c_i of
    (V - 1)^i via the binomial transform c_i = sum_k C(k, i) a_k.
    """
    if not by_exp:
        return {}
    shift = max(0, -min(by_exp))
    dense = {k + shift: v for k, v in by_exp.items()}
    out = {}
    for i in range(max(dense) + 1):
        acc = None
        for k, coeff in dense.items():
            if k >= i:
                term = _scale(coeff, math.comb(k, i))
                acc = term if acc is None else _add(acc, term)
        if acc:
            out[i] = acc
    return out


def min_term_value(valuations: Mapping[int, object], s):
    """min_i (v_i + i*s), compared as the integers q*(v_i + i*s) over the
    least common denominator q of s and the v_i; at s = INFINITY only v_0."""
    if isinstance(s, float) or not valuations:  # a checked float time is INFINITY
        return valuations.get(0, INFINITY)
    q = math.lcm(s.denominator, *(v.denominator for v in valuations.values()))
    step = s.numerator * (q // s.denominator)
    terms = (v.numerator * (q // v.denominator) + i * step for i, v in valuations.items())
    return Fraction(min(terms), q)


# -- rigid points -------------------------------------------------------------


def _powers(num: dict, den: dict, top: int) -> list[dict]:
    """[num^i * den^(top - i) for i = 0..top]: x^i over the common den^top."""
    up, down = [{0: 1}], [{0: 1}]
    for _ in range(top):
        up.append(_mul(up[-1], num))
        down.append(_mul(down[-1], den))
    return [_mul(up[i], down[top - i]) for i in range(top + 1)]


def _rigid_numerators(bm: BasicModel, x: RigidPoint, f: MultivariatePoly):
    """Integer numerators P_i of the Taylor coefficients c_i = P_i / D, and D.

    Each diagonal (num/den) * x1^i * x2^j of f(x1 * V^M2, x2 * V^-M1) is
    brought over D = den(x1)^I * den(x2)^J * (product of the distinct diagonal
    denominators), with I and J the top representative exponents.  A rigid
    point has c = 1 (c divides N1*v(x1) + N2*v(x2) = 1), so distinct
    diagonals have distinct V-degrees.  Nothing is reduced, so no gcd is
    taken; D has a nonzero constant term, so v(c_i) is the lowest exponent
    of P_i.
    """
    diagonals = _diagonals(bm, f)
    dens = {tuple(sorted(d.items())): d for _, d in diagonals.values()}
    cofactor = {
        key: reduce(_mul, (d for other, d in dens.items() if other != key), {0: 1})
        for key in dens
    }
    pow1 = _powers(x.x1._num, x.x1._den, max((i for i, _ in diagonals), default=0))
    pow2 = _powers(x.x2._num, x.x2._den, max((j for _, j in diagonals), default=0))
    by_exp = {}
    for (i, j), (n, d) in diagonals.items():
        lift = _mul(n, cofactor[tuple(sorted(d.items()))])
        by_exp[i * bm.m2 - j * bm.m1] = _mul(_mul(pow1[i], pow2[j]), lift)
    den = reduce(_mul, dens.values(), _mul(pow1[0], pow2[0]))
    return _taylor_at_one(by_exp), den


def _expanded(bm: BasicModel, point, f: MultivariatePoly, build):
    """build(bm, point, f), memoized on the immutable point for an equal
    model and that same polynomial object; only the last is kept."""
    cached = point.__dict__.get("_flow_memo")
    if cached is None or cached[0] != bm or cached[1] is not f:
        cached = (bm, f, build(bm, point, f))
        object.__setattr__(point, "_flow_memo", cached)
    return cached[2]


def flow_valuations(bm: BasicModel, x: RigidPoint, f: MultivariatePoly):
    """v(c_i) for the nonzero Taylor coefficients c_i of the flow of f
    through a rigid point, computed without reducing any c_i."""
    numerators, _ = _expanded(bm, x, f, _rigid_numerators)
    return {i: min(p) for i, p in numerators.items()}


def flow_expansion(bm: BasicModel, x: RigidPoint, f: MultivariatePoly):
    """Nonzero Taylor coefficients c_i = P_i / D of the flow of f through a
    rigid point, each reduced on first read; v(c_i) and bool(c_i) take no gcd."""
    numerators, den = _expanded(bm, x, f, _rigid_numerators)
    return {i: _Unreduced(p, den) for i, p in numerators.items()}


def flow_value(bm: BasicModel, x: RigidPoint, s, f: MultivariatePoly):
    """Valuation of f along the flow of a rigid point at flow time s.

    Returns min_i (v(c_i) + i*s) over the expansion; at s = INFINITY only
    the constant coefficient c_0 = f(x1, x2) contributes.  INFINITY is
    returned exactly when the expansion vanishes identically.
    """
    s = _check_flow_time(s)
    return min_term_value(flow_valuations(bm, x, f), s)


def retract_point(bm: BasicModel, x: RigidPoint) -> MonomialPointData:
    """Monomial data of the retraction of a rigid point.

    The image is the monomial point on the edge with weights
    (v(x1), v(x2)); the normalization sum(alpha * N) = 1 holds automatically
    because x1^N1 * x2^N2 = t.
    """
    return bm.monomial_point(Fraction(x.x1.valuation()), Fraction(x.x2.valuation()))


# -- monomial points ----------------------------------------------------------


def _monomial_valuations(bm: BasicModel, data: MonomialPointData, f: MultivariatePoly):
    """v(c_i) for the Taylor coefficients c_i of the flow of f through the
    monomial point data, with edge weights (a1, a2).

    A diagonal (num/den) * x1^i * x2^j moves as V^k, k = i*M2 - j*M1 (the
    relation has V-degree N1*M2 - N2*M1 = 0); after clearing V by V^shift,
    c_i sums C(k + shift, i) times the diagonals with k + shift >= i.
    Binomials are positive integers and distinct diagonals are independent
    over K: v(c_i) = min v(num) + i*a1 + j*a2 over them, the same for any
    representative since N1*a1 + N2*a2 = 1.
    """
    a1, a2 = bm._edge_weights(data)
    terms = [
        (i * bm.m2 - j * bm.m1, min(num) + i * a1 + j * a2)
        for (i, j), (num, _) in _diagonals(bm, f).items()
    ]
    if not terms:
        return {}
    shift = max(0, -min(k for k, _ in terms))
    top = max(k for k, _ in terms) + shift
    return {i: min(v for k, v in terms if k + shift >= i) for i in range(top + 1)}


def flow_value_monomial(bm: BasicModel, data: MonomialPointData, s, f: MultivariatePoly):
    """Valuation of f along the flow of a monomial (skeleton) point.

    Skeleton points are fixed by the flow: the value is independent of the
    flow time and agrees with the monomial valuation of f at the weights.
    That property is asserted by the test suite, not assumed here: every
    Taylor coefficient's valuation is read off the diagonals of f, in a
    table memoized on the point as the rigid expansion is.
    """
    s = _check_flow_time(s)
    bm._edge_weights(data)
    return min_term_value(_expanded(bm, data, f, _monomial_valuations), s)
