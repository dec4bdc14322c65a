"""Shared fixture loading and seeded random generators for the test suite."""
from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

from degenskel import (
    INFINITY,
    BaseElement,
    BasicModel,
    ModelDescription,
    MonomialWeights,
    MultivariatePoly,
    PluricanonicalForm,
    SkeletonPoint,
    Subcomplex,
    ValidationError,
    WeightValue,
    build_complex,
    form_problems,
    uniformizer,
    weight_at,
)
from degenskel.dualcomplex import _check_keys, _resolve_zeros
from degenskel.field import _add, _mul, _scale, _shift, _Unreduced

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load_model(name: str) -> ModelDescription:
    return ModelDescription.from_dict(json.loads((FIXTURES / name).read_text()))


def load_form(name: str) -> PluricanonicalForm:
    return PluricanonicalForm.from_dict(json.loads((FIXTURES / name).read_text()))


# -- random base-field elements ------------------------------------------------


def random_poly_t(rng, max_deg=2, nonzero_const=False) -> dict:
    while True:
        coeffs = {}
        for e in range(max_deg + 1):
            if rng.random() < 0.6:
                num = rng.randint(-4, 4)
                if num:
                    coeffs[e] = Fraction(num, rng.randint(1, 3))
        if nonzero_const and 0 not in coeffs:
            continue
        if coeffs:
            return coeffs


def random_element_data(rng, allow_zero=False) -> tuple:
    """(numerator, denominator) input data of a random element."""
    if allow_zero and rng.random() < 0.05:
        return 0, 1
    shift = rng.randint(-2, 3)
    num = {e + shift: c for e, c in random_poly_t(rng).items()}
    return num, random_poly_t(rng)


def random_element(rng, allow_zero=False) -> BaseElement:
    return BaseElement(*random_element_data(rng, allow_zero))


# -- reference field arithmetic ------------------------------------------------
#
# The Fraction-based BaseElement that the integer canonical form replaced:
# Fraction coefficients, a denominator with constant term 1, and every
# reduction scaled to integers and back.  Kept as a slow, independent
# reference for the seeded comparisons.  Its gcd is the primitive
# pseudo-remainder sequence (PRS) over the integers on dense coefficient
# lists (exponents >= 0, trimmed), which the library's heuristic gcd
# replaced.


def _dense(p: dict[int, int]) -> list[int]:
    out = [0] * (max(p) + 1)
    for e, c in p.items():
        out[e] = c
    return out


def _sparse(xs: list[int]) -> dict[int, int]:
    return {e: c for e, c in enumerate(xs) if c}


def _content_free(ints: list[int]) -> list[int]:
    g = math.gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def _prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of a by b over the integers."""
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    while a and len(a) - 1 >= db:
        la = a[-1]
        a = [c * lb for c in a]
        shift = len(a) - 1 - db
        for i, bc in enumerate(b):
            a[shift + i] -= la * bc
        while a and a[-1] == 0:
            a.pop()
    return a


def _gcd_dense(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd via a primitive pseudo-remainder sequence over the integers."""
    first, second = _content_free(a), _content_free(b)
    if len(second) > len(first):
        first, second = second, first
    while second:
        r = _prem(first, second)
        first, second = second, _content_free(r)
    return first


def _div_exact(a: list[int], g: list[int]) -> list[int]:
    """Integer long division by a primitive divisor of a over Q, exact by
    Gauss's lemma; an inexact step would leave a residue in a."""
    a = list(a)
    lg, n = g[-1], len(g)
    q = [0] * (len(a) - n + 1)
    for k in range(len(a) - n, -1, -1):
        c = a[k + n - 1] // lg
        if c:
            q[k] = c
            for i, gc in enumerate(g):
                a[k + i] -= c * gc
    if any(a):
        raise ArithmeticError("inexact polynomial division during reduction")
    return q


def prs_canonical(num: dict, den: dict) -> tuple[dict, dict]:
    """The canonical integer pair of num/den by the PRS gcd: denominator
    with positive constant term, coprime to the Laurent numerator, joint
    content 1."""
    if not num:
        return {}, {0: 1}
    low_n, low_d = min(num), min(den)
    num0 = _shift(num, -low_n)
    den0 = _shift(den, -low_d)
    if len(num0) > 1 and len(den0) > 1:
        g = _gcd_dense(_dense(num0), _dense(den0))
        if len(g) > 1:
            num0 = _sparse(_div_exact(_dense(num0), g))
            den0 = _sparse(_div_exact(_dense(den0), g))
    g = math.gcd(*num0.values(), *den0.values())
    if den0[0] < 0:
        g = -g
    num0 = {e: c // g for e, c in num0.items()}
    den0 = {e: c // g for e, c in den0.items()}
    return _shift(num0, low_n - low_d), den0


def _reference_as_coeffs(value) -> dict:
    if isinstance(value, dict):
        out = {}
        for exp, c in value.items():
            if isinstance(c, float) or not isinstance(exp, int):
                raise TypeError("polynomial data must be {int: rational}, no floats")
            q = Fraction(c)
            if q:
                out[exp] = q
        return out
    if isinstance(value, float):
        raise TypeError("floats are not exact; use Fraction or int")
    q = Fraction(value)
    return {0: q} if q else {}


def _reference_integral(num: dict, den: dict) -> tuple[dict, dict]:
    lcm = math.lcm(*(c.denominator for c in num.values()),
                   *(c.denominator for c in den.values()))
    return (
        {e: c.numerator * (lcm // c.denominator) for e, c in num.items()},
        {e: c.numerator * (lcm // c.denominator) for e, c in den.items()},
    )


def _reference_canonical(num: dict, den: dict) -> tuple[dict, dict]:
    if not den:
        raise ZeroDivisionError("denominator is zero")
    num0, den0 = prs_canonical(*_reference_integral(num, den))
    inv = Fraction(1, den0[0])
    return _scale(num0, inv), _scale(den0, inv)


class ReferenceElement:
    """Q(t) element with Fraction coefficients over a denominator with
    constant term 1, coprime to the numerator."""

    __slots__ = ("_num", "_den")

    def __init__(self, numerator, denominator=1):
        self._num, self._den = _reference_canonical(
            _reference_as_coeffs(numerator), _reference_as_coeffs(denominator)
        )

    @classmethod
    def _make(cls, num: dict, den: dict) -> ReferenceElement:
        self = object.__new__(cls)
        self._num, self._den = _reference_canonical(num, den)
        return self

    def valuation(self):
        return min(self._num) if self._num else INFINITY

    def __bool__(self) -> bool:
        return bool(self._num)

    @staticmethod
    def _coerce(other):
        if isinstance(other, ReferenceElement):
            return other
        if isinstance(other, (int, Fraction)):
            return ReferenceElement(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        num = _add(_mul(self._num, o._den), _mul(o._num, self._den))
        return ReferenceElement._make(num, _mul(self._den, o._den))

    __radd__ = __add__

    def __neg__(self):
        return ReferenceElement._make(_scale(self._num, Fraction(-1)), dict(self._den))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ReferenceElement._make(_mul(self._num, o._num), _mul(self._den, o._den))

    __rmul__ = __mul__

    def inverse(self) -> ReferenceElement:
        if not self._num:
            raise ZeroDivisionError("inversion of zero in the base field")
        return ReferenceElement._make(dict(self._den), dict(self._num))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = ReferenceElement(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

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
        num = _reference_poly_str(self._num)
        if self._den == {0: Fraction(1)}:
            return num
        den = _reference_poly_str(self._den)
        if len(self._num) > 1:
            num = f"({num})"
        return f"{num}/({den})"


def _reference_term_str(c: Fraction, e: int) -> str:
    if e == 0:
        return str(c)
    t = "t" if e == 1 else f"t^{e}"
    if c == 1:
        return t
    if c == -1:
        return f"-{t}"
    return f"{c}*{t}"


def _reference_poly_str(p: dict) -> str:
    parts = []
    for e in sorted(p):
        s = _reference_term_str(p[e], e)
        if not parts:
            parts.append(s)
        elif s.startswith("-"):
            parts.append(f" - {s[1:]}")
        else:
            parts.append(f" + {s}")
    return "".join(parts)


def _rational_gcd_degree(a: dict, b: dict) -> int:
    """Degree of gcd(a, b) over Q, by the Euclidean algorithm on Fractions,
    for polynomials a, b with nonzero constant terms."""
    a = [Fraction(a.get(e, 0)) for e in range(max(a) + 1)]
    b = [Fraction(b.get(e, 0)) for e in range(max(b) + 1)]
    while b:
        while a and len(a) >= len(b):
            q, shift = a[-1] / b[-1], len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= q * c
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) - 1


def assert_canonical(x: BaseElement):
    """The integer canonical form: int coefficients, a denominator with
    positive constant term, joint content 1, numerator and denominator
    coprime."""
    num, den = x._num, x._den
    assert all(type(c) is int for c in (*num.values(), *den.values())), (num, den)
    assert min(den) == 0 and den[0] > 0, den
    if not num:
        assert den == {0: 1}, den
        return
    assert math.gcd(*num.values(), *den.values()) == 1, (num, den)
    low = min(num)
    assert _rational_gcd_degree({e - low: c for e, c in num.items()}, den) == 0


def assert_matches_reference(x: BaseElement, ref: ReferenceElement):
    """x is the reference element: the integer pair divided by the
    denominator's constant term is the reference's Fraction pair."""
    assert_canonical(x)
    c = x._den[0]
    assert {e: Fraction(v, c) for e, v in x._num.items()} == ref._num, (x, ref)
    assert {e: Fraction(v, c) for e, v in x._den.items()} == ref._den, (x, ref)
    assert str(x) == str(ref)
    assert x.valuation() == ref.valuation()


# each read is made as the first one on a fresh deferred element
FIRST_READS = [
    lambda c: c.valuation(),
    bool,
    hash,
    str,
    repr,
    lambda c: (c._num, c._den),
    lambda c: c + 1,
    lambda c: 1 + c,
    lambda c: c - Fraction(2, 3),
    lambda c: Fraction(2, 3) - c,
    lambda c: c * uniformizer(),
    lambda c: uniformizer() * c,
    lambda c: c / 3,
    lambda c: -c,
    lambda c: c**2,
]
NONZERO_READS = [lambda c: 3 / c, lambda c: c**-1, lambda c: c.inverse()]


def assert_deferred_reads_as(num: dict, den: dict, *equal: BaseElement):
    """_Unreduced(num, den) agrees with BaseElement._make(num, den) and each
    element of equal on every read, ==, hashing as a dict key and mixed
    arithmetic, each made first on a fresh deferred element."""
    made = BaseElement._make(num, den)
    reads = FIRST_READS + (NONZERO_READS if made else [])
    for read in reads:
        want = read(made)
        assert read(_Unreduced(num, den)) == want, (num, den)
        assert all(read(other) == want for other in equal)
    for other in (made, *equal):
        assert _Unreduced(num, den) == other
        assert other == _Unreduced(num, den)
        assert _Unreduced(num, den) != other + 1
        assert {_Unreduced(num, den): 0}[other] == 0
        assert {other: 0}[_Unreduced(num, den)] == 0
    for result in (_Unreduced(num, den) + made, made * _Unreduced(num, den)):
        assert type(result) is BaseElement
    assert _Unreduced(num, den) - made == 0
    assert _Unreduced(num, den) * _Unreduced(num, den) == made * made


def random_expression(rng, depth=3) -> tuple[str, ReferenceElement]:
    """A random field-element expression in t with fractional coefficients
    and t in denominators, and its value in reference arithmetic."""
    if depth == 0 or rng.random() < 0.25:
        kind = rng.randrange(3)
        if kind == 0:
            n = rng.randint(0, 9)
            return str(n), ReferenceElement(n)
        if kind == 1:
            q = Fraction(rng.randint(1, 9), rng.randint(2, 7))
            return f"({q.numerator}/{q.denominator})", ReferenceElement(q)
        e = rng.randint(-2, 3)
        return f"t^{e}", ReferenceElement({e: 1})
    op = rng.choice("+-*/^")
    lhs, lval = random_expression(rng, depth - 1)
    if op == "^":
        n = rng.randint(-2, 3) if lval else rng.randint(0, 3)
        return f"({lhs})^{n}", lval**n
    rhs, rval = random_expression(rng, depth - 1)
    if op == "/" and not rval:
        op = "*"
    value = {
        "+": lambda: lval + rval,
        "-": lambda: lval - rval,
        "*": lambda: lval * rval,
        "/": lambda: lval / rval,
    }[op]()
    return f"({lhs}){op}({rhs})", value


def _reference_terms_sum(f: dict, g: dict) -> dict:
    out = dict(f)
    for e, c in g.items():
        s = out.pop(e, ReferenceElement(0)) + c
        if s:
            out[e] = s
    return out


def _reference_terms_product(f: dict, g: dict) -> dict:
    out: dict = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            out = _reference_terms_sum(
                out, {tuple(x + y for x, y in zip(ea, eb)): ca * cb}
            )
    return out


def random_poly_expression(rng, arity=3, depth=4) -> tuple[str, dict]:
    """A random polynomial expression in T1..T_arity and t, and its terms
    {exponents: ReferenceElement} computed in reference arithmetic on the
    same expression tree.

    It has nested parentheses, unary minus, powers up to 4, and division by
    field constants with t in denominators (random_expression).  Divisors
    and negative-power bases are written without T-variables, so every
    text is valid."""
    one = (0,) * arity
    if depth == 0 or rng.random() < 0.1:
        if rng.random() < 0.6:
            k = rng.randrange(arity)
            exps = tuple(int(i == k) for i in range(arity))
            return f"T{k + 1}", {exps: ReferenceElement(1)}
        text, value = random_expression(rng, rng.randint(0, 2))
        return text, {one: value} if value else {}
    op = rng.choice(["+", "+", "-", "*", "*", "/", "^", "neg", "paren"])
    lhs, lval = random_poly_expression(rng, arity, depth - 1)
    if op == "neg":
        k = rng.randint(1, 3)
        return "-" * k + f"({lhs})", {e: -c if k % 2 else c for e, c in lval.items()}
    if op == "paren":
        return f"(({lhs}))", lval
    if op == "^":
        lo = -2 if "T" not in lhs and lval else 0
        n = rng.randint(lo, 4 if depth <= 2 else 2)
        if n < 0:
            return f"({lhs})^{n}", {one: lval[one] ** n}
        value = {one: ReferenceElement(1)}
        for _ in range(n):
            value = _reference_terms_product(value, lval)
        return f"({lhs})^{n}", value
    if op == "/":
        rhs, rval = random_expression(rng, 2)
        if rval:
            return f"({lhs}) / ({rhs})", {e: c / rval for e, c in lval.items()}
        op = "*"
    rhs, rval = random_poly_expression(rng, arity, depth - 1)
    if op == "-":
        rval = {e: -c for e, c in rval.items()}
    if op == "*":
        return f"({lhs})*({rhs})", _reference_terms_product(lval, rval)
    return f"({lhs}){op}({rhs})", _reference_terms_sum(lval, rval)


def random_unit(rng) -> BaseElement:
    return BaseElement(
        random_poly_t(rng, nonzero_const=True),
        random_poly_t(rng, nonzero_const=True),
    )


def random_poly(rng, arity, max_terms=4, max_exp=3) -> MultivariatePoly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in range(arity))
        terms[exps] = random_element(rng)
    return MultivariatePoly(arity, terms)


def reference_power(f: MultivariatePoly, n: int) -> MultivariatePoly:
    """f**n as n products starting from the constant 1: the loop that the
    one-term power replaced, and still the power of every other polynomial."""
    result = MultivariatePoly.constant(f.arity, 1)
    for _ in range(n):
        result = result * f
    return result


def reference_poly_product(f: MultivariatePoly, g: MultivariatePoly) -> dict:
    """Terms of f * g summed term by term in canonical field arithmetic, so
    every coefficient product and partial sum is a reduced BaseElement;
    reference for the product that reduces each coefficient once."""
    out: dict[tuple[int, ...], BaseElement] = {}
    for ea, ca in f.terms.items():
        for eb, cb in g.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, BaseElement(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


def reference_evaluate(f: MultivariatePoly, values) -> BaseElement:
    """f(values) term by term in canonical field arithmetic, so every power,
    product and partial sum is a reduced BaseElement; reference for the
    evaluation that sums unreduced pairs and reduces once."""
    total = BaseElement(0)
    for exps, coeff in f.terms.items():
        term = coeff
        for v, e in zip(values, exps):
            if e:
                term = term * v**e
        total = total + term
    return total


def random_weights(rng, arity, allow_zero=True) -> MonomialWeights:
    lo = 0 if allow_zero else 1
    return MonomialWeights(
        tuple(Fraction(rng.randint(lo, 8), rng.randint(1, 6)) for _ in range(arity))
    )


# -- random models and forms ----------------------------------------------------


def random_model(rng) -> ModelDescription:
    n = rng.randint(1, 6)
    comps = [(f"E{i}", rng.randint(1, 4)) for i in range(1, n + 1)]
    ids = [c[0] for c in comps]
    strata = []
    edges_by_pair: dict[frozenset, list[str]] = {}
    budget = 15 - n
    if n >= 2 and budget > 0:
        for k in range(rng.randint(0, min(6, budget))):
            a, b = sorted(rng.sample(ids, 2))
            sid = f"C{a[1:]}{b[1:]}x{k}"
            strata.append((sid, (a, b), None))
            edges_by_pair.setdefault(frozenset((a, b)), []).append(sid)
    budget = 15 - n - len(strata)
    if n >= 3 and budget > 0:
        for k in range(rng.randint(0, min(3, budget))):
            tri = sorted(rng.sample(ids, 3))
            pairs = [frozenset(p) for p in itertools.combinations(tri, 2)]
            if not all(p in edges_by_pair for p in pairs):
                continue
            faces = {
                removed: rng.choice(edges_by_pair[frozenset(set(tri) - {removed})])
                for removed in tri
            }
            strata.append((f"T{''.join(x[1:] for x in tri)}x{k}", tuple(tri), faces))
    return ModelDescription(comps, strata)


def random_form(rng, model: ModelDescription) -> PluricanonicalForm:
    m = rng.choice([1, 1, 2, 3])
    comps = model.components
    if rng.random() < 0.65:
        # force ties so the essential set is interesting
        w0 = rng.choice([1, 2])
        tied = set(rng.sample([c.id for c in comps], rng.randint(1, len(comps))))
        vertical = {
            c.id: w0 * c.multiplicity - m
            + (0 if c.id in tied else rng.randint(1, 3))
            for c in comps
        }
    else:
        vertical = {c.id: rng.randint(-1, 4) for c in comps}
    cx = build_complex(model)
    non_vertex = [s.id for s in model.strata if s.dimension >= 1]
    seeds = {sid for sid in non_vertex if rng.random() < 0.25}
    horizontal = {s.id for s in model.strata if cx.face_closure(s.id) & seeds}
    return PluricanonicalForm(m, vertical, frozenset(horizontal))


def random_rigid_point(rng, bm: BasicModel):
    """A random valid rigid point; only possible when N1 = 1 or N2 = 1."""
    profiles = []
    if bm.n1 == 1:
        profiles.append((1, 0))
    if bm.n2 == 1:
        profiles.append((0, 1))
    if not profiles:
        raise ValueError(
            f"no rigid points with coordinates in Q(t) for N = ({bm.n1}, {bm.n2})"
        )
    a1, a2 = rng.choice(profiles)
    u = random_unit(rng)
    t = uniformizer()
    return bm.rigid_point(t**a1 * u**bm.n2, t**a2 * u ** (-bm.n1))


def reference_flow_expansion(bm: BasicModel, x, f: MultivariatePoly) -> dict:
    """Flow expansion of f at a rigid point in canonical field arithmetic.

    Reference for the integer-numerator path of flow_expansion: each term
    x1^i * x2^j is a reduced BaseElement, terms are summed per V-exponent
    k = i*M2 - j*M1, and the Taylor coefficients around V = 1 come from the
    binomial transform c_i = sum_k C(k, i) a_k after clearing V.
    """
    by_exp: dict[int, BaseElement] = {}
    for (i, j), coeff in f.with_arity(2).terms.items():
        k = i * bm.m2 - j * bm.m1
        by_exp[k] = by_exp.get(k, BaseElement(0)) + coeff * x.x1**i * x.x2**j
    by_exp = {k: c for k, c in by_exp.items() if c}
    if not by_exp:
        return {}
    shift = max(0, -min(by_exp))
    out = {}
    for i in range(max(by_exp) + shift + 1):
        acc = BaseElement(0)
        for k, coeff in by_exp.items():
            if k + shift >= i:
                acc = acc + coeff * math.comb(k + shift, i)
        if acc:
            out[i] = acc
    return out


def reference_min_term_value(valuations: dict, s):
    """min_i (v_i + i*s) by rational arithmetic term by term, treating the
    i = 0 slope specially so s = inf works."""
    best = INFINITY
    for i, v in valuations.items():
        term = v if i == 0 else v + i * s
        if term < best:
            best = term
    return best


def reference_monomial_valuations(bm: BasicModel, a1, a2, f: MultivariatePoly) -> dict:
    """v(c_i) for the flow of f through a monomial point, in canonical field
    arithmetic on {(p, q): BaseElement} dicts.

    Reference for the diagonal path of flow_value_monomial: each term
    d * T1^i * T2^j becomes d * t^l * x1^p * x2^q with p = i - l*N1 in
    [0, N1), terms are summed per V-exponent k = i*M2 - j*M1 of the
    original term, every Taylor coefficient c_i = sum_k C(k, i) a_k after
    clearing V is formed as a dict of reduced coefficients, and v(c_i) is
    the least v(d) + p*a1 + q*a2 over its nonzero entries.
    """
    t = uniformizer()
    by_exp: dict[int, dict] = {}
    for (i, j), coeff in f.with_arity(2).terms.items():
        l = i // bm.n1
        pq = (i - l * bm.n1, j - l * bm.n2)
        a = by_exp.setdefault(i * bm.m2 - j * bm.m1, {})
        a[pq] = a.get(pq, BaseElement(0)) + coeff * t**l
    by_exp = {k: {pq: c for pq, c in a.items() if c} for k, a in by_exp.items()}
    by_exp = {k: a for k, a in by_exp.items() if a}
    if not by_exp:
        return {}
    shift = max(0, -min(by_exp))
    out = {}
    for i in range(max(by_exp) + shift + 1):
        acc: dict[tuple[int, int], BaseElement] = {}
        for k, a in by_exp.items():
            if k + shift >= i:
                for pq, c in a.items():
                    acc[pq] = acc.get(pq, BaseElement(0)) + c * math.comb(k + shift, i)
        acc = {pq: c for pq, c in acc.items() if c}
        if acc:
            out[i] = min(c.valuation() + p * a1 + q * a2 for (p, q), c in acc.items())
    return out


def random_interior_point(rng, model: ModelDescription, stratum=None) -> SkeletonPoint:
    s = stratum if stratum is not None else rng.choice(model.strata)
    comps = sorted(s.components)
    parts = [rng.randint(1, 9) for _ in comps]
    total = sum(parts)
    return SkeletonPoint(s.id, {c: Fraction(p, total) for c, p in zip(comps, parts)})


# -- brute-force argmin oracle ---------------------------------------------------


def compositions(total: int, parts: int):
    """All ways to write total as an ordered sum of `parts` positive integers."""
    for cuts in itertools.combinations(range(1, total), parts - 1):
        prev = 0
        out = []
        for c in cuts + (total,):
            out.append(c - prev)
            prev = c
        yield tuple(out)


def interior_grid(arity: int, max_den: int) -> list[tuple[Fraction, ...]]:
    points = set()
    for den in range(arity, max_den + 1):
        for parts in compositions(den, arity):
            points.add(tuple(Fraction(p, den) for p in parts))
    return sorted(points)


def brute_force_ks(model: ModelDescription, form: PluricanonicalForm, max_den=12):
    """Argmin scan of weight_at over a dense rational grid on every face.

    Independent of the vertex criterion: a face belongs to the skeleton
    exactly when every sampled interior point attains the overall minimum
    with an untagged value.
    """
    per_face = {}
    overall = None
    for s in model.strata:
        comps = sorted(s.components)
        values = []
        for beta in interior_grid(len(comps), max_den):
            point = SkeletonPoint(s.id, dict(zip(comps, beta)))
            wv = weight_at(model, form, point)
            values.append(wv)
            if not wv.lower_bound_only and (overall is None or wv.value < overall):
                overall = wv.value
        per_face[s.id] = values
    return {
        sid
        for sid, values in per_face.items()
        if all(not v.lower_bound_only and v.value == overall for v in values)
    }


# -- reference weight queries ----------------------------------------------------
#
# The per-call implementations that the vertex-weight table replaced: each
# query validates the pair again and recomputes every divisorial weight it
# needs, and the pseudo-manifold test scans all pairs of strata for maximal
# faces.  Kept as slow, independent references for the seeded comparisons.


def divisorial_weight(multiplicity: int, vertical_multiplicity: int, m: int) -> Fraction:
    """Weight (nu + m)/N of the divisorial point of a component."""
    if not isinstance(multiplicity, int) or multiplicity < 1:
        raise ValidationError("component multiplicity must be a positive integer")
    if not isinstance(m, int) or m < 1:
        raise ValidationError("pluricanonical level m must be a positive integer")
    return Fraction(vertical_multiplicity + m, multiplicity)


def _reference_require_valid(model, form):
    problems = form_problems(model, form)
    if problems:
        raise ValidationError(problems)


def reference_global_weight(model, form):
    _reference_require_valid(model, form)
    return min(
        divisorial_weight(c.multiplicity, form.vertical[c.id], form.m)
        for c in model.components
    )


def reference_weight_at(model, form, point) -> WeightValue:
    _reference_require_valid(model, form)
    _check_keys(model, point.stratum, point.barycentric)
    s, beta = _resolve_zeros(model, point.stratum, point.barycentric)
    value = sum(
        beta[j] * divisorial_weight(model.multiplicity(j), form.vertical[j], form.m)
        for j in s.components
    )
    return WeightValue(Fraction(value), s.id in form.horizontal, s.id)


def reference_ks_skeleton(model, form) -> Subcomplex:
    _reference_require_valid(model, form)
    minimal = reference_global_weight(model, form)
    chosen = set()
    for s in model.strata:
        if s.id in form.horizontal:
            continue
        if all(
            divisorial_weight(model.multiplicity(j), form.vertical[j], form.m)
            == minimal
            for j in s.components
        ):
            chosen.add(s.id)
    cx = build_complex(model)
    for sid in chosen:
        assert cx.face_closure(sid) <= chosen, "essential faces must be face-closed"
    return Subcomplex(cx, chosen)


def reference_is_closed_pseudomanifold(sub: Subcomplex) -> bool:
    if sub.is_empty():
        raise ValidationError("pseudo-manifold test requires a nonempty subcomplex")
    cx = sub.complex
    d = sub.dimension
    maximal = [
        sid
        for sid in sub.strata
        if not any(
            sid in cx.face_closure(other) and other != sid for other in sub.strata
        )
    ]
    if any(cx.dimension(sid) != d for sid in maximal):
        return False
    top = [sid for sid in sub.strata if cx.dimension(sid) == d]
    if d == 0:
        return len(top) == 1
    ridge_count: dict[str, list[str]] = {}
    for sid in top:
        for facet in cx.direct_faces(sid):
            ridge_count.setdefault(facet, []).append(sid)
    ridges = [sid for sid in sub.strata if cx.dimension(sid) == d - 1]
    if any(len(ridge_count.get(r, [])) != 2 for r in ridges):
        return False
    parent = {sid: sid for sid in top}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in ridge_count.values():
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return len({find(sid) for sid in top}) == 1


def random_subcomplex(rng, model: ModelDescription) -> Subcomplex:
    """Face closure of a random nonempty set of strata."""
    cx = build_complex(model)
    picks = rng.sample(list(model.strata), rng.randint(1, len(model.strata)))
    return Subcomplex(cx, set().union(*(cx.face_closure(s.id) for s in picks)))


def random_point(rng, model: ModelDescription) -> SkeletonPoint:
    """A point on a random face, with some coordinates zero."""
    s = rng.choice(model.strata)
    comps = sorted(s.components)
    parts = [rng.choice((0, 0, 1, 2, 5)) for _ in comps]
    if not any(parts):
        parts[rng.randrange(len(parts))] = 1
    total = sum(parts)
    return SkeletonPoint(s.id, {c: Fraction(p, total) for c, p in zip(comps, parts)})


# -- face closures and malformed models ------------------------------------------


def reference_face_closure(model: ModelDescription) -> dict[str, frozenset[str]]:
    """Face closure of every stratum, by the recursive closure table."""
    closure: dict[str, frozenset[str]] = {}

    def closure_of(sid: str) -> frozenset[str]:
        cached = closure.get(sid)
        if cached is not None:
            return cached
        s = model.stratum(sid)
        acc = {sid}
        for parent in s.faces.values():
            acc.update(closure_of(parent))
        closure[sid] = frozenset(acc)
        return closure[sid]

    for s in model.strata:
        closure_of(s.id)
    return closure


def reference_form_problems(model, form) -> list[str]:
    """form_problems, with downward closure read off the closure table."""
    problems = []
    for c in model.components:
        if c.id not in form.vertical:
            problems.append(f"component {c.id}: no vertical multiplicity")
    component_ids = {c.id for c in model.components}
    for cid in sorted(form.vertical):
        if cid not in component_ids:
            problems.append(f"vertical multiplicity for unknown component {cid}")
    closure = reference_face_closure(model)
    for sid in sorted(form.horizontal):
        if sid not in closure:
            problems.append(f"horizontal flag on unknown stratum {sid}")
    flagged = form.horizontal & closure.keys()
    for sid in sorted(flagged):
        if model.stratum(sid).dimension == 0:
            problems.append(
                f"stratum {sid}: vertex strata cannot carry a horizontal flag"
            )
    for s in model.strata:
        if s.id in flagged:
            continue
        hit = sorted(closure[s.id] & flagged)
        if hit:
            problems.append(
                f"stratum {s.id}: contains flagged stratum {hit[0]}"
                " but is not flagged itself"
            )
    return problems


def reference_subcomplex_problems(model, strata) -> list[str]:
    """The problems Subcomplex reports, read off the closure table."""
    ids = frozenset(strata)
    closure = reference_face_closure(model)
    problems = []
    for sid in sorted(ids):
        if sid not in closure:
            problems.append(f"unknown stratum {sid}")
            continue
        missing = sorted(closure[sid] - ids)
        if missing:
            problems.append(
                f"stratum {sid}: face {missing[0]} is missing from the subcomplex"
            )
    return problems


def random_model_dict(rng, parallel_edges=True) -> dict:
    """A model dict up to dimension 3 with parallel strata.  Faces are drawn
    at random among the strata over each reduced set, one in five left
    implicit, so face maps may be ambiguous or incompatible.  Without
    parallel edges every pair of components meets once and every face map
    is compatible."""
    ids = list("ABCDE"[: rng.randint(1, 5)])
    components = [{"id": c, "multiplicity": rng.randint(1, 4)} for c in ids]
    strata = [{"id": f"V{c}", "components": [c]} for c in ids if rng.random() < 0.5]
    over = {(c,): [s["id"] for s in strata if s["components"] == [c]] or [c] for c in ids}
    for size in (2, 3, 4):
        for comps in itertools.combinations(ids, size):
            reduced = [tuple(x for x in comps if x != j) for j in comps]
            if not all(r in over for r in reduced):
                continue
            for k in range(rng.choice([0, 1, 1, 2]) if parallel_edges or size > 2 else 1):
                sid = f"S{''.join(comps)}{k}"
                faces = {
                    j: rng.choice(over[r])
                    for j, r in zip(comps, reduced)
                    if rng.random() < 0.8
                }
                strata.append({"id": sid, "components": list(comps), "faces": faces})
                over.setdefault(comps, []).append(sid)
    return {"components": components, "strata": strata}


def _strata_of_size(data, rng, sizes):
    hits = [s for s in data["strata"] if len(s["components"]) in sizes]
    if not hits:
        return None
    s = rng.choice(hits)
    s.setdefault("faces", {})
    return s


def _mutate(rng, data: dict) -> None:
    """Break one model invariant of a model dict, in place."""
    comps, strata = data["components"], data["strata"]
    kind = rng.randrange(13)
    if kind == 0:  # duplicate component id
        comps.append(dict(rng.choice(comps)))
    elif kind == 1:  # bad multiplicity
        rng.choice(comps)["multiplicity"] = rng.choice([0, -2, True, False, "2", 1.5, None])
    elif kind == 2 and strata:  # duplicate stratum id
        twin = rng.choice(strata)
        strata.append(dict(twin, faces=dict(twin.get("faces", {}))))
    elif kind == 3 and strata:  # unknown component
        rng.choice(strata)["components"].append(rng.choice(["Y", "Z"]))
    elif kind == 4 and strata:  # empty component set
        rng.choice(strata)["components"] = []
    elif kind == 5 and (s := _strata_of_size(data, rng, (2, 3, 4))):  # unknown face target
        s["faces"][rng.choice(s["components"])] = "nowhere"
    elif kind == 6 and (s := _strata_of_size(data, rng, (2, 3, 4))):  # face over a wrong set
        s["faces"][rng.choice(s["components"])] = rng.choice(strata)["id"]
    elif kind == 7 and (s := _strata_of_size(data, rng, (2, 3, 4))):  # face for a non-component
        s["faces"][rng.choice(comps)["id"] + "x"] = rng.choice(strata)["id"]
    elif kind == 8 and (s := _strata_of_size(data, rng, (2, 3, 4))):  # dropped face entry
        s["faces"].pop(rng.choice(s["components"]), None)
    elif kind == 9 and (s := _strata_of_size(data, rng, (1,))):  # vertex stratum with faces
        s["faces"] = {s["components"][0]: rng.choice(strata)["id"]}
    elif kind == 10:  # second vertex stratum, so 2-faces may disagree
        c = rng.choice(comps)["id"]
        strata.append({"id": f"W{c}", "components": [c]})
        for s in strata:
            for j, target in s.get("faces", {}).items():
                if target in (c, f"V{c}") and rng.random() < 0.5:
                    s["faces"][j] = f"W{c}"
    elif kind == 11:  # a higher stratum takes a component's id: no vertex stratum
        a, b = rng.choice(comps)["id"], rng.choice(comps)["id"]
        strata.append({"id": a, "components": sorted({a, b}), "faces": {}})
    elif kind == 12:  # faces swapped between two strata of the top dimension
        top = [s for s in strata if len(s["components"]) >= 3]
        if len(top) >= 2:
            s, t = rng.sample(top, 2)
            s["faces"], t["faces"] = t["faces"], s["faces"]


_MISSHAPEN = (
    ("components", ["A", 1]),
    ("components", {"id": 7}),
    ("strata", {"id": "Q"}),
    ("strata", {"id": "Q", "components": "AB"}),
    ("strata", {"id": "Q", "components": ["A"], "faces": {"A": 3}}),
)


def malformed_model_dicts(rng, count: int) -> list[dict]:
    """Seeded model dicts with one to three broken invariants each; one in
    twenty also has an entry of the wrong JSON shape."""
    out = []
    for _ in range(count):
        data = random_model_dict(rng)
        for _ in range(rng.randint(1, 3)):
            _mutate(rng, data)
        if rng.random() < 0.05:
            key, entry = rng.choice(_MISSHAPEN)
            data[key].append(entry)
        out.append(data)
    return out
