import random
from fractions import Fraction

import pytest

from degenskel import (
    INFINITY,
    BaseElement,
    ValidationError,
    field,
    parse_element,
    uniformizer,
)
from degenskel.field import _canonical, _digits, _eval, _mul, _poly_gcd, _power, _shift
from helpers import (
    ReferenceElement,
    assert_canonical,
    assert_deferred_reads_as,
    assert_matches_reference,
    prs_canonical,
    random_element,
    random_element_data,
    random_expression,
    random_poly_t,
    random_unit,
)


def test_valuation_examples():
    t = uniformizer()
    x = t**2 * (BaseElement(2) + t) / (BaseElement(3) + t)
    assert x.valuation() == 2
    assert BaseElement(0).valuation() == INFINITY
    assert BaseElement(Fraction(7, 3)).valuation() == 0


def test_arithmetic_examples():
    t = uniformizer()
    cube = t * t**2
    assert cube == BaseElement({3: 1})
    assert cube.valuation() == 3
    assert t + (-t) == 0
    inv = (BaseElement(1) + t).inverse()
    assert inv.valuation() == 0
    assert inv * (BaseElement(1) + t) == 1


def test_inversion_of_zero_is_an_error():
    with pytest.raises(ZeroDivisionError):
        BaseElement(0).inverse()
    with pytest.raises(ZeroDivisionError):
        BaseElement(1) / BaseElement(0)


def test_uniformizer_and_units():
    assert uniformizer().valuation() == 1
    for c in (1, -3, Fraction(7, 3), Fraction(-2, 11)):
        assert BaseElement(c).valuation() == 0


def test_valuation_multiplicative_sampled():
    rng = random.Random(101)
    for _ in range(1000):
        x, y = random_element(rng), random_element(rng)
        assert (x * y).valuation() == x.valuation() + y.valuation()


def test_valuation_of_sum_sampled():
    rng = random.Random(202)
    for _ in range(1000):
        x = random_element(rng, allow_zero=True)
        y = random_element(rng, allow_zero=True)
        lower = min(x.valuation(), y.valuation())
        v = (x + y).valuation()
        assert v >= lower
        if x.valuation() != y.valuation():
            assert v == lower


def test_field_axioms_sampled():
    rng = random.Random(303)
    for _ in range(200):
        x, y, z = (random_element(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * x.inverse() == 1
        assert x - x == 0


def test_cross_multiplication_equality_sampled():
    # a/b == c/d iff a*d == c*b, independently of the canonical form; half
    # the samples share a common factor k that the reduction must cancel
    rng = random.Random(404)
    for _ in range(200):
        a, b = random_element(rng), random_element(rng)
        c, d = random_element(rng), random_element(rng)
        if rng.random() < 0.5:
            k = random_unit(rng) * random_element(rng)
            c, d = a * k, b * k
        assert ((a / b) == (c / d)) == (a * d == c * b)
        k = BaseElement(random_poly_t(rng, nonzero_const=True))
        num, den = random_poly_t(rng), random_poly_t(rng, nonzero_const=True)
        assert BaseElement(num) * k / (BaseElement(den) * k) == BaseElement(num, den)


def test_negative_valuations():
    t = uniformizer()
    x = BaseElement(1) / t
    assert x.valuation() == -1
    assert (x * t).valuation() == 0


def test_parser_examples():
    t = uniformizer()
    assert parse_element("t^2*(2+t)/(3+t)") == t**2 * (2 + t) / (3 + t)
    assert parse_element("7/3") == BaseElement(Fraction(7, 3))
    assert parse_element("-t^2 + t*t") == BaseElement(0)
    assert parse_element("t^-1") == t.inverse()
    assert parse_element(" (1 + t) / (1 - t) ").valuation() == 0


def test_parser_rejects_bad_input():
    with pytest.raises(ValidationError):
        parse_element("0.5")
    with pytest.raises(ValidationError):
        parse_element("2t")
    with pytest.raises(ValidationError):
        parse_element("t +")
    with pytest.raises(ValidationError):
        parse_element("T1 + t")
    with pytest.raises(ValidationError):
        parse_element("(1 + t")


def test_string_round_trip_sampled():
    rng = random.Random(505)
    for _ in range(200):
        x = random_element(rng, allow_zero=True)
        assert parse_element(str(x)) == x


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        BaseElement(0.5)
    with pytest.raises(TypeError):
        BaseElement({1: 0.5})


def test_integer_form_matches_fraction_reference_sampled():
    # the integer pair against the Fraction-based form it replaced, on the
    # same input data; every result must also be in integer canonical form
    rng = random.Random(606)
    t, rt = uniformizer(), ReferenceElement({1: 1})
    shared = 0
    for _ in range(300):
        data = [random_element_data(rng, allow_zero=True) for _ in range(2)]
        a, b = (BaseElement(*d) for d in data)
        ra, rb = (ReferenceElement(*d) for d in data)
        results = [(a, ra), (b, rb), (a + b, ra + rb), (a - b, ra - rb)]
        # t*a - 1 and a + 2 keep a's denominator, so these sums add
        # numerators over one shared denominator
        u, v, ru, rv = a * t - 1, a + 2, ra * rt - 1, ra + 2
        assert u._den == v._den == a._den
        shared += len(a._den) > 1
        results += [(a + u, ra + ru), (u + v, ru + rv), (v - a, rv - ra), (u - v, ru - rv)]
        results += [(a * b, ra * rb), (-a, -ra), (a + 1, ra + 1)]
        results += [(a * Fraction(-2, 3), ra * Fraction(-2, 3))]
        n = rng.randint(-3, 4) if a else rng.randint(0, 4)
        results.append((a**n, ra**n))
        if b:
            results += [(a / b, ra / rb), (b.inverse(), rb.inverse())]
            c = a * b / b
            assert c == a and hash(c) == hash(a)
        for x, rx in results:
            assert_matches_reference(x, rx)
        assert (a == b) == (ra == rb)
    assert shared > 150


def test_parser_matches_fraction_reference_sampled():
    rng = random.Random(707)
    for _ in range(300):
        text, value = random_expression(rng)
        x = parse_element(text)
        assert_matches_reference(x, value)
        assert parse_element(str(x)) == x


def test_canonical_form_examples():
    t = uniformizer()
    x = (BaseElement(Fraction(1, 3)) + t / 7) / (2 - t)
    assert (x._num, x._den) == ({0: 7, 1: 3}, {0: 42, 1: -21})
    assert str(x) == "(1/6 + 1/14*t)/(1 - 1/2*t)"
    y = BaseElement({1: 2}, {0: -4, 2: 6})
    assert (y._num, y._den) == ({1: -1}, {0: 2, 2: -3})
    assert str(y) == "-1/2*t/(1 - 3/2*t^2)"
    for z in (x, y, x * y, x / y, x - x, BaseElement(Fraction(-5, 6))):
        assert_canonical(z)


def test_negation_and_inverse_match_reference_sampled():
    # both build the canonical pair directly, without a reduction; the
    # samples cover negative valuations and negative lowest coefficients,
    # where the inverse's denominator must be made positive
    rng = random.Random(808)
    seen = set()
    for _ in range(400):
        data = random_element_data(rng, allow_zero=True)
        a, ra = BaseElement(*data), ReferenceElement(*data)
        assert_matches_reference(-a, -ra)
        assert -(-a) == a and a + (-a) == 0
        if not a:
            continue
        low = min(a._num)
        seen.add((low < 0, a._num[low] < 0))
        inv = a.inverse()
        assert_matches_reference(inv, ra.inverse())
        assert inv.inverse() == a and a * inv == 1
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_inverse_examples():
    # (-3*t^-2 + 1)/(2 + t) inverts to -t^2*(2 + t)/(3 - t^2)
    a = BaseElement({-2: -3, 0: 1}, {0: 2, 1: 1})
    inv = a.inverse()
    assert (inv._num, inv._den) == ({2: -2, 3: -1}, {0: 3, 2: -1})
    assert inv.valuation() == 2
    assert str(inv) == "(-2/3*t^2 - 1/3*t^3)/(1 - 1/3*t^2)"
    assert_canonical(inv)
    neg = -a
    assert (neg._num, neg._den) == ({-2: 3, 0: -1}, {0: 2, 1: 1})
    assert_canonical(neg)


# pairs on which the first evaluation point x = 8 reads off a wrong gcd
FIRST_X_MISLEADS = [
    ({0: -3, 1: 3}, {0: 1, 1: 3, 2: 3}),
    ({0: 1, 1: -2, 2: -3}, {0: 3, 1: 2, 2: -2, 3: -1}),
]


def test_first_evaluation_point_can_mislead():
    # a = 3t - 3 and b = 1 + 3t + 3t^2 are coprime; at x = 2*3 + 2 = 8,
    # a(8) = 21 and b(8) = 217 share 7, whose balanced digits read t - 1,
    # and b's cofactor 31 reads 4t - 1, which does not give b back
    a, b = FIRST_X_MISLEADS[0]
    assert (_eval(a, 8), _eval(b, 8)) == (21, 217)
    assert _digits(7, 8) == {0: -1, 1: 1} and _digits(31, 8) == {0: -1, 1: 4}
    assert _mul({0: -1, 1: 1}, {0: -1, 1: 4}) != b
    assert _poly_gcd(a, b) == ({0: 1}, a, b)
    # a = (1 + t)(1 - 3t) and b = (1 + t)(3 - t - t^2): 207 = gcd(-207, -621)
    # reads (1 + t)(3t - 1), a factor of a but not of b
    a, b = FIRST_X_MISLEADS[1]
    assert (_eval(a, 8), _eval(b, 8)) == (-207, -621)
    assert _digits(207, 8) == {0: -1, 1: 2, 2: 3}
    assert _mul({0: -1, 1: 2, 2: 3}, _digits(-207 // 207, 8)) == a
    assert _mul({0: -1, 1: 2, 2: 3}, _digits(-621 // 207, 8)) != b
    assert _poly_gcd(a, b) == ({0: 1, 1: 1}, {0: 1, 1: -3}, {0: 3, 1: -1, 2: -1})


def _random_int_poly(rng, deg: int, bound: int) -> dict:
    """Degree deg, nonzero constant term, coefficients in [-bound, bound]."""
    p = {e: rng.randint(-bound, bound) for e in range(deg + 1) if rng.random() < 0.7}
    p[0] = p.get(0) or rng.choice((-1, 1)) * rng.randint(1, bound)
    p[deg] = p.get(deg) or rng.choice((-1, 1)) * rng.randint(1, bound)
    return {e: c for e, c in p.items() if c}


def test_canonical_matches_prs_reference_sampled():
    # the heuristic gcd against the primitive PRS: coprime pairs and pairs
    # sharing a factor, coefficients up to 10^12, degrees 0..30 and Laurent
    # shifts, and the pairs on which the first evaluation point misleads
    rng = random.Random(909)
    pairs = list(FIRST_X_MISLEADS)
    for _ in range(2000):
        bound = 10 ** rng.choice((1, 3, 6, 12))
        g = {0: 1}
        if rng.random() < 0.5:
            g = _random_int_poly(rng, rng.randint(1, 10), bound)
        num, den = (
            _shift(
                _mul(g, _random_int_poly(rng, rng.randint(0, 30 - max(g)), bound)),
                rng.randint(-4, 4),
            )
            for _ in range(2)
        )
        pairs.append((num, den))
    reduced = set()
    for num, den in pairs:
        expected = prs_canonical(num, den)
        assert _canonical(num, den) == expected
        reduced.add(max(expected[1]) < max(den) - min(den))
    assert reduced == {False, True}


def test_deferred_form_reads_as_canonical_sampled():
    # a canonical pair times a common factor with nonzero constant term and
    # a signed integer content: the deferred form holds it unreduced
    rng = random.Random(117)
    for _ in range(150):
        x = random_element(rng, allow_zero=True)
        g = random_unit(rng)._num
        g = {e: c * rng.choice((-6, -1, 1, 2, 15)) for e, c in g.items()}
        num, den = _mul(x._num, g), _mul(x._den, g)
        assert_deferred_reads_as(num, den, x)
        deferred = field._Unreduced(num, den)
        assert deferred.valuation() == x.valuation() and bool(deferred) == bool(x)
        assert (deferred._num, deferred._den) == (x._num, x._den)
        assert deferred._pair == (num, den)


def test_power_matches_repeated_products():
    # Laurent numerators, a one-term and a zero polynomial; p^1 is a copy
    rng = random.Random(118)
    polys = [{}, {0: 1}, {-3: -2}, {2: 5, 7: -1}]
    polys += [random_element(rng)._num for _ in range(6)]
    for p in polys:
        expected = {0: 1}
        for n in range(21):
            assert _power(p, n) == expected, (p, n)
            expected = _mul(expected, p)
        assert _power(p, 1) is not p
