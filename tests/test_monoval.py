import random
from fractions import Fraction

import pytest

from degenskel import (
    INFINITY,
    field,
    BaseElement,
    BasicModel,
    MonomialWeights,
    MultivariatePoly,
    ValidationError,
    monomial_valuation,
    parse_polynomial,
    uniformizer,
)
from helpers import (
    assert_canonical,
    random_element,
    random_poly,
    random_weights,
    reference_poly_product,
    reference_power,
)


def test_eval_two_term_example():
    # f = t + T1*T2 at alpha = (1/4, 1/2): min(1 + 0, 0 + 3/4) = 3/4
    f = parse_polynomial("t + T1*T2")
    w = MonomialWeights((Fraction(1, 4), Fraction(1, 2)))
    assert monomial_valuation(w, f) == Fraction(3, 4)


def test_eval_constant_is_coefficient_valuation():
    rng = random.Random(11)
    for arity in range(5):
        w = random_weights(rng, arity)
        d = random_element(rng)
        f = MultivariatePoly.constant(arity, d)
        assert monomial_valuation(w, f) == d.valuation()


def test_eval_normalized_weights_give_uniformizer_value_one():
    # product of T_i^{N_i} has value sum(alpha_i * N_i) = 1
    cases = [
        ((Fraction(1, 4), Fraction(1, 2)), (2, 1)),
        ((Fraction(1, 3), Fraction(1, 6)), (1, 4)),
        ((Fraction(1, 2), Fraction(1, 4), Fraction(1, 12)), (1, 1, 3)),
    ]
    for alpha, mults in cases:
        assert sum(a * n for a, n in zip(alpha, mults)) == 1
        w = MonomialWeights(alpha)
        f = MultivariatePoly.monomial(len(mults), mults, 1)
        assert monomial_valuation(w, f) == 1


def test_eval_zero_polynomial():
    w = MonomialWeights((Fraction(1, 2),))
    assert monomial_valuation(w, MultivariatePoly(1)) == INFINITY


def test_arity_mismatch_is_rejected():
    w = MonomialWeights((Fraction(1, 2),))
    f = parse_polynomial("T1*T2")
    with pytest.raises(ValidationError):
        monomial_valuation(w, f)


def test_all_zero_weights():
    w = MonomialWeights((Fraction(0), Fraction(0)))
    f = random_poly(random.Random(21), 2)
    expected = min(c.valuation() for c in f.terms.values())
    assert monomial_valuation(w, f) == expected


def test_normalization_invariant_enforced():
    # sum(alpha*N) = 1 is checked where a model fixes N
    with pytest.raises(ValidationError, match="a1\\*1 \\+ a2\\*3 = 1"):
        BasicModel(1, 3).monomial_point(Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValidationError, match="nonnegative"):
        MonomialWeights((Fraction(-1, 2), Fraction(1)))


def test_multiplicativity_sampled():
    rng = random.Random(31)
    for _ in range(300):
        arity = rng.randint(1, 4)
        w = random_weights(rng, arity)
        f, g = random_poly(rng, arity), random_poly(rng, arity)
        assert monomial_valuation(w, f * g) == monomial_valuation(
            w, f
        ) + monomial_valuation(w, g)


def test_subadditivity_sampled():
    rng = random.Random(41)
    for _ in range(300):
        arity = rng.randint(1, 4)
        w = random_weights(rng, arity)
        f, g = random_poly(rng, arity), random_poly(rng, arity)
        vf, vg = monomial_valuation(w, f), monomial_valuation(w, g)
        v = monomial_valuation(w, f + g)
        assert v >= min(vf, vg)
        if vf != vg:
            assert v == min(vf, vg)


def test_concavity_in_weights_sampled():
    rng = random.Random(51)
    for _ in range(300):
        arity = rng.randint(1, 4)
        w1, w2 = random_weights(rng, arity), random_weights(rng, arity)
        lam = Fraction(rng.randint(0, 6), 6)
        mixed = MonomialWeights(
            tuple(lam * a + (1 - lam) * b for a, b in zip(w1.alpha, w2.alpha))
        )
        f = random_poly(rng, arity)
        assert monomial_valuation(mixed, f) >= lam * monomial_valuation(
            w1, f
        ) + (1 - lam) * monomial_valuation(w2, f)


def test_monotonicity_in_weights_sampled():
    rng = random.Random(61)
    for _ in range(300):
        arity = rng.randint(1, 4)
        w = random_weights(rng, arity)
        bigger = MonomialWeights(
            tuple(a + Fraction(rng.randint(0, 4), 3) for a in w.alpha)
        )
        f = random_poly(rng, arity)
        assert monomial_valuation(w, f) <= monomial_valuation(bigger, f)


def test_polynomial_parser():
    f = parse_polynomial("t + T1*T2^2")
    assert f.arity == 2
    assert f.terms[(0, 0)] == uniformizer()
    assert f.terms[(1, 2)] == BaseElement(1)
    g = parse_polynomial("(1+t)*T1^2 - T1^2", arity=1)
    assert g == parse_polynomial("t*T1^2", arity=1)
    assert parse_polynomial("T2", arity=3).arity == 3


def test_polynomial_parser_rejects_bad_input():
    with pytest.raises(ValidationError):
        parse_polynomial("T1^-1")
    with pytest.raises(ValidationError):
        parse_polynomial("1/T1")
    with pytest.raises(ValidationError):
        parse_polynomial("T3", arity=2)
    with pytest.raises(ValidationError):
        parse_polynomial("0.5*T1")
    with pytest.raises(ValidationError, match="arity must be a nonnegative"):
        parse_polynomial("t", arity=-1)


def test_arithmetic_builds_no_validated_polynomial(monkeypatch):
    # sums, negations, products and padding are valid by construction and
    # skip the constructor's checks; the constructor keeps all of them
    rng = random.Random(72)
    f, g = random_poly(rng, 2), random_poly(rng, 2)
    calls = []
    init = MultivariatePoly.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MultivariatePoly, "__init__", counting)
    results = (f + g, -f, f - g, f * g, f.with_arity(3))
    assert calls == []
    assert results[0].terms == {
        e: c for e in {*f.terms, *g.terms}
        if (c := f.terms.get(e, BaseElement(0)) + g.terms.get(e, BaseElement(0)))
    }
    assert (-f).terms == {e: -c for e, c in f.terms.items()}
    assert results[4].terms == {e + (0,): c for e, c in f.terms.items()}
    with pytest.raises(ValidationError, match="exponent tuple"):
        MultivariatePoly(2, {(1, -1): 1})
    with pytest.raises(ValidationError, match="exponent tuple"):
        MultivariatePoly(2, {(1,): 1})
    assert MultivariatePoly(1, {(1,): 0}).terms == {}


def test_field_scalars_add_on_either_side():
    # the parser adds and subtracts constants and polynomials in any order
    rng = random.Random(73)
    f = random_poly(rng, 2)
    for c in (3, Fraction(-2, 5), random_element(rng)):
        lifted = MultivariatePoly.constant(2, c)
        assert f + c == c + f == f + lifted
        assert f - c == f - lifted
        assert c - f == lifted - f
    with pytest.raises(TypeError):
        f + 0.5


def test_evaluate_substitution():
    rng = random.Random(71)
    t = uniformizer()
    f = parse_polynomial("T1^2 + t*T2")
    x1, x2 = random_element(rng), random_element(rng)
    assert f.evaluate([x1, x2]) == x1 * x1 + t * x2


def test_product_matches_termwise_reference_sampled():
    # coefficients carry fractions and t in their denominators; each output
    # coefficient is summed unreduced and reduced once, which must give the
    # same canonical elements as reducing every product and partial sum
    rng = random.Random(81)
    mixed_dens = cancelled = 0
    for _ in range(300):
        arity = rng.randint(1, 3)
        f = random_poly(rng, arity, max_terms=5, max_exp=2)
        g = random_poly(rng, arity, max_terms=5, max_exp=2)
        if rng.random() < 0.3:
            # (a*T1 + b) * (c*T1 + d) with c = -a*d/b: the T1 coefficient
            # a*d + b*c cancels to zero, typically across denominators
            a, b, d = (random_element(rng) for _ in range(3))
            T1 = MultivariatePoly.variable(1, arity)
            f = T1 * a + MultivariatePoly.constant(arity, b)
            g = T1 * (-a * d / b) + MultivariatePoly.constant(arity, d)
        product = f * g
        assert product.terms == reference_poly_product(f, g)
        for c in product.terms.values():
            assert_canonical(c)
        dens: dict = {}
        for ea, ca in f.terms.items():
            for eb, cb in g.terms.items():
                e = tuple(p + q for p, q in zip(ea, eb))
                den = frozenset(field._mul(ca._den, cb._den).items())
                dens.setdefault(e, set()).add(den)
        mixed_dens += any(len(v) > 1 for v in dens.values())
        cancelled += len(dens) - len(product.terms)
    assert mixed_dens > 50 and cancelled > 50


def test_product_examples():
    t = uniformizer()
    one = BaseElement(1)
    # two denominators on the T1 coefficient
    f = parse_polynomial("T1/(1+t) + 1/(2-t)", arity=1)
    g = parse_polynomial("T1/(2-t) - 1/(1+t)", arity=1)
    assert (f * g).terms == {
        (2,): one / ((1 + t) * (2 - t)),
        (1,): one / (2 - t) ** 2 - one / (1 + t) ** 2,
        (0,): -one / ((1 + t) * (2 - t)),
    }
    # t/(1+t) - t*(2-t)/((2-t)*(1+t)) cancels, so T1 is dropped
    g = parse_polynomial("-t*(2-t)/(1+t)*T1 + t", arity=1)
    assert (f * g).terms == {(2,): -t * (2 - t) / (1 + t) ** 2, (0,): t / (2 - t)}
    h = parse_polynomial("(T1 + 1/2)*(T1 - 1/2)", arity=1)
    assert h.terms == {(2,): one, (0,): BaseElement(Fraction(-1, 4))}


def test_one_term_power_matches_repeated_products_sampled(monkeypatch):
    # coefficients with t in denominators and negative valuations; a
    # one-term power takes no product, any other power n of them
    rng = random.Random(74)
    cases = []
    for arity in (1, 2, 3):
        for _ in range(6):
            exps = tuple(rng.randint(0, 3) for _ in range(arity))
            cases.append(MultivariatePoly(arity, {exps: random_element(rng)}))
        cases += [MultivariatePoly(arity), random_poly(rng, arity, max_terms=3, max_exp=1)]
    expected = [
        (f, n, reference_power(f, n))
        for f in cases
        for n in range(13 if len(f.terms) <= 1 else 5)
    ]
    products = []
    mul = MultivariatePoly.__mul__
    monkeypatch.setattr(
        MultivariatePoly, "__mul__", lambda f, g: products.append(1) or mul(f, g)
    )
    for f, n, want in expected:
        products.clear()
        got = f**n
        assert got == want, (f, n)
        for c in got.terms.values():
            assert_canonical(c)
        assert len(products) == (0 if len(f.terms) == 1 else n)
    big = parse_polynomial("T1^5000*T2^3000")
    assert big.terms == {(5000, 3000): BaseElement(1)}
