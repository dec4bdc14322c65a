import math
import random
from fractions import Fraction

import pytest

from degenskel import (
    INFINITY,
    BaseElement,
    BasicModel,
    MonomialWeights,
    MultivariatePoly,
    ValidationError,
    flow_expansion,
    flow_value,
    flow_value_monomial,
    flow_valuations,
    field,
    flow,
    monomial_valuation,
    parse_flow_time,
    parse_polynomial,
    retract_point,
    uniformizer,
)
from helpers import (
    assert_deferred_reads_as,
    random_poly,
    random_rigid_point,
    random_unit,
    reference_flow_expansion,
    reference_min_term_value,
    reference_monomial_valuations,
)

S_GRID = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(5))


def basic_point():
    t = uniformizer()
    bm = BasicModel(1, 1)
    return bm, bm.rigid_point(t / (1 + t), BaseElement(1) + t)


def test_reduced_multiplicities():
    for n1, n2 in ((1, 1), (2, 1), (2, 3), (6, 4), (12, 8)):
        bm = BasicModel(n1, n2)
        assert math.gcd(bm.m1, bm.m2) == 1
        assert bm.m1 * bm.c == n1 and bm.m2 * bm.c == n2


def test_flow_of_uniformizer_is_constant():
    bm, x = basic_point()
    f = parse_polynomial("T1*T2", arity=2)
    for s in (*S_GRID, INFINITY):
        assert flow_value(bm, x, s, f) == 1


def test_flow_expansion_hand_example():
    # f = T1 + T2 at x = (t/(1+t), 1+t): clearing V gives x1*V^2 + x2, so
    # c0 = x1 + x2 (valuation 0), c1 = 2*x1 and c2 = x1 (valuation 1 each)
    bm, x = basic_point()
    f = parse_polynomial("T1+T2", arity=2)
    expansion = flow_expansion(bm, x, f)
    assert {i: c.valuation() for i, c in expansion.items()} == {0: 0, 1: 1, 2: 1}
    assert expansion[0] == x.x1 + x.x2
    assert expansion[1] == 2 * x.x1
    assert expansion[2] == x.x1
    for s in (*S_GRID, INFINITY):
        assert flow_value(bm, x, s, f) == 0


def test_flow_at_infinity_is_direct_substitution():
    rng = random.Random(15)
    for n1, n2 in ((1, 1), (2, 1), (3, 1), (1, 2)):
        bm = BasicModel(n1, n2)
        for _ in range(25):
            x = random_rigid_point(rng, bm)
            f = random_poly(rng, 2)
            direct = f.evaluate([x.x1, x.x2]).valuation()
            assert flow_value(bm, x, INFINITY, f) == direct


def test_flow_of_zero_polynomial():
    bm, x = basic_point()
    assert flow_value(bm, x, 0, MultivariatePoly(2)) == INFINITY


def reference_values(bm, x, f):
    """Flow values on S_GRID and at inf from the canonical-arithmetic expansion."""
    expansion = reference_flow_expansion(bm, x, f)
    valuations = {i: c.valuation() for i, c in expansion.items()}
    values = [reference_min_term_value(valuations, s) for s in (*S_GRID, INFINITY)]
    return expansion, valuations, values


def assert_matches_reference(bm, x, f):
    expansion, valuations, values = reference_values(bm, x, f)
    assert flow_expansion(bm, x, f) == expansion
    assert flow_valuations(bm, x, f) == valuations
    assert [flow_value(bm, x, s, f) for s in (*S_GRID, INFINITY)] == values


def sampled_cases():
    """Seeded (bm, x, f) over the models that have rigid points."""
    rng = random.Random(24)
    for n1, n2 in ((1, 1), (2, 1), (3, 1), (1, 2)):
        bm = BasicModel(n1, n2)
        for _ in range(15):
            x = random_rigid_point(rng, bm)
            yield bm, x, random_poly(rng, 2, max_terms=5)


def test_flow_expansion_matches_reference_sampled():
    for bm, x, f in sampled_cases():
        assert_matches_reference(bm, x, f)


def test_deferred_coefficients_read_as_canonical_sampled():
    for bm, x, f in sampled_cases():
        numerators, den = flow._rigid_numerators(bm, x, f)
        expansion = flow_expansion(bm, x, f)
        reference = reference_flow_expansion(bm, x, f)
        assert expansion.keys() == numerators.keys() == reference.keys()
        for i, p in numerators.items():
            assert type(expansion[i]) is field._Unreduced
            assert expansion[i]._pair == (p, den)
            assert_deferred_reads_as(p, den, reference[i])


def test_deferred_coefficients_reduce_once_on_first_read(monkeypatch):
    cases = [
        (bm, x, f, flow_expansion(bm, x, f), reference_flow_expansion(bm, x, f))
        for bm, x, f in sampled_cases()
    ]
    gcds, reductions = [], []
    gcd, canonical = field._poly_gcd, field._canonical
    monkeypatch.setattr(field, "_poly_gcd", lambda a, b: gcds.append(1) or gcd(a, b))
    monkeypatch.setattr(
        field, "_canonical", lambda n, d: reductions.append(1) or canonical(n, d)
    )
    # the expansion and every valuation and truth value take no gcd
    for bm, x, f, _, reference in cases:
        expansion = flow_expansion(bm, x, f)
        assert {i: c.valuation() for i, c in expansion.items()} == {
            i: c.valuation() for i, c in reference.items()
        }
        assert all(expansion.values())
    assert (gcds, reductions) == ([], [])
    # the first == reduces once, a second == reuses the reduced pair
    reduced = 0
    for *_, expansion, reference in cases:
        for i, c in expansion.items():
            assert c == reference[i]
            reduced += 1
            assert len(reductions) == reduced
            taken = len(gcds)
            assert c == reference[i]
            assert (len(gcds), len(reductions)) == (taken, reduced)
    assert len(gcds) > reduced // 2


def test_flow_expansion_matches_reference_edge_cases():
    t = uniformizer()
    rng = random.Random(25)
    # coefficients with t in the denominator, of negative valuation
    bm = BasicModel(2, 1)
    f = MultivariatePoly(2, {
        (2, 0): BaseElement(1) / t**3,
        (0, 1): (1 + t) / (t * (2 - t)),
        (1, 1): Fraction(-3, 7) / (1 + 2 * t),
    })
    for _ in range(5):
        assert_matches_reference(bm, random_rigid_point(rng, bm), f)
    # the zero expansion: T1*T2 - t vanishes on the model with N = (1, 1)
    bm, x = basic_point()
    f = parse_polynomial("T1*T2 - t", arity=2)
    assert flow_expansion(bm, x, f) == {}
    assert_matches_reference(bm, x, f)
    # the relation T1*T2^2 = t cancels the two leading terms on (1, 2)
    bm = BasicModel(1, 2)
    f = parse_polynomial("-3*T1^2*T2^3 + 3*t*T1*T2 + T2^4", arity=2)
    for _ in range(5):
        x = random_rigid_point(rng, bm)
        assert_matches_reference(bm, x, f)
        assert flow_valuations(bm, x, f) == flow_valuations(
            bm, x, parse_polynomial("T2^4", arity=2)
        )


def crossings(valuations):
    """Every s >= 0 where two lines v_i + i*s meet: the breakpoints of the
    minimum are among them."""
    lines = list(valuations.items())
    return {
        Fraction(v - w, j - i)
        for k, (i, v) in enumerate(lines)
        for j, w in lines[k + 1:]
        if Fraction(v - w, j - i) >= 0
    }


def test_min_term_value_matches_reference_sampled():
    rng = random.Random(31)
    tables = [{}] + [flow_valuations(bm, x, f) for bm, x, f in sampled_cases()]
    for n1, n2 in ((1, 1), (2, 1), (1, 2), (2, 3), (3, 2), (4, 6)):
        bm = BasicModel(n1, n2)
        for _ in range(8):
            lam = Fraction(rng.randint(0, 60), 60)
            data = bm.monomial_point(lam / n1, (1 - lam) / n2)
            f = random_poly(rng, 2, max_terms=5, max_exp=2 * max(n1, n2) + 1)
            tables.append(flow._monomial_valuations(bm, data, f))
    assert any(isinstance(v, int) for table in tables for v in table.values())
    assert any(
        isinstance(v, Fraction) and v.denominator > 1
        for table in tables
        for v in table.values()
    )
    for table in tables:
        times = [*S_GRID, INFINITY]
        times += [Fraction(rng.randint(0, 10**7), rng.randint(1, 10**6)) for _ in range(20)]
        for b in crossings(table):
            step = Fraction(1, rng.randint(1, 10**6))
            times += [b, b + step] + ([b - step] if b >= step else [])
        for s in times:
            assert flow.min_term_value(table, s) == reference_min_term_value(table, s)
    assert flow.min_term_value({}, INFINITY) == INFINITY
    assert flow.min_term_value({}, Fraction(1, 2)) == INFINITY
    assert flow.min_term_value({2: 5}, INFINITY) == INFINITY
    assert flow.min_term_value({0: Fraction(-1, 3), 2: 5}, INFINITY) == Fraction(-1, 3)


def test_flow_value_needs_no_gcd(monkeypatch):
    rng = random.Random(26)
    cases = []
    for n1, n2 in ((1, 1), (2, 1), (3, 1), (1, 2)):
        bm = BasicModel(n1, n2)
        for _ in range(3):
            x = random_rigid_point(rng, bm)
            f = random_poly(rng, 2)
            cases.append((bm, x, f, reference_values(bm, x, f)[2]))

    def no_gcd(a, b):
        raise AssertionError("gcd taken on the flow path")

    monkeypatch.setattr(field, "_poly_gcd", no_gcd)
    for bm, x, f, values in cases:
        assert [flow_value(bm, x, s, f) for s in (*S_GRID, INFINITY)] == values
    # the canonical-arithmetic path does reduce on these inputs
    with pytest.raises(AssertionError, match="gcd taken"):
        for bm, x, f, _ in cases:
            reference_flow_expansion(bm, x, f)


def test_flow_expands_once_per_point_and_polynomial(monkeypatch):
    calls = []
    expand = flow._rigid_numerators

    def counting(bm, x, f):
        calls.append(f)
        return expand(bm, x, f)

    monkeypatch.setattr(flow, "_rigid_numerators", counting)
    bm, x = basic_point()
    f = parse_polynomial("T1^2 + t*T2 + T1*T2^3", arity=2)
    expansion, valuations, values = reference_values(bm, x, f)
    assert flow_expansion(bm, x, f) == expansion
    assert [flow_value(bm, x, s, f) for s in (*S_GRID, INFINITY)] == values
    assert flow_valuations(bm, x, f) == valuations
    assert flow_expansion(bm, x, f) == expansion
    assert calls == [f]
    # an equal model reuses the entry; a new polynomial is expanded, even
    # an equal one, and only the last entry is kept
    assert flow_value(BasicModel(1, 1), x, 1, f) == values[2]
    g = parse_polynomial("T1^2 + t*T2 + T1*T2^3", arity=2)
    assert g == f and flow_valuations(bm, x, g) == valuations
    assert flow_valuations(bm, x, g) == valuations
    assert flow_valuations(bm, x, f) == valuations
    assert [c is f for c in calls] == [True, False, True]
    # (1, t) is a rigid point of (1, 1) and of (2, 1) alike, and the two
    # models move it differently: a different model must expand again
    t = uniformizer()
    y = bm.rigid_point(BaseElement(1), t)
    other = BasicModel(2, 1)
    assert other.rigid_point(y.x1, y.x2) == y
    h = parse_polynomial("T1 + T2^2 + t", arity=2)
    for model in (bm, other, bm):
        assert flow_expansion(model, y, h) == reference_flow_expansion(model, y, h)
    assert len(calls) == 6
    assert reference_flow_expansion(bm, y, h) != reference_flow_expansion(other, y, h)


def test_monomial_flow_builds_once_per_point_and_polynomial(monkeypatch):
    calls = []
    build = flow._monomial_valuations

    def counting(bm, data, f):
        calls.append((bm, f))
        return build(bm, data, f)

    def values(bm, f):
        valuations = reference_monomial_valuations(bm, Fraction(0), Fraction(1), f)
        return [reference_min_term_value(valuations, s) for s in (*S_GRID, INFINITY)]

    monkeypatch.setattr(flow, "_monomial_valuations", counting)
    # the weights (0, 1) satisfy a1*N1 + a2*N2 = 1 on (1, 1) and on (2, 1)
    bm, other = BasicModel(1, 1), BasicModel(2, 1)
    data = bm.monomial_point(Fraction(0), Fraction(1))
    text = "(T1 + T2 + t)^3 + t*T1^2*T2^3"
    f = parse_polynomial(text, arity=2)
    assert [flow_value_monomial(bm, data, s, f) for s in (*S_GRID, INFINITY)] == values(bm, f)
    assert calls == [(bm, f)]
    # a new polynomial, even an equal one, and a different model build again
    g = parse_polynomial(text, arity=2)
    assert g == f
    for model in (bm, other, other, bm):
        assert [flow_value_monomial(model, data, s, g) for s in (*S_GRID, INFINITY)] == values(model, g)
    assert [(model, c is f) for model, c in calls] == [
        (bm, True), (bm, False), (other, False), (bm, False)
    ]
    # the weights are checked on every call, before the memo is read
    with pytest.raises(ValidationError, match="weights must satisfy"):
        flow_value_monomial(BasicModel(1, 2), data, 1, g)


def test_flow_memo_interleaved_matches_reference_sampled():
    rng = random.Random(27)
    times = (*S_GRID, INFINITY)
    for n1, n2 in ((1, 1), (2, 1), (1, 2)):
        bm = BasicModel(n1, n2)
        points = [random_rigid_point(rng, bm) for _ in range(3)]
        polys = [random_poly(rng, 2, max_terms=5) for _ in range(3)]
        # equal to the first polynomial but another object
        polys.append(MultivariatePoly(2, polys[0].terms))
        assert polys[-1] == polys[0] and polys[-1] is not polys[0]
        expected = {
            (a, b): reference_values(bm, x, f)
            for a, x in enumerate(points)
            for b, f in enumerate(polys)
        }
        for _ in range(60):
            a, b = rng.randrange(len(points)), rng.randrange(len(polys))
            x, f = points[a], polys[b]
            expansion, valuations, values = expected[a, b]
            query = rng.randrange(3)
            if query == 0:
                assert flow_expansion(bm, x, f) == expansion
            elif query == 1:
                assert flow_valuations(bm, x, f) == valuations
            else:
                k = rng.randrange(len(times))
                assert flow_value(bm, x, times[k], f) == values[k]


def test_rigid_point_validation():
    t = uniformizer()
    one = BaseElement(1)
    bm = BasicModel(2, 1)
    with pytest.raises(ValidationError, match="negative valuation"):
        bm.rigid_point(t / (1 + t), (1 + t) ** 2 / t)
    with pytest.raises(ValidationError, match="must equal t"):
        bm.rigid_point(t, one)
    # valid: x1 a unit, x2 = t / x1^2
    u = one + t
    x = bm.rigid_point(u, t * u**-2)
    assert (x.x1.valuation(), x.x2.valuation()) == (0, 1)


def test_rigid_point_relation_matches_field_arithmetic_sampled():
    # the gcd-free cross-multiplied check of x1^N1 * x2^N2 = t accepts
    # exactly the pairs that canonical field arithmetic accepts
    rng = random.Random(31)
    t = uniformizer()
    for n1, n2 in ((1, 1), (2, 1), (1, 2), (3, 1), (1, 3)):
        bm = BasicModel(n1, n2)
        for _ in range(15):
            x = random_rigid_point(rng, bm)
            for x1, x2 in (
                (x.x1, x.x2),
                (x.x1 * random_unit(rng), x.x2),
                (x.x1, x.x2 + t**3),
                (random_unit(rng), random_unit(rng)),
            ):
                holds = x1**n1 * x2**n2 == t
                try:
                    bm.rigid_point(x1, x2)
                    accepted = True
                except ValidationError as exc:
                    accepted = "must equal t" not in str(exc)
                assert accepted == holds


def test_retract_point_examples():
    bm, x = basic_point()
    data = retract_point(bm, x)
    assert data.stratum == "O"
    assert data.alpha == {"E1": Fraction(1), "E2": Fraction(0)}

    t = uniformizer()
    y = bm.rigid_point(t * (1 + t), BaseElement(1) / (1 + t))
    assert retract_point(bm, y).alpha == {"E1": Fraction(1), "E2": Fraction(0)}


def test_no_rigid_points_for_coprime_multiplicities_both_above_one():
    # N1*v(x1) + N2*v(x2) = 1 has no nonnegative integer solution unless
    # one of the multiplicities is 1, so (2, 3) admits no rigid point at all
    for n1, n2 in ((2, 3), (3, 2), (2, 5), (4, 3)):
        solutions = [
            (a1, a2)
            for a1 in range(n2 + 1)
            for a2 in range(n1 + 1)
            if a1 * n1 + a2 * n2 == 1
        ]
        assert solutions == []
    with pytest.raises(ValueError):
        random_rigid_point(random.Random(0), BasicModel(2, 3))


def test_flow_monotone_and_bounded_sampled():
    rng = random.Random(16)
    for n1, n2 in ((1, 1), (2, 1)):
        bm = BasicModel(n1, n2)
        for _ in range(25):
            x = random_rigid_point(rng, bm)
            f = random_poly(rng, 2)
            values = [flow_value(bm, x, s, f) for s in S_GRID]
            limit = flow_value(bm, x, INFINITY, f)
            assert all(a <= b for a, b in zip(values, values[1:]))
            assert all(v <= limit for v in values)


def test_flow_endpoint_zero_matches_monomial_valuation_sampled():
    rng = random.Random(17)
    for n1, n2 in ((1, 1), (2, 1)):
        bm = BasicModel(n1, n2)
        for _ in range(25):
            x = random_rigid_point(rng, bm)
            f = random_poly(rng, 2)
            weights = MonomialWeights(
                (Fraction(x.x1.valuation()), Fraction(x.x2.valuation()))
            )
            assert flow_value(bm, x, 0, f) == monomial_valuation(weights, f)


def test_flow_preserves_coordinates():
    rng = random.Random(18)
    bm = BasicModel(2, 1)
    t1 = parse_polynomial("T1", arity=2)
    t2 = parse_polynomial("T2", arity=2)
    for _ in range(10):
        x = random_rigid_point(rng, bm)
        for s in (*S_GRID, INFINITY):
            assert flow_value(bm, x, s, t1) == x.x1.valuation()
            assert flow_value(bm, x, s, t2) == x.x2.valuation()


def test_flow_multiplicative_at_fixed_time_sampled():
    rng = random.Random(19)
    bm = BasicModel(1, 1)
    for _ in range(25):
        x = random_rigid_point(rng, bm)
        f, g = random_poly(rng, 2), random_poly(rng, 2)
        for s in S_GRID:
            assert flow_value(bm, x, s, f * g) == flow_value(
                bm, x, s, f
            ) + flow_value(bm, x, s, g)


def test_flow_time_validation():
    bm, x = basic_point()
    f = parse_polynomial("T1", arity=2)
    with pytest.raises(ValidationError):
        flow_value(bm, x, Fraction(-1), f)
    with pytest.raises(ValidationError):
        flow_value(bm, x, 0.5, f)


def test_parse_flow_time():
    assert parse_flow_time(" inf ") == INFINITY
    assert parse_flow_time("7/2") == Fraction(7, 2)
    assert parse_flow_time("0") == 0
    # one Fraction per time: a checked Fraction is passed on as it is
    s = parse_flow_time("7/2")
    assert flow._check_flow_time(s) is s
    assert flow._check_flow_time(float("inf")) is INFINITY
    with pytest.raises(ValidationError, match="flow time must be nonnegative"):
        parse_flow_time("-1/3")
    for text in ("abc", "1/0", "-inf"):
        with pytest.raises(ValidationError, match="invalid flow time"):
            parse_flow_time(text)


def test_degenerate_presentation_detected_as_zero():
    # T1*T2 - t vanishes identically on the model with N = (1, 1); the
    # normal form detects the cancellation and reports +infinity, while the
    # free monomial valuation of the presentation would give 1
    bm = BasicModel(1, 1)
    f = parse_polynomial("T1*T2 - t", arity=2)
    data = bm.monomial_point(Fraction(1, 2), Fraction(1, 2))
    assert flow_value_monomial(bm, data, 0, f) == INFINITY
    weights = MonomialWeights((Fraction(1, 2), Fraction(1, 2)))
    assert monomial_valuation(weights, f) == 1

    t = uniformizer()
    x = bm.rigid_point(t / (1 + t), BaseElement(1) + t)
    assert flow_value(bm, x, 0, f) == INFINITY


def test_monomial_flow_of_monomials():
    # binomial expansion of V^k keeps integer (unit) coefficients, so the
    # value of T1^p * T2^q is p*a1 + q*a2 at every flow time
    rng = random.Random(20)
    for n1, n2 in ((1, 1), (2, 1), (2, 3)):
        bm = BasicModel(n1, n2)
        for _ in range(10):
            lam = Fraction(rng.randint(0, 12), 12)
            data = bm.monomial_point(lam / n1, (1 - lam) / n2)
            p, q = rng.randint(0, 3), rng.randint(0, 3)
            f = parse_polynomial(f"T1^{p}*T2^{q}", arity=2)
            expected = p * data.alpha["E1"] + q * data.alpha["E2"]
            for s in (*S_GRID, INFINITY):
                assert flow_value_monomial(bm, data, s, f) == expected


def test_monomial_flow_of_uniformizer():
    for n1, n2 in ((1, 1), (2, 1), (2, 3)):
        bm = BasicModel(n1, n2)
        data = bm.monomial_point(Fraction(1, 2 * n1), Fraction(1, 2 * n2))
        f = parse_polynomial(f"T1^{n1}*T2^{n2}", arity=2)
        for s in (*S_GRID, INFINITY):
            assert flow_value_monomial(bm, data, s, f) == 1


def test_monomial_flow_fixed_point_example():
    bm = BasicModel(1, 1)
    data = bm.monomial_point(Fraction(1, 2), Fraction(1, 2))
    f = parse_polynomial("T1+T2", arity=2)
    for s in (*S_GRID, INFINITY):
        assert flow_value_monomial(bm, data, s, f) == Fraction(1, 2)


def test_monomial_point_validation():
    bm = BasicModel(2, 3)
    with pytest.raises(ValidationError, match="a1\\*2 \\+ a2\\*3"):
        bm.monomial_point(Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValidationError, match="nonnegative"):
        bm.monomial_point(Fraction(2), Fraction(-1))


def diagonal_sums(bm, f):
    """flow._diagonals with each unreduced sum compared in canonical form."""
    return {ij: BaseElement._make(num, den) for ij, (num, den) in flow._diagonals(bm, f).items()}


def test_diagonals_examples():
    bm = BasicModel(2, 3)
    t = uniformizer()
    # T1^5*T2^7 = t^2 * T1*T2 on the diagonal of T1*T2; T1*T2^2 is alone
    f = parse_polynomial("(1/2)*T1^5*T2^7 + 3*t*T1*T2 + T1*T2^2", arity=2)
    assert diagonal_sums(bm, f) == {(1, 1): 3 * t + t**2 / 2, (1, 2): BaseElement(1)}
    # the representative is the least term of f on its diagonal
    f = parse_polynomial("T1^2*T2^3", arity=2)
    assert diagonal_sums(bm, f) == {(2, 3): BaseElement(1)}
    f = parse_polynomial("T1^5*T2^6 + T1^3*T2^3", arity=2)
    assert diagonal_sums(bm, f) == {(3, 3): 1 + t}
    # unequal denominators on one diagonal are cross-multiplied
    f = MultivariatePoly(2, {(0, 1): 1 / (1 + t), (4, 7): 1 / (2 - t)})
    assert diagonal_sums(bm, f) == {(0, 1): 1 / (1 + t) + t**2 / (2 - t)}


def test_diagonals_cancellation_is_exact():
    # x1^N1 * x2^N2 - t is exactly zero on one diagonal
    bm = BasicModel(2, 3)
    f = parse_polynomial("T1^2*T2^3 - t", arity=2)
    assert flow._diagonals(bm, f) == {}
    data = bm.monomial_point(Fraction(1, 4), Fraction(1, 6))
    assert flow._monomial_valuations(bm, data, f) == {}
    for s in (*S_GRID, INFINITY):
        assert flow_value_monomial(bm, data, s, f) == INFINITY


def test_flow_value_monomial_needs_no_gcd(monkeypatch):
    # polynomial-denominator coefficients, several terms per diagonal
    rng = random.Random(29)
    cases = []
    for n1, n2 in ((1, 1), (2, 1), (1, 2), (2, 3), (3, 2)):
        bm = BasicModel(n1, n2)
        for _ in range(4):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                i, j = rng.randint(0, 2), rng.randint(0, 2)
                for l in range(rng.randint(2, 3)):
                    terms[(i + l * n1, j + l * n2)] = random_unit(rng)
            f = MultivariatePoly(2, terms)
            lam = Fraction(rng.randint(0, 12), 12)
            a1, a2 = lam / n1, (1 - lam) / n2
            valuations = reference_monomial_valuations(bm, a1, a2, f)
            values = [reference_min_term_value(valuations, s) for s in (*S_GRID, INFINITY)]
            cases.append((bm, a1, a2, f, values))

    def no_gcd(a, b):
        raise AssertionError("gcd taken on the flow path")

    monkeypatch.setattr(field, "_poly_gcd", no_gcd)
    for bm, a1, a2, f, values in cases:
        data = bm.monomial_point(a1, a2)
        assert [flow_value_monomial(bm, data, s, f) for s in (*S_GRID, INFINITY)] == values
    # the canonical-arithmetic path does reduce on these inputs
    with pytest.raises(AssertionError, match="gcd taken"):
        for bm, a1, a2, f, _ in cases:
            reference_monomial_valuations(bm, a1, a2, f)


def test_flow_expansion_of_powers_matches_reference_sampled():
    # (a*T1 + b*T2 + c*t)^n puts several terms with mixed denominators on
    # one diagonal
    rng = random.Random(30)
    t = uniformizer()
    for n1, n2 in ((1, 1), (2, 1), (1, 2), (1, 3)):
        bm = BasicModel(n1, n2)
        for n in range(2, 7):
            a, b, c = (
                rng.choice((-2, -1, 1, 3)) / (rng.randint(1, 3) + rng.choice((-1, 1)) * t)
                for _ in range(3)
            )
            base = MultivariatePoly(2, {(1, 0): a, (0, 1): b, (0, 0): c * t})
            u = (rng.randint(1, 3) + t) / (rng.randint(1, 3) - t)
            if n1 == 1:
                x = bm.rigid_point(t * u**n2, u**-n1)
            else:
                x = bm.rigid_point(u**n2, t * u**-n1)
            assert_matches_reference(bm, x, base**n)


def test_monomial_valuations_hand_example():
    # on (2, 3), T1 moves as V^3 and t*T2^2 as V^-4: clearing V^4 leaves
    # x1*V^7 + t*x2^2, so c0 has both terms and c1..c7 only the first
    bm = BasicModel(2, 3)
    a1, a2 = Fraction(1, 2), Fraction(0)
    f = parse_polynomial("T1 + t*T2^2", arity=2)
    valuations = flow._monomial_valuations(bm, bm.monomial_point(a1, a2), f)
    assert valuations == {i: Fraction(1, 2) for i in range(8)}
    assert valuations == reference_monomial_valuations(bm, a1, a2, f)
    # T1 + T2 clears to x1*V^5 + x2: c0 alone sees x2
    f = parse_polynomial("T1 + T2", arity=2)
    valuations = flow._monomial_valuations(bm, bm.monomial_point(a1, a2), f)
    assert valuations == {0: 0, **{i: Fraction(1, 2) for i in range(1, 6)}}
    assert valuations == reference_monomial_valuations(bm, a1, a2, f)


def test_monomial_valuations_match_reference_sampled():
    # f, f + (T1^N1*T2^N2 - t)*h and the identically zero (T1^N1*T2^N2 - t)*h
    rng = random.Random(28)
    models = ((1, 1), (2, 1), (1, 2), (2, 3), (3, 2), (2, 4), (4, 6), (3, 3))
    for n1, n2 in models:
        bm = BasicModel(n1, n2)
        relation = MultivariatePoly(2, {(n1, n2): 1, (0, 0): -uniformizer()})
        for _ in range(10):
            lam = Fraction(rng.randint(0, 24), 24)
            a1, a2 = lam / n1, (1 - lam) / n2
            data = bm.monomial_point(a1, a2)
            f = random_poly(rng, 2, max_terms=5, max_exp=2 * max(n1, n2) + 1)
            h = random_poly(rng, 2, max_terms=3)
            expected = reference_monomial_valuations(bm, a1, a2, f)
            assert reference_monomial_valuations(bm, a1, a2, f + relation * h) == expected
            assert reference_monomial_valuations(bm, a1, a2, relation * h) == {}
            for g, valuations in ((f, expected), (f + relation * h, expected), (relation * h, {})):
                assert flow._monomial_valuations(bm, data, g) == valuations
                for s in (*S_GRID, INFINITY):
                    value = reference_min_term_value(valuations, s)
                    assert flow_value_monomial(bm, data, s, g) == value
