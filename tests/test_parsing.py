import hashlib
import random

import pytest

from degenskel import (
    BaseElement,
    MultivariatePoly,
    ValidationError,
    field,
    parse_element,
    parse_polynomial,
)
from degenskel.parsing import parse_flow_time
from helpers import assert_matches_reference, random_expression, random_poly_expression


def test_polynomial_parser_matches_reference_sampled():
    # each coefficient against the same expression tree evaluated in the
    # Fraction-based reference field arithmetic
    rng = random.Random(1313)
    for _ in range(1000):
        text, terms = random_poly_expression(rng)
        f = parse_polynomial(text, arity=3)
        assert f.terms.keys() == terms.keys(), text
        for exps, coeff in f.terms.items():
            assert_matches_reference(coeff, terms[exps])


# Malformed texts whose repr has at most 80 characters, so errors quote
# them whole; some are valid polynomials once the arity is inferred.
MALFORMED = [
    "", " ", "t +", "T1+*T2", "(1 + t", "1 + t)", "()", "2t", "t t", "T1 T2",
    "0.5", "0.5*T1", "1e5", "x", "t @ 2", "1 // 2", "--", "^2", "T1^", "t^-",
    "t^t", "T1^T2", "t^(2)", "t^-1^2", "T1^-1", "(T1+T2)^-2", "1/T1",
    "T1 + T2/T1", "1/(T1+1)", "T0", "T3", "T1*T12", "1/0", "t/(t-t)",
    "T1/(1-1)", "0^-1", "(t-t)^-3", "((((1", "1" + "+1" * 38 + "+",
    "T2" + "*T1" * 25 + ")", "(" + "t*" * 38 + "t", "ｔ", "t^2*(2+t)/(3+t",
]
BAD_FLOW_TIMES = ["", "abc", "-1", "1/0", "0.5.5", "inf ity", "-inf", "1/-2"]

# sha256 of _parser_outputs(), computed with these generators against the
# earlier parser, in which every value was an arity-0 MultivariatePoly: the
# parse results and short error messages are unchanged
PARSER_DIGEST = "86ac1c2407f623ed6af0da0876426a0d4aa985a19a3ac4c428a8d54c4eca061f"


def _outcome(parse, text) -> str:
    try:
        value = parse(text)
    except (ValidationError, ZeroDivisionError) as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(value, MultivariatePoly):
        return f"{value.arity} {value!r}"
    return str(value)


def _parser_outputs() -> list[str]:
    # every generated text is valid, and its value is also checked against
    # the same expression tree in reference arithmetic
    rng = random.Random(2024)
    lines = []
    for _ in range(1000):
        text, value = random_expression(rng)
        x = parse_element(text)
        assert_matches_reference(x, value)
        lines += [text, str(x), _outcome(parse_polynomial, text)]
    for _ in range(1000):
        text, terms = random_poly_expression(rng)
        f = parse_polynomial(text)
        padded = f.with_arity(3).terms
        assert padded.keys() == terms.keys(), text
        for exps, coeff in padded.items():
            assert_matches_reference(coeff, terms[exps])
        lines += [text, f"{f.arity} {f!r}"]
    for text in MALFORMED:
        assert len(repr(text)) <= 80
        lines += [text, _outcome(parse_element, text), _outcome(parse_polynomial, text)]
        lines.append(_outcome(lambda s: parse_polynomial(s, arity=2), text))
    for text in BAD_FLOW_TIMES:
        lines += [text, _outcome(parse_flow_time, text)]
    return lines


def test_parser_outputs_are_pinned(monkeypatch):
    # literals, t, variables and constants are built in canonical form, so
    # parsing never runs a checking constructor
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} checked a parsed value")

    monkeypatch.setattr(BaseElement, "__init__", refuse)
    monkeypatch.setattr(MultivariatePoly, "__init__", refuse)
    lines = _parser_outputs()
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PARSER_DIGEST


def test_parse_element_builds_no_polynomial(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("parse_element built a MultivariatePoly")

    monkeypatch.setattr(MultivariatePoly, "__init__", refuse)
    monkeypatch.setattr(MultivariatePoly, "_of", classmethod(refuse))
    rng = random.Random(99)
    for _ in range(200):
        text, value = random_expression(rng)
        assert_matches_reference(parse_element(text), value)
    with pytest.raises(ValidationError, match="division by zero"):
        parse_element("t/(t-t)")


def test_power_of_a_constant_takes_no_gcd(monkeypatch):
    # one gcd reduces the quotient; a power of a reduced pair stays reduced
    calls = []
    gcd = field._poly_gcd
    monkeypatch.setattr(field, "_poly_gcd", lambda a, b: calls.append(1) or gcd(a, b))
    x = parse_element("((2+3*t)/(1-2*t))^2")
    assert len(calls) == 1
    assert x == BaseElement({0: 2, 1: 3}, {0: 1, 1: -2}) ** 2
    assert str(x) == "(4 + 12*t + 9*t^2)/(1 - 4*t + 4*t^2)"


@pytest.mark.parametrize("text, message", [
    ("1/(T1-T1+2)", "cannot divide by an expression in T-variables"),
    ("T2/(T1-T1+t)", "cannot divide by an expression in T-variables"),
    ("1/(T1-T1)", "cannot divide by an expression in T-variables"),
    ("(T1-T1+2)^-1", "negative powers of T-variables are not allowed"),
    ("(T1-T1)^-1", "negative powers of T-variables are not allowed"),
])
def test_divisor_written_with_variables_is_rejected(text, message):
    # the variables cancel, but a divisor or negative-power base must be a
    # field constant as written
    with pytest.raises(ValidationError) as exc:
        parse_polynomial(text, arity=2)
    assert exc.value.problems == [message]


def test_cancelled_variables_elsewhere_are_accepted():
    assert parse_polynomial("(T1-T1+2)*T2 + t^0/(2-1)", arity=2) == parse_polynomial(
        "2*T2 + 1", arity=2
    )
    assert parse_polynomial("(T1-T1+t)^2", arity=1) == MultivariatePoly.constant(
        1, BaseElement({2: 1})
    )


@pytest.mark.parametrize("text", [
    "9" * 5000,
    "t^" + "9" * 5000,
    "T1^" + "9" * 5000,
    "T" + "9" * 5000,
    "1/" + "9" * 5000 + "*t",
], ids=["literal", "t-exponent", "T-exponent", "index", "divisor"])
def test_overlong_integer_literal_is_named(text):
    for parse in (parse_polynomial, lambda s: parse_polynomial(s, arity=2)):
        with pytest.raises(ValidationError) as exc:
            parse(text)
        assert exc.value.problems == ["integer literal of 5000 digits is too long"]
    if "T" not in text:
        with pytest.raises(ValidationError) as exc:
            parse_element(text)
        assert exc.value.problems == ["integer literal of 5000 digits is too long"]


def test_out_of_range_variable_is_quoted_at_most_80_characters():
    token = "T" + "9" * 4000
    with pytest.raises(ValidationError) as exc:
        parse_polynomial(token, arity=2)
    assert exc.value.problems == [
        f"variable {token[:77]}... out of range: expression has arity 2"
    ]
    token = "T" + "9" * 79  # 80 characters: quoted whole
    with pytest.raises(ValidationError) as exc:
        parse_polynomial("T1+" + token, arity=2)
    assert exc.value.problems == [f"variable {token} out of range: expression has arity 2"]


@pytest.mark.parametrize("parse, text, start", [
    (parse_element, "t+" * 5000, "unexpected end of expression in 't+t+"),
    (parse_element, "t" + ")" * 5000, "unexpected token ')' in 't))"),
    (parse_element, "t*" * 5000 + ")", "unexpected token ')' in 't*t*"),
    (parse_element, "(" + "t+" * 5000 + "tt", "unbalanced parentheses in '(t+t"),
    (parse_element, "(1)" + "9" * 1000, "unexpected token '99999"),
    (parse_flow_time, "x" * 5000, "invalid flow time 'xxxx"),
    (parse_flow_time, "9" * 5000 + "/0", "invalid flow time '9999"),
], ids=["end", "after", "atom", "parentheses", "literal", "flow-time", "flow-time-zero"])
def test_error_echoes_at_most_80_characters(parse, text, start):
    with pytest.raises(ValidationError) as exc:
        parse(text)
    (message,) = exc.value.problems
    assert message.startswith(start)
    assert len(message) < 300
    assert "..." in message
