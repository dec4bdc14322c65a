"""Monomial (generalized Gauss) valuations on multivariate polynomials.

A weight tuple alpha = (alpha_1, ..., alpha_r) of nonnegative rationals
determines a valuation on the polynomial ring K[T_1, ..., T_r] over the base
field K = Q(t):

    v(f) = min over the terms d * T^beta of f of ( v_K(d) + alpha . beta )

with v(0) = +infinity.  When the weights come from a normal crossings model
(each T_i cutting out a component of multiplicity N_i), the normalization
sum(alpha_i * N_i) = 1 makes v extend the t-adic valuation of K; the model
code that fixes N enforces it.

The variables are treated as algebraically independent: v is evaluated on
the polynomial as presented.  Quotient-ring arithmetic, where products of
the T_i can collapse into the uniformizer, lives in the flow module.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import ValidationError
from .field import INFINITY, BaseElement, _add, _mul


class MultivariatePoly:
    """Polynomial in T_1..T_r with coefficients in the base field.

    Stored sparsely as a map from exponent tuples (length r, nonnegative
    integers) to nonzero coefficients.  Immutable by convention.  Only the
    constructor checks terms: every other builder makes canonical ones.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: Mapping[tuple[int, ...], object] = ()):
        if not isinstance(arity, int) or arity < 0:
            raise ValidationError("polynomial arity must be a nonnegative integer")
        clean: dict[tuple[int, ...], BaseElement] = {}
        for exps, coeff in dict(terms).items():
            exps = tuple(exps)
            if len(exps) != arity or any(
                not isinstance(e, int) or e < 0 for e in exps
            ):
                raise ValidationError(
                    f"exponent tuple {exps} is not a length-{arity} tuple of"
                    " nonnegative integers"
                )
            c = coeff if isinstance(coeff, BaseElement) else BaseElement(coeff)
            if c:
                clean[exps] = c
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultivariatePoly is immutable")

    @classmethod
    def _of(cls, arity: int, terms: dict) -> MultivariatePoly:
        """Wrap terms already valid: length-arity exponents, nonzero BaseElements."""
        self = object.__new__(cls)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "terms", terms)
        return self

    @classmethod
    def constant(cls, arity: int, value) -> MultivariatePoly:
        if isinstance(value, BaseElement) and isinstance(arity, int) and arity >= 0:
            return cls._of(arity, {(0,) * arity: value} if value else {})
        return cls(arity, {(0,) * arity: value})  # checks the arity and value

    @classmethod
    def variable(cls, index: int, arity: int) -> MultivariatePoly:
        """The variable T_index (1-based, matching the text syntax T1..Tr)."""
        if not 1 <= index <= arity:
            raise ValidationError(f"variable T{index} out of range for arity {arity}")
        exps = tuple(1 if i == index - 1 else 0 for i in range(arity))
        return cls._of(arity, {exps: BaseElement._of({0: 1}, {0: 1})})

    @classmethod
    def monomial(cls, arity: int, exps: Sequence[int], coeff=1) -> MultivariatePoly:
        return cls(arity, {tuple(exps): coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _check_arity(self, other: MultivariatePoly):
        if self.arity != other.arity:
            raise ValidationError(
                f"arity mismatch: {self.arity} versus {other.arity}"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction, BaseElement)):
            other = MultivariatePoly.constant(self.arity, other)
        if not isinstance(other, MultivariatePoly):
            return NotImplemented
        self._check_arity(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            s = terms.get(exps)
            s = c if s is None else s + c
            if s:
                terms[exps] = s
            else:
                terms.pop(exps, None)
        return MultivariatePoly._of(self.arity, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultivariatePoly._of(self.arity, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, BaseElement)):
            other = MultivariatePoly.constant(self.arity, other)
        if not isinstance(other, MultivariatePoly):
            return NotImplemented
        self._check_arity(other)
        # sum each coefficient as an unreduced integer pair; reduce it once
        acc: dict[tuple[int, ...], tuple[dict, dict]] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                num, den = _mul(ca._num, cb._num), _mul(ca._den, cb._den)
                if e in acc:
                    n, d = acc[e]
                    if d == den:
                        num = _add(n, num)
                    else:
                        num, den = _add(_mul(n, den), _mul(num, d)), _mul(d, den)
                acc[e] = (num, den)
        return MultivariatePoly._of(self.arity, {
            e: BaseElement._make(num, den) for e, (num, den) in acc.items() if num
        })

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValidationError("polynomial powers must be nonnegative integers")
        if len(self.terms) == 1:
            # (c*T^e)^n = c^n * T^(n*e), and a power of a reduced c stays reduced
            [(exps, c)] = self.terms.items()
            return MultivariatePoly._of(self.arity, {tuple(n * e for e in exps): c**n})
        result = MultivariatePoly.constant(self.arity, BaseElement._of({0: 1}, {0: 1}))
        for _ in range(n):
            result = result * self
        return result

    def evaluate(self, values: Sequence[BaseElement]) -> BaseElement:
        """Substitute base-field values for the variables."""
        if len(values) != self.arity:
            raise ValidationError(
                f"arity mismatch: expected {self.arity} values, got {len(values)}"
            )
        total = BaseElement(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(values, exps):
                if e:
                    term = term * v**e
            total = total + term
        return total

    def with_arity(self, arity: int) -> MultivariatePoly:
        """Pad with unused trailing variables up to the requested arity."""
        if arity < self.arity:
            raise ValidationError(
                f"cannot shrink arity from {self.arity} to {arity}"
            )
        if arity == self.arity:
            return self
        pad = (0,) * (arity - self.arity)
        return MultivariatePoly._of(arity, {e + pad: c for e, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, MultivariatePoly):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "MultivariatePoly(0)"
        parts = []
        for exps in sorted(self.terms):
            mono = "*".join(
                f"T{i + 1}" if e == 1 else f"T{i + 1}^{e}"
                for i, e in enumerate(exps)
                if e
            )
            c = str(self.terms[exps])
            if "+" in c or "-" in c[1:]:
                c = f"({c})"
            parts.append(f"{c}*{mono}" if mono else c)
        return f"MultivariatePoly({' + '.join(parts)})"


@dataclass(frozen=True)
class MonomialWeights:
    """Weight tuple alpha of nonnegative rationals; where a model fixes N,
    BasicModel.monomial_point and monomial_to_barycentric enforce sum(alpha*N) = 1."""

    alpha: tuple[Fraction, ...]

    def __post_init__(self):
        if any(isinstance(a, float) for a in self.alpha):
            raise ValidationError("weights must be exact rationals, not floats")
        alpha = tuple(Fraction(a) for a in self.alpha)
        object.__setattr__(self, "alpha", alpha)
        if any(a < 0 for a in alpha):
            raise ValidationError("weights must be nonnegative")

    @property
    def arity(self) -> int:
        return len(self.alpha)


def monomial_valuation(weights: MonomialWeights, f: MultivariatePoly):
    """Value of the monomial valuation at f: min(v_K(d) + alpha.beta).

    Returns a Fraction, or INFINITY exactly when f is the zero polynomial.
    """
    if weights.arity != f.arity:
        raise ValidationError(
            f"arity mismatch: weights have arity {weights.arity},"
            f" polynomial has arity {f.arity}"
        )
    best = INFINITY
    alpha = weights.alpha
    for exps, coeff in f.terms.items():
        v = coeff.valuation() + sum(a * e for a, e in zip(alpha, exps) if e)
        if v < best:
            best = v
    return best if best == INFINITY else Fraction(best)
