"""Polynomials in the Lefschetz class L with big-integer coefficients.

L stands for the class of the affine line.  Every space this engine
handles (projective spaces, marked affine and projective lines, finite
sets, complements of general-position hyperplane unions) has a class that
is a Z-polynomial in L, so this ring is the computable target for all
class computations.  Differences of classes are first-class citizens:
coefficients may be negative.

Representation: a sparse mapping degree -> coefficient holding no zero
entries, so two values are equal exactly when their mappings are equal.
All arithmetic is exact integer arithmetic.

Evaluating a polynomial at an integer q >= 2 (substituting q for L) turns
a class into a point count over the q-element field, which is what the
brute-force counting oracles compare against.
"""

from __future__ import annotations

from math import comb
from typing import Mapping, Union

from .series import TruncatedSeries

IntoPolynomial = Union["MotivicPolynomial", int]


class MotivicPolynomial:
    """Exact polynomial in the symbol L over arbitrary-precision integers."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int]) -> None:
        for degree, coeff in coeffs.items():
            if not isinstance(degree, int) or isinstance(degree, bool) or degree < 0:
                raise ValueError(f"degree must be a non-negative integer, got {degree!r}")
            if not isinstance(coeff, int) or isinstance(coeff, bool):
                raise ValueError(f"coefficient must be an integer, got {coeff!r}")
        self._coeffs = {d: c for d, c in sorted(coeffs.items()) if c != 0}

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "MotivicPolynomial":
        return cls({})

    @classmethod
    def one(cls) -> "MotivicPolynomial":
        return cls({0: 1})

    @classmethod
    def constant(cls, value: int) -> "MotivicPolynomial":
        return cls({0: value})

    @classmethod
    def lefschetz(cls) -> "MotivicPolynomial":
        return cls({1: 1})

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> "MotivicPolynomial":
        return cls({degree: coeff})

    # -- inspection --------------------------------------------------------

    def items(self) -> tuple[tuple[int, int], ...]:
        """(degree, coefficient) pairs in ascending degree, zeros omitted."""
        return tuple(self._coeffs.items())

    def coefficient(self, degree: int) -> int:
        return self._coeffs.get(degree, 0)

    @property
    def degree(self) -> int:
        """Degree in L; the zero polynomial reports -1."""
        return max(self._coeffs) if self._coeffs else -1

    # -- ring structure ----------------------------------------------------

    @staticmethod
    def _coerce(value: IntoPolynomial) -> "MotivicPolynomial | None":
        if isinstance(value, MotivicPolynomial):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return MotivicPolynomial.constant(value)
        return None

    def __eq__(self, other: object) -> bool:
        coerced = self._coerce(other) if isinstance(other, (MotivicPolynomial, int)) else None
        if coerced is None:
            return NotImplemented
        return self._coeffs == coerced._coeffs

    def __hash__(self) -> int:
        return hash(tuple(self._coeffs.items()))

    def __add__(self, other: IntoPolynomial) -> "MotivicPolynomial":
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        merged = dict(self._coeffs)
        for degree, coeff in coerced._coeffs.items():
            merged[degree] = merged.get(degree, 0) + coeff
        return MotivicPolynomial(merged)

    __radd__ = __add__

    def __neg__(self) -> "MotivicPolynomial":
        return MotivicPolynomial({d: -c for d, c in self._coeffs.items()})

    def __sub__(self, other: IntoPolynomial) -> "MotivicPolynomial":
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self + (-coerced)

    def __rsub__(self, other: IntoPolynomial) -> "MotivicPolynomial":
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return coerced + (-self)

    def __mul__(self, other: IntoPolynomial) -> "MotivicPolynomial":
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        prod: dict[int, int] = {}
        for d1, c1 in self._coeffs.items():
            for d2, c2 in coerced._coeffs.items():
                d = d1 + d2
                prod[d] = prod.get(d, 0) + c1 * c2
        return MotivicPolynomial(prod)

    __rmul__ = __mul__

    # -- specialization ------------------------------------------------------

    def evaluate(self, q: int) -> int:
        """Substitute q for L.  Only q >= 2 is meaningful for point counts."""
        if not isinstance(q, int) or isinstance(q, bool) or q < 2:
            raise ValueError(f"evaluation point must be an integer >= 2, got {q!r}")
        return sum(c * q**d for d, c in self._coeffs.items())

    # -- rendering and serialization -----------------------------------------

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for degree, coeff in self._coeffs.items():
            if degree == 0:
                body = str(abs(coeff))
            else:
                symbol = "L" if degree == 1 else f"L^{degree}"
                body = symbol if abs(coeff) == 1 else f"{abs(coeff)}*{symbol}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"MotivicPolynomial({self._coeffs!r})"

    def to_json(self) -> dict[str, str]:
        """Degrees and coefficients as decimal strings; zero entries omitted."""
        return {str(d): str(c) for d, c in self._coeffs.items()}


def projective_class(n: int) -> MotivicPolynomial:
    """Class of n-dimensional projective space: 1 + L + ... + L^n."""
    if n < 0:
        raise ValueError("projective space dimension must be non-negative")
    return MotivicPolynomial({d: 1 for d in range(n + 1)})


def zeta_series(m: MotivicPolynomial, order: int) -> TruncatedSeries:
    """Symmetric-power generating series of a class m = sum m_k L^k.

    Computed as the product over monomials of (1 - L^k t)^(-m_k); a
    negative m_k contributes the plain polynomial factor (1 - L^k t)^|m_k|.
    The constant term is 1, the t^1 coefficient is m, and exponent
    additivity makes the series multiplicative in m.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    result = TruncatedSeries((MotivicPolynomial.one(),) + (MotivicPolynomial.zero(),) * order)
    for degree, mult in m.items():
        result = result * _zeta_factor(degree, mult, order)
    return result


def _zeta_factor(degree: int, mult: int, order: int) -> TruncatedSeries:
    # (1 - L^degree t)^(-mult) truncated; binomial expansion either way round.
    coeffs = []
    for n in range(order + 1):
        c = comb(mult + n - 1, n) if mult > 0 else (-1) ** n * comb(-mult, n)
        coeffs.append(MotivicPolynomial.monomial(degree * n, c) if c else MotivicPolynomial.zero())
    return TruncatedSeries(tuple(coeffs))
