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

Series with constant term 1 are also handled in ghost coordinates, the
coefficients of t A'(t) / A(t): exact integer log and exp recurrences move
between a series and its ghosts, and the Adams operations psi_r (L to L^r)
are the ghosts of a zeta series.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Union

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

    @classmethod
    def _trusted(cls, coeffs: dict[int, int]) -> "MotivicPolynomial":
        # For results built in this module (ring operations, Adams
        # operations, ghost recurrences), whose degrees and coefficients are
        # ints by construction: skips the per-term checks of __init__, but
        # still sorts by degree and drops zeros, so results stay canonical.
        poly = object.__new__(cls)
        poly._coeffs = {d: c for d, c in sorted(coeffs.items()) if c}
        return poly

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
        return MotivicPolynomial._trusted(merged)

    __radd__ = __add__

    def __neg__(self) -> "MotivicPolynomial":
        return MotivicPolynomial._trusted({d: -c for d, c in self._coeffs.items()})

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
        return MotivicPolynomial._trusted(prod)

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


def adams(m: MotivicPolynomial, r: int) -> MotivicPolynomial:
    """The Adams operation psi_r: L^k goes to L^(k*r), coefficients stay.

    It is a ring homomorphism that only re-indexes degrees.
    """
    if r < 1:
        raise ValueError(f"Adams operations are indexed from 1, got {r!r}")
    return MotivicPolynomial._trusted({d * r: c for d, c in m._coeffs.items()})


def ghost_log(coeffs: Sequence[MotivicPolynomial]) -> tuple[MotivicPolynomial, ...]:
    """Ghost coordinates g_1, ..., g_N of A = 1 + a_1 t + ... + a_N t^N.

    They are the coefficients of t A'(t) / A(t), read off with the log step
    g_n = n a_n - sum_{k<n} g_k a_{n-k}; no division is needed.  The
    constant term coeffs[0] is taken to be 1 and is not read.
    """
    ghosts = [MotivicPolynomial._trusted({})]
    for n in range(1, len(coeffs)):
        acc = {d: n * c for d, c in coeffs[n]._coeffs.items()}
        get = acc.get
        for k in range(1, n):
            tail = coeffs[n - k]._coeffs.items()
            for d1, c1 in ghosts[k]._coeffs.items():
                for d2, c2 in tail:
                    d = d1 + d2
                    acc[d] = get(d, 0) - c1 * c2
        ghosts.append(MotivicPolynomial._trusted(acc))
    return tuple(ghosts[1:])


def ghost_exp(ghosts: Sequence[MotivicPolynomial]) -> tuple[MotivicPolynomial, ...]:
    """The series 1 + a_1 t + ... + a_N t^N whose ghost coordinates are g_1, ..., g_N.

    Exp step: n a_n = sum_{k=1..n} g_k a_{n-k}.  The division by n is
    exact for the ghosts of any series over Z[L]; a remainder means the
    ghosts belong to no such series and raises ArithmeticError.
    """
    coeffs = [MotivicPolynomial._trusted({0: 1})]
    for n in range(1, len(ghosts) + 1):
        acc: dict[int, int] = {}
        get = acc.get
        for k in range(1, n + 1):
            tail = coeffs[n - k]._coeffs.items()
            for d1, c1 in ghosts[k - 1]._coeffs.items():
                for d2, c2 in tail:
                    d = d1 + d2
                    acc[d] = get(d, 0) + c1 * c2
        if n > 1:
            for d, c in acc.items():
                quot, rem = divmod(c, n)
                if rem:
                    raise ArithmeticError(
                        f"L^{d} t^{n} would have coefficient {c}/{n}: no series over Z[L] has these ghosts"
                    )
                acc[d] = quot
        coeffs.append(MotivicPolynomial._trusted(acc))
    return tuple(coeffs)


def zeta_series(m: MotivicPolynomial, order: int) -> TruncatedSeries:
    """Symmetric-power generating series of a class m = sum m_k L^k.

    zeta_m(t) = exp(sum_r psi_r(m) t^r / r), so its ghost coordinates are
    the Adams operations psi_1(m), ..., psi_N(m) and one exp recurrence
    builds it.  The constant term is 1, the t^1 coefficient is m, and the
    series is multiplicative in m: a monomial L^k with multiplicity c
    contributes the factor (1 - L^k t)^(-c).
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    return TruncatedSeries(ghost_exp([adams(m, r) for r in range(1, order + 1)]))
