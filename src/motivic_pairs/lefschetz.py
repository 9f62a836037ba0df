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

Every product is a sum of products sum f*g (f*g alone, a coefficient of a
series product, a step of a ghost recurrence), and one routine takes them
all.  A large sum runs packed (Kronecker substitution): a polynomial whose
coefficients are below 2^(w-1) in absolute value is the integer
sum c_d 2^(w d), so the sum is one big-integer computation, unpacked once
into balanced base-2^w digits.  The digit width w comes from a proven bound
on the result's coefficients, so packing is exact.  Small and sparse sums
keep the dict loop, which is faster for them.

Inside `lane_memo()`, which the command line opens once per command,
zeta_series, power.config_series and power._lane_pow compute each lane
result once; the table is dropped when the block ends.  Library calls,
outside any block, are never memoized.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import sys
from array import array
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .series import TruncatedSeries


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

    # -- ring structure: operands are polynomials, no integer is coerced ------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MotivicPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(tuple(self._coeffs.items()))

    def __add__(self, other: "MotivicPolynomial") -> "MotivicPolynomial":
        if not isinstance(other, MotivicPolynomial):
            return NotImplemented
        merged = dict(self._coeffs)
        for degree, coeff in other._coeffs.items():
            merged[degree] = merged.get(degree, 0) + coeff
        return MotivicPolynomial._trusted(merged)

    def __neg__(self) -> "MotivicPolynomial":
        return MotivicPolynomial._trusted({d: -c for d, c in self._coeffs.items()})

    def __sub__(self, other: "MotivicPolynomial") -> "MotivicPolynomial":
        if not isinstance(other, MotivicPolynomial):
            return NotImplemented
        merged = dict(self._coeffs)
        for degree, coeff in other._coeffs.items():
            merged[degree] = merged.get(degree, 0) - coeff
        return MotivicPolynomial._trusted(merged)

    def __mul__(self, other: "MotivicPolynomial") -> "MotivicPolynomial":
        if not isinstance(other, MotivicPolynomial):
            return NotImplemented
        return MotivicPolynomial._trusted(_sum_of_products(((self, other),)))

    # perfbench/tests/test_bench.py checks that the tracer gives this alias
    # and __mul__ one span.
    __rmul__ = __mul__

    @classmethod
    def sum_of_products(cls, pairs: Sequence[tuple["MotivicPolynomial", "MotivicPolynomial"]]) -> "MotivicPolynomial":
        """sum f*g over the (f, g) pairs: one coefficient of a series product."""
        return cls._trusted(_sum_of_products(pairs))

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


# -- sums of products -----------------------------------------------------------
#
# _sum_of_products takes every Z[L] product here: one pair for f*g, the pairs
# a_j b_(k-j) for coefficient k of a series product, the pairs g_k a_(n-k) for
# a step of a ghost recurrence.  Its packed route reads a polynomial
# sum c_d L^d with |c_d| < 2^(w-1) as the integer sum c_d 2^(w d) in base 2^w
# with balanced digits (Kronecker substitution), so a whole sum is one sum of
# integer products, which CPython multiplies in C (Karatsuba from about 70
# 30-bit digits on).  The packed integers spend a digit on every degree up to
# the top one, terms or not, so the dict loop stays faster while a factor has
# few terms, or when both factors are sparse, as psi_r images are for large r.
# So f*g and a series coefficient pack when some pair has _PACK_TERMS terms
# in both factors and one factor has a term in at least one degree out of
# _PACK_SPREAD (_either_dense).  A ghost step packs when its newest ghost has
# _PACK_TERMS terms and it or the newest coefficient is dense (the rule for
# f*g ran series-deep power_pow slower), and its recurrence keeps one packer,
# so each coefficient is packed once per digit width.  Both constants come
# from timing the two routes on random polynomials: from 16 dense terms a
# product ran faster packed, while a product of two psi_r images of 16 to 32
# terms (one term in r degrees) ran about 2x slower packed at r = 8 and 50x
# slower at r = 128.

_PACK_TERMS = 16
_PACK_SPREAD = 4
# array typecodes of unsigned machine words, by size in bytes
_WORDS = {array(code).itemsize: code for code in "QLIHB"}


def _either_dense(f: MotivicPolynomial, g: MotivicPolynomial) -> bool:
    """Whether f or g has at least one term per _PACK_SPREAD degrees.

    O(1): _coeffs is in ascending degree order, so its last key is the degree.
    """
    return any(_PACK_SPREAD * len(c) > next(reversed(c), 0) for c in (f._coeffs, g._coeffs))


def _sum_of_products(
    pairs: Iterable[tuple[MotivicPolynomial, MotivicPolynomial]],
    lead: tuple[MotivicPolynomial, MotivicPolynomial] | None = None,
    packer: list | None = None,
) -> dict[int, int]:
    """sum f*g over the (f, g) pairs as a degree -> coefficient dict; zero entries may stay.

    A ghost step also passes lead, its newest ghost and newest coefficient,
    and packer, a list its recurrence keeps: the first packed step puts
    the packer there.
    """
    if lead is None:  # the first pair that passes the rule for f*g, if any, leads
        for f, g in pairs:
            if len(f._coeffs) >= _PACK_TERMS <= len(g._coeffs) and _either_dense(f, g):
                lead = f, g
                break
    if lead is not None and len(lead[0]._coeffs) >= _PACK_TERMS and _either_dense(*lead):
        slot = packer if packer is not None else []
        if not slot:
            slot.append(_Packer())
        return slot[0].sum_of_products(pairs)
    acc = {}
    get = acc.get
    for f, g in pairs:
        tail = g._coeffs.items()
        for d1, c1 in f._coeffs.items():
            for d2, c2 in tail:
                d = d1 + d2
                acc[d] = get(d, 0) + c1 * c2
    return acc


def _digit_width(bits: int) -> int:
    """The digit width the packing uses for a need of `bits` bits: at least that many.

    Up to 64 bits it is 8, 16, 32 or 64, so the digits convert to and from
    bytes as one array of machine words; above, a multiple of 8.
    """
    if bits <= 64:
        return max(8, 1 << (bits - 1).bit_length())
    return -(-bits // 8) * 8


def _pack(coeffs: dict[int, int], width: int) -> int:
    """The integer sum c_d 2^(width*d) for a degree -> coefficient mapping.

    width is a multiple of 8 and every |c_d| < 2^(width-1).  Each digit is
    written with the bias 2^(width-1) added, which makes it non-negative, so
    the bytes of all digits are one non-negative integer; the bias of every
    digit is then taken off in one subtraction.
    """
    size = width >> 3
    half = 1 << (width - 1)
    digits = [half] * (max(coeffs) + 1 if coeffs else 0)
    for d, c in coeffs.items():
        digits[d] += c
    if size in _WORDS:
        words = array(_WORDS[size], digits)
        if sys.byteorder == "big":
            words.byteswap()
        raw = words.tobytes()
    else:
        raw = b"".join([x.to_bytes(size, "little") for x in digits])
    return int.from_bytes(raw, "little") - int.from_bytes(half.to_bytes(size, "little") * len(digits), "little")


def _unpack(value: int, width: int, length: int) -> dict[int, int]:
    """The balanced base-2^width digits of value, zeros omitted: the inverse of _pack.

    value must be the packing of a polynomial of degree below length whose
    coefficients satisfy |c_d| < 2^(width-1); adding the bias 2^(width-1)
    to every digit makes them all non-negative, so they are plain bytes.
    """
    size = width >> 3
    half = 1 << (width - 1)
    value += int.from_bytes(half.to_bytes(size, "little") * length, "little")
    raw = value.to_bytes(size * length, "little")
    if size in _WORDS:
        digits = array(_WORDS[size], raw)
        if sys.byteorder == "big":
            digits.byteswap()
    else:
        digits = [int.from_bytes(raw[i : i + size], "little") for i in range(0, len(raw), size)]
    return {d: x - half for d, x in enumerate(digits) if x != half}


class _Packer:
    """The packed route of _sum_of_products, for one sum or one recurrence.

    It keeps each polynomial's bit size and its packed form at the current
    digit width, so a recurrence packs each coefficient once per width.
    The width only grows, so a form stays valid until the bound outgrows
    it.  A packer lives as long as the sum or recurrence that made it.
    """

    __slots__ = ("_forms", "_width")

    def __init__(self) -> None:
        # id -> [polynomial (kept alive, so the id stays its own), bits, width, packed]
        self._forms: dict[int, list] = {}
        self._width = 8

    def _form(self, p: MotivicPolynomial) -> list:
        form = self._forms.get(id(p))
        if form is None:
            bits = max(map(abs, p._coeffs.values())).bit_length()
            form = self._forms[id(p)] = [p, bits, 0, 0]
        return form

    def sum_of_products(self, pairs: Iterable[tuple[MotivicPolynomial, MotivicPolynomial]]) -> dict[int, int]:
        """sum f*g over the (f, g) pairs as a degree -> coefficient dict, zeros omitted."""
        pairs = [(self._form(f), self._form(g)) for f, g in pairs if f._coeffs and g._coeffs]
        if not pairs:
            return {}
        # Every coefficient of f*g is a sum of at most min(terms) products
        # below 2^(bits f + bits g), so a coefficient of the whole sum is
        # below 2^(top + bitlen(len(pairs) * terms)) = 2^(needed - 2) in
        # absolute value: a sign bit and a spare bit inside the digits'
        # range |c| < 2^(width - 1).
        top = max(f[1] + g[1] for f, g in pairs)
        terms = max(min(len(f[0]._coeffs), len(g[0]._coeffs)) for f, g in pairs)
        needed = top + (len(pairs) * terms).bit_length() + 2
        self._width = width = max(self._width, _digit_width(needed))
        total = 0
        for f, g in pairs:
            for form in (f, g):
                if form[2] != width:
                    form[2], form[3] = width, _pack(form[0]._coeffs, width)
            total += f[3] * g[3]
        return _unpack(total, width, max(f[0].degree + g[0].degree for f, g in pairs) + 1)


def ghost_log(coeffs: Sequence[MotivicPolynomial]) -> tuple[MotivicPolynomial, ...]:
    """Ghost coordinates g_1, ..., g_N of A = 1 + a_1 t + ... + a_N t^N.

    They are the coefficients of t A'(t) / A(t), read off with the log step
    g_n = n a_n - S_n, where S_n = sum_{k<n} g_k a_{n-k}; no division is
    needed.  The constant term coeffs[0] is taken to be 1 and is not read.
    """
    ghosts = [MotivicPolynomial._trusted({})]
    packer: list = []
    for n in range(1, len(coeffs)):
        sums = _sum_of_products(zip(ghosts[1:], coeffs[n - 1 : 0 : -1]), (ghosts[n - 1], coeffs[n - 1]), packer)
        acc = {d: n * c for d, c in coeffs[n]._coeffs.items()}
        for d, c in sums.items():
            acc[d] = acc.get(d, 0) - c
        ghosts.append(MotivicPolynomial._trusted(acc))
    return tuple(ghosts[1:])


def ghost_exp(ghosts: Sequence[MotivicPolynomial]) -> tuple[MotivicPolynomial, ...]:
    """The series 1 + a_1 t + ... + a_N t^N whose ghost coordinates are g_1, ..., g_N.

    Exp step: n a_n = g_n + S_n with the log step's S_n = sum_{k<n} g_k a_{n-k}.
    The division by n is exact for the ghosts of any series over Z[L]; a
    remainder means the ghosts belong to no such series and raises
    ArithmeticError.
    """
    coeffs = [MotivicPolynomial._trusted({0: 1})]
    packer: list = []
    for n in range(1, len(ghosts) + 1):
        acc = _sum_of_products(zip(ghosts, coeffs[n - 1 : 0 : -1]), (ghosts[n - 1], coeffs[n - 1]), packer)
        for d, c in ghosts[n - 1]._coeffs.items():
            acc[d] = acc.get(d, 0) + c
        for d, c in acc.items():
            quot, rem = divmod(c, n)
            if rem:
                raise ArithmeticError(
                    f"L^{d} t^{n} would have coefficient {c}/{n}: no series over Z[L] has these ghosts"
                )
            acc[d] = quot
        coeffs.append(MotivicPolynomial._trusted(acc))
    return tuple(coeffs)


# -- the lane memo ---------------------------------------------------------------------
#
# Results are shared between callers, which is safe because nothing changes a
# polynomial's _coeffs, or a series' coefficient tuple, once built.

_MEMO: contextvars.ContextVar[dict | None] = contextvars.ContextVar("lane_memo", default=None)


@contextlib.contextmanager
def lane_memo() -> Iterator[None]:
    """Compute each lane routine's result once per distinct arguments until the block ends, however it ends."""
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def _lane_memoized(routine: Callable) -> Callable:
    # keyed on (routine, *args): the arguments are polynomials, ints and
    # tuples of polynomials, hashed and compared by value; the command line
    # passes none by keyword, so a keyword call simply runs
    @functools.wraps(routine)
    def call(*args, **kwargs):
        memo = _MEMO.get()
        if memo is None or kwargs:
            return routine(*args, **kwargs)
        key = (routine, *args)
        if key not in memo:
            memo[key] = routine(*args)
        return memo[key]

    return call


@_lane_memoized
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
