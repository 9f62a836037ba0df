"""Polynomials in the Lefschetz class L with big-integer coefficients.

L stands for the class of the affine line.  Every space this engine
handles (projective spaces, marked affine and projective lines, finite
sets, complements of general-position hyperplane unions) has a class that
is a Z-polynomial in L, so this ring is the computable target for all
class computations.  Differences of classes are first-class citizens:
coefficients may be negative.

Representation: a sparse mapping degree -> coefficient in ascending
degree holding no zero entries, so two values are equal exactly when
their mappings are equal.  All arithmetic is exact integer arithmetic.
Results built in this module are wrapped by `MotivicPolynomial._trusted`,
which takes over a fresh dict that is already in that form (ascending,
zero-free) and neither sorts, filters nor copies it: a dict loop that
builds a result in scatter order passes it through `_terms` first, while
an unpacked result, an Adams image or a negation is canonical as built.

Evaluating a polynomial at an integer q >= 2 (substituting q for L) turns
a class into a point count over the q-element field, which is what the
brute-force counting oracles compare against.

Series with constant term 1 are also handled in ghost coordinates, the
coefficients of t A'(t) / A(t): exact integer log and exp recurrences move
between a series and its ghosts, and the Adams operations psi_r (L to L^r)
are the ghosts of a zeta series.

Every product is a sum of products sum f*g: f*g alone, a coefficient of a
series product or division, a step of a ghost recurrence.  Z[L] products
are made in four kernels: the dict loop (_dict_sum), a packed series
product (_packed_series), a packed recurrence step (_PackedRecurrence.step)
and zeta's product route (_zeta_product).  Packing is Kronecker
substitution: a polynomial whose coefficients are below 2^(w-1) in
absolute value is the integer sum c_d 2^(w d), so a sum is one big-integer
computation, unpacked once into balanced base-2^w digits.  The digit
width w comes from one proven bound on the result's coefficients, _bound:
|f g|_inf <= min(|f|_inf |g|_1, |f|_1 |g|_inf), summed over the pairs, so
packing is exact.  A series product decides once, by one predicate on its
factors' term counts and degrees (_packs_series): either it packs every
coefficient of both factors once, at one width, and makes each
coefficient of the product as one sum of packed products
(_packed_series), or each coefficient is one dict-loop sum, as each
coefficient of a series division is.  f*g is the series product of one
pair: it packs when both factors have _PACK_TERMS terms and one is dense
(_either_dense); small and sparse factors keep the dict loop, which is
faster for them.  The log and exp recurrences are
one routine, _recurrence.  It starts packing at the first step where a running cost
estimate, one predicate (_packs) on sums of term counts and degrees that
it keeps in O(1) a step and on the size of its newest coefficients, finds
the dict step dearer than a packed one; from there on it keeps both of its
sequences packed, so each step is one C-level sum of big-integer products
that packs the polynomial it reads and unpacks the one it makes.  Its digit width is decided once, by _bound
run over the recurrence on norms, and holds every step left (see
_PackedRecurrence).

A zeta series has two routes.  The ghost route is one exp recurrence over
the psi_r images of the class.  The product route multiplies the factors
(1 - L^k t)^(-m_k) into packed coefficients by shift-adds, |m_k| passes
of N shift-adds per term at order N.  Zeta takes the product route when
the class is dense, no |m_k| exceeds N and sum |m_k| <= _ZETA_PASSES * N,
the classes on which it was timed no slower (see _ZETA_PASSES).  The
product route's width is exact for the same reason as above: packing is
evaluation at L = 2^w, a ring homomorphism, and with M = sum |m_k| no
coefficient of the result exceeds C(N+M, N), the L1 bound of _bound in
closed form.  The route rule is one predicate, _product_route, and
power.config_series routes each lane by it too: on the ghost route the
configuration series is one exp recurrence over the summed ghosts of its
two zeta factors, so it makes no second zeta and no series multiply.

Inside `lane_memo()`, which the command line opens once per command,
zeta_series, power.config_series and power._lane_pow compute each lane
result once; the table is dropped when the block ends.  Library calls,
outside any block, are never memoized.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import struct
from itertools import chain, compress
from math import comb, inf
from operator import mul
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .series import TruncatedSeries


class MotivicPolynomial:
    """Exact polynomial in the symbol L over arbitrary-precision integers."""

    __slots__ = ("_coeffs", "_hash")

    def __init__(self, coeffs: Mapping[int, int]) -> None:
        for degree, coeff in coeffs.items():
            if not isinstance(degree, int) or isinstance(degree, bool) or degree < 0:
                raise ValueError(f"degree must be a non-negative integer, got {degree!r}")
            if not isinstance(coeff, int) or isinstance(coeff, bool):
                raise ValueError(f"coefficient must be an integer, got {coeff!r}")
        self._coeffs = _terms(coeffs)

    @classmethod
    def _trusted(cls, coeffs: dict[int, int]) -> "MotivicPolynomial":
        """The polynomial whose terms are coeffs, taken over as they are.

        For results built in this module (ring operations, Adams operations,
        ghost recurrences, projective classes), whose degrees and
        coefficients are ints by construction.  coeffs must be canonical, in ascending degree with no
        zero coefficient, and a fresh dict that no caller holds or changes
        later: it is neither checked, sorted, filtered nor copied.
        """
        poly = object.__new__(cls)
        poly._coeffs = coeffs
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
        return next(reversed(self._coeffs), -1)

    # -- ring structure: operands are polynomials, no integer is coerced ------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MotivicPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        # computed on first use and kept: _coeffs never changes once built
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(tuple(self._coeffs.items()))
            return self._hash

    def __add__(self, other: "MotivicPolynomial") -> "MotivicPolynomial":
        if not isinstance(other, MotivicPolynomial):
            return NotImplemented
        merged = dict(self._coeffs)
        for degree, coeff in other._coeffs.items():
            merged[degree] = merged.get(degree, 0) + coeff
        if len(merged) == len(self._coeffs):
            # other brought no new degree, so merged keeps self's ascending order
            return MotivicPolynomial._trusted({d: c for d, c in merged.items() if c})
        return MotivicPolynomial._trusted(_terms(merged))

    def __neg__(self) -> "MotivicPolynomial":
        return MotivicPolynomial._trusted({d: -c for d, c in self._coeffs.items()})

    def __sub__(self, other: "MotivicPolynomial") -> "MotivicPolynomial":
        if not isinstance(other, MotivicPolynomial):
            return NotImplemented
        return self + -other

    def __mul__(self, other: "MotivicPolynomial") -> "MotivicPolynomial":
        if not isinstance(other, MotivicPolynomial):
            return NotImplemented
        if len(self._coeffs) >= _PACK_TERMS <= len(other._coeffs) and _either_dense(self, other):
            return _packed_series((self,), (other,))[0]
        return MotivicPolynomial.sum_of_products(((self, other),))

    # perfbench/tests/test_bench.py checks that the tracer gives this alias
    # and __mul__ one span.
    __rmul__ = __mul__

    @classmethod
    def sum_of_products(cls, pairs: Iterable[tuple["MotivicPolynomial", "MotivicPolynomial"]]) -> "MotivicPolynomial":
        """sum f*g over the (f, g) pairs by the dict loop, as a series division takes each coefficient."""
        return cls._trusted(_terms(_dict_sum(pairs)))

    @classmethod
    def series_product(
        cls, a: Sequence["MotivicPolynomial"], b: Sequence["MotivicPolynomial"]
    ) -> tuple["MotivicPolynomial", ...]:
        """The coefficients sum_j a_j b_(k-j) of a series product, k below the shorter window's length.

        One predicate on the factors' sizes (_packs_series) decides for the
        whole product: either each factor is packed once (_packed_series),
        or each coefficient is one dict-loop sum (sum_of_products).
        """
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        if _packs_series(a, b):
            return _packed_series(a, b)
        return tuple([cls.sum_of_products(zip(a, b[k::-1])) for k in range(n)])

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


def _terms(acc: Mapping[int, int]) -> dict[int, int]:
    """The canonical terms of a degree -> coefficient mapping: ascending degree, zeros dropped, a fresh dict."""
    return {d: c for d, c in sorted(acc.items()) if c}


def projective_class(n: int) -> MotivicPolynomial:
    """Class of n-dimensional projective space: 1 + L + ... + L^n."""
    if n < 0:
        raise ValueError("projective space dimension must be non-negative")
    return MotivicPolynomial._trusted({d: 1 for d in range(n + 1)})


def adams(m: MotivicPolynomial, r: int) -> MotivicPolynomial:
    """The Adams operation psi_r: L^k goes to L^(k*r), coefficients stay.

    It is a ring homomorphism that only re-indexes degrees, and for r >= 1
    it keeps their order, so the image is canonical as built.
    """
    if r < 1:
        raise ValueError(f"Adams operations are indexed from 1, got {r!r}")
    return MotivicPolynomial._trusted({d * r: c for d, c in m._coeffs.items()})


# -- sums of products -----------------------------------------------------------
#
# Every Z[L] product here is a sum of products sum f*g: one pair for f*g, the
# pairs a_j b_(k-j) for coefficient k of a series product or a series
# division, the pairs g_k a_(n-k) for a step of a ghost recurrence.  Four
# kernels make them: _dict_sum, _packed_series, _PackedRecurrence.step and
# _zeta_product.  The packed route reads a polynomial sum c_d L^d with
# |c_d| < 2^(w-1) as the integer sum c_d 2^(w d) in base 2^w with balanced
# digits (Kronecker substitution), so a whole sum is one sum of integer
# products, which CPython multiplies in C (Karatsuba from about 70 30-bit
# digits on).  The packed integers spend a digit on every degree up to the
# top one, terms or not, so the dict loop stays faster while a factor has
# few terms, or when both factors are sparse, as psi_r images are for large
# r.  So f*g runs as the packed series product of the windows (f) and (g)
# when both factors have _PACK_TERMS terms and one has a term in at least
# one degree out of _PACK_SPREAD (_either_dense), and on the dict loop
# otherwise.  Both constants come from timing the two routes on random
# polynomials: from 16 dense terms a product ran faster packed, while a
# product of two psi_r images of 16 to 32 terms (one term in r degrees) ran
# about 2x slower packed at r = 8 and 50x slower at r = 128.  A series
# product as a whole does not use this rule: it packs each a_j and b_j once,
# for all the coefficients that read it, when its factors' summed term
# counts outweigh their number and their summed degrees (_packs_series),
# and otherwise takes each coefficient, as a series division does, by the
# dict loop (MotivicPolynomial.sum_of_products).  Nor does a ghost
# recurrence: it weighs term counts against degrees and digit widths of all
# the pairs a step sums (_packs, below).
#
# Every packed width is _digit_width of one bound, _bound, on the norms
# |p|_inf (largest |c|) and |p|_1 (sum of |c|) of the factors: a packed
# series product, f*g among them, reads them off its two windows, each read
# as one whole; a packed recurrence predicts them for all of its steps at
# once and keeps that one width.  Only zeta's product route (_zeta_product)
# uses the same L1 bound in closed form.

_PACK_TERMS = 16
_PACK_SPREAD = 4
# struct codes of signed little-endian machine words, by size in bytes
_WORDS = {1: "b", 2: "h", 4: "i", 8: "q"}


def _either_dense(*polys: MotivicPolynomial) -> bool:
    """Whether one of polys has at least one term per _PACK_SPREAD degrees; zero has none.

    O(1) each: _coeffs is in ascending degree order, so its last key is the degree.
    """
    return any(_PACK_SPREAD * len(f._coeffs) > next(reversed(f._coeffs), 0) for f in polys)


def _top(coeffs: Mapping[int, int]) -> int:
    """The largest |c|, 0 for no terms."""
    return max(map(abs, coeffs.values()), default=0)


def _norms(polys: Sequence[Mapping[int, int]]) -> tuple[list[int], list[int]]:
    """|p|_inf and |p|_1 of each degree -> coefficient mapping p: its largest |c| and its sum of |c|."""
    sizes = [list(map(abs, p.values())) for p in polys]
    return [max(s, default=0) for s in sizes], list(map(sum, sizes))


def _bound(tops_f: Sequence, ones_f: Sequence, tops_g: Sequence, ones_g: Sequence, log: bool | None = None) -> int:
    """A bound on every |c| of sum f*g, from the norms of the pairs' factors.

    A coefficient of f*g takes each coefficient of g at most once, times a
    coefficient of f, so |fg|_inf <= |f|_inf |g|_1, and likewise
    |fg|_inf <= |f|_1 |g|_inf; the sum is bounded by the sum of the lesser
    of the two over the pairs.

    With log given, the lists are instead the norms of the ghosts g_0, g_1,
    ... (f) and coefficients a_0, a_1, ... (g) of the log (log true) or exp
    recurrence: those of the sequence it reads whole, those of the one it
    makes up to the step that runs next.  The result bounds every
    coefficient of every step left (of k a_k - S_k, of g_k + S_k), the
    recurrence run on norms: the same bound on each step's pairs, and
    |fg|_1 <= |f|_1 |g|_1 for the norms of what the step makes.  It is
    one loop over the lists, which for the short sums of a recurrence
    costs less than a slice and a map per sum.
    """
    if log is None:
        return sum(map(min, map(mul, tops_f, ones_g), map(mul, ones_f, tops_g)))
    norms = [list(tops_f), list(ones_f)], [list(tops_g), list(ones_g)]
    (g_top, g_one), (a_top, a_one) = norms  # of the ghosts and of the coefficients
    tops, ones = norms[not log]
    bound = 0
    for k in range(len(tops), len(norms[log][0])):
        top = one = 0
        for j in range(1, k):
            g1, a1 = g_one[j], a_one[k - j]  # |g_j|_1, |a_(k-j)|_1
            x, y = g_top[j] * a1, g1 * a_top[k - j]
            top += x if x < y else y
            one += g1 * a1
        if log:
            top += k * a_top[k]
            tops.append(top)
            ones.append(one + k * a_one[k])
        else:
            top += g_top[k]
            tops.append(top // k)
            ones.append((one + g_one[k]) // k)
        if top > bound:
            bound = top
    return bound


def _dict_sum(pairs: Iterable[tuple[MotivicPolynomial, MotivicPolynomial]]) -> dict[int, int]:
    """sum f*g one term product at a time, in scatter order; zero entries may stay."""
    acc = {}
    get = acc.get
    for f, g in pairs:
        tail = g._coeffs.items()
        for d1, c1 in f._coeffs.items():
            for d2, c2 in tail:
                d = d1 + d2
                acc[d] = get(d, 0) + c1 * c2
    return acc


# The series rule's constants were fitted by timing both routes on every
# series multiply of verify --suite all at orders 8, 12 and 16 and on a
# random grid of 3000 products (window length 1 to 20, 1 to 32 terms per
# coefficient, dense or spread over up to 16 degrees a term, 2 to 100-bit
# coefficients, some zero), and confirmed on 3000 more from another seed
# (BENCH_26.json).  Without the area term the grid ran 1.38x the
# per-coefficient route, its sparse and wide products packing at a loss;
# with it, 0.73x, and no suite's multiplies ran slower.  A fixed cost of 2
# to 16 term products per pair read within 2% of 8 on the grid; below 2,
# the constant lanes of power-axioms and identities packed at a loss.

_SERIES_FIXED = 8
_SERIES_AREA = 0.05


def _packs_series(a: Sequence[MotivicPolynomial], b: Sequence[MotivicPolynomial]) -> bool:
    """Whether a series product of the windows a and b, of one length n, packs its factors.

    work and area multiply the sums, over a and over b, of the term counts
    and of the packed lengths (degree + 1), as _packs reads a recurrence.
    It packs once work >= _SERIES_FIXED n^2 + _SERIES_AREA area: on
    average _SERIES_FIXED term products per coefficient pair, while the
    digits packing spends on empty degrees stay few.
    """
    n = len(a)
    terms_a = terms_b = size_a = size_b = 0
    for f, g in zip(a, b):
        f, g = f._coeffs, g._coeffs
        terms_a += len(f)
        terms_b += len(g)
        size_a += next(reversed(f), -1) + 1
        size_b += next(reversed(g), -1) + 1
    return terms_a * terms_b >= _SERIES_FIXED * n * n + _SERIES_AREA * size_a * size_b


def _packed_series(a: Sequence[MotivicPolynomial], b: Sequence[MotivicPolynomial]) -> tuple[MotivicPolynomial, ...]:
    """The coefficients sum_j a_j b_(k-j), k < len(a) = len(b), with every factor packed once at one width.

    The width comes from _bound of one pair, the windows read as wholes:
    the largest |c| of any a_j and the sum of every |a_j|_1, and the same
    of b.  Every pair a_j b_(k-j) of coefficient k has its own term of
    _bound at most |a_j|_inf |b_(k-j)|_1 (or |a_j|_1 |b_(k-j)|_inf), so
    the sum over j is at most max_j |a_j|_inf sum_i |b_i|_1 (or the other
    way round) for every k.  The width also holds the largest |c| of every
    factor, which packs even where its partners are zero: the bound covers
    it unless a window is all zero, and then the maximum does.
    """
    sizes_a = list(map(abs, chain.from_iterable([f._coeffs.values() for f in a])))
    sizes_b = list(map(abs, chain.from_iterable([g._coeffs.values() for g in b])))
    top_a, top_b = max(sizes_a, default=0), max(sizes_b, default=0)
    width = _digit_width(max(_bound([top_a], [sum(sizes_a)], [top_b], [sum(sizes_b)]), top_a, top_b))
    ints_a, ints_b = [_pack(f._coeffs, width) for f in a], [_pack(g._coeffs, width) for g in b]
    return tuple(
        [
            MotivicPolynomial._trusted(_unpack(sum(map(mul, ints_a[: k + 1], ints_b[k::-1])), width))
            for k in range(len(a))
        ]
    )


def _digit_width(bound: int) -> int:
    """The digit width w the packing uses for coefficients |c| <= bound: bound < 2^(w-1).

    Up to 64 bits it is 8, 16, 32 or 64, so the digits convert to and from
    bytes as one run of machine words; above, a multiple of 8.
    """
    bits = bound.bit_length() + 1
    if bits <= 64:
        return max(8, 1 << (bits - 1).bit_length())
    return -(-bits // 8) * 8


def _pack(coeffs: dict[int, int], width: int) -> int:
    """The integer sum c_d 2^(width*d) for a degree -> coefficient mapping in ascending degree.

    width is a multiple of 8 and every |c_d| < 2^(width-1), so each digit
    is one signed width-bit word: a dense mapping is read as its values, a
    sparse one is scattered into zeroed digits, and up to 64 bits one
    struct.pack writes them all.  Their two's-complement bytes read as one
    unsigned integer U; XOR with the bias B, which has 2^(width-1) in every
    digit, turns each digit into c_d + 2^(width-1), which is non-negative,
    so (U ^ B) - B is the sum.
    """
    size, length = width >> 3, next(reversed(coeffs), -1) + 1
    digits = coeffs.values()
    if len(coeffs) < length:
        digits = [0] * length
        for d, c in coeffs.items():
            digits[d] = c
    if size in _WORDS:
        raw = struct.pack(f"<{length}{_WORDS[size]}", *digits)
    else:
        raw = b"".join([c.to_bytes(size, "little", signed=True) for c in digits])
    bias = int.from_bytes((1 << (width - 1)).to_bytes(size, "little") * length, "little")
    return (int.from_bytes(raw, "little") ^ bias) - bias


def _unpack(value: int, width: int) -> dict[int, int]:
    """The balanced base-2^width digits of value, zeros omitted, in ascending degree: the inverse of _pack.

    Every integer has them, each digit in -2^(width-1) <= c < 2^(width-1);
    one digit more than |value| has bits, counted in digits, holds them
    all.  With the bias B (2^(width-1) in every digit) added, each digit
    is c + 2^(width-1), non-negative; XOR with B then leaves each digit's
    two's-complement bits, so the bytes read as signed width-bit words
    (up to 64 bits, in one struct.unpack).
    """
    size = width >> 3
    length = abs(value).bit_length() // width + 2
    bias = int.from_bytes((1 << (width - 1)).to_bytes(size, "little") * length, "little")
    raw = ((value + bias) ^ bias).to_bytes(size * length, "little")
    if size in _WORDS:
        digits = struct.unpack(f"<{length}{_WORDS[size]}", raw)
    else:
        digits = [int.from_bytes(raw[i : i + size], "little", signed=True) for i in range(0, len(raw), size)]
    return dict(compress(enumerate(digits), digits))


# -- ghost recurrences ------------------------------------------------------------------
#
# Both recurrences run over g_0 = 0, g_1, g_2, ... and a_0 = 1, a_1, a_2, ...:
# step n forms S_n = sum_{0<k<n} g_k a_{n-k}; the log step reads a_n and makes
# g_n = n a_n - S_n, the exp step reads g_n and makes a_n = (g_n + S_n) / n.
# Step 1 sums nothing and divides by 1, so a_1 = g_1.  From step 2 on, a
# recurrence runs the dict loop until _packs, reading running sums of the
# term counts and packed lengths of both sequences and the largest |c| of
# the newest polynomial made, finds a packed step cheaper, and packed from
# there on; a recurrence that reads few terms in all never packs and keeps
# no sums.  When it starts packing, _bound runs it on norms to bound every
# step left, which fixes the digit width for every step, so a step only
# packs, multiplies and unpacks (see _PackedRecurrence).


def ghost_log(coeffs: Sequence[MotivicPolynomial]) -> tuple[MotivicPolynomial, ...]:
    """Ghost coordinates g_1, ..., g_N of A = 1 + a_1 t + ... + a_N t^N.

    They are the coefficients of t A'(t) / A(t), read off with the log step
    g_n = n a_n - S_n, where S_n = sum_{k<n} g_k a_{n-k}; no division is
    needed.  The constant term coeffs[0] is taken to be 1 and is not read.
    """
    return tuple(_recurrence(coeffs, True)[1:])


def ghost_exp(ghosts: Sequence[MotivicPolynomial]) -> tuple[MotivicPolynomial, ...]:
    """The series 1 + a_1 t + ... + a_N t^N whose ghost coordinates are g_1, ..., g_N.

    Exp step: n a_n = g_n + S_n with the log step's S_n = sum_{k<n} g_k a_{n-k}.
    The division by n is exact for the ghosts of any series over Z[L]; a
    remainder means the ghosts belong to no such series and raises
    ArithmeticError, naming the lowest L-degree that n does not divide.
    """
    return tuple(_recurrence(ghosts, False))


def _recurrence(read: Sequence[MotivicPolynomial], log: bool) -> list[MotivicPolynomial]:
    """The sequence the log (log true) or exp recurrence makes from `read`, from its 0th term on.

    The log recurrence reads coefficients a_0, a_1, ... and makes ghosts,
    the exp recurrence reads ghosts g_1, g_2, ... and makes coefficients.
    From step 2 on, as long as _packs may still say to pack, it keeps what
    the rule reads at step n: the running sums over g_1..g_(n-1) and over
    a_1..a_(n-1), and the largest |c| of the newest polynomial made.
    """
    zero = MotivicPolynomial._trusted({})
    ghosts, coeffs = seqs = ([zero], read) if log else ([zero, *read], [MotivicPolynomial._trusted({0: 1})])
    made, read = seqs[not log], seqs[log]
    made += read[1:2]  # step 1 sums no product and divides by 1: a_1 = g_1
    read_terms = sum([len(p._coeffs) for p in read])
    asking = _packs(read_terms, 0, inf, 0, 0)
    # the term counts and packed lengths (degree + 1) of g_1..g_(n-1) and of a_1..a_(n-1)
    terms_g = terms_a = size_g = size_a = 0
    for n in range(2, len(read)):
        if asking:
            g, a = ghosts[n - 1]._coeffs, coeffs[n - 1]._coeffs
            terms_g += len(g)
            terms_a += len(a)
            size_g += next(reversed(g), -1) + 1
            size_a += next(reversed(a), -1) + 1
            if _packs(read_terms, n - 1, terms_g * terms_a, size_g * size_a, _top(made[n - 1]._coeffs)):
                packed = _PackedRecurrence(seqs, log, n)
                for k in range(n, len(read)):
                    made.append(packed.step(k))
                return made
        sums = _dict_sum(zip(ghosts[1:n], coeffs[n - 1 : 0 : -1]))
        if log:
            acc = {d: n * c for d, c in coeffs[n]._coeffs.items()}
            for d, c in sums.items():
                acc[d] = acc.get(d, 0) - c
        else:
            acc = sums
            for d, c in ghosts[n]._coeffs.items():
                acc[d] = acc.get(d, 0) + c
            quot = {}
            for d, c in acc.items():
                quot[d], rem = divmod(c, n)
                if rem:
                    raise _non_integral(acc, n)
            acc = quot
        made.append(MotivicPolynomial._trusted(_terms(acc)))
    return made


# The rule's constants were fitted by timing recurrences packed from each
# of their steps, and on the dict loop throughout, on a random grid of
# 269 recurrences at N = 3 to 20 (log, exp, zeta's psi_r images and
# power_pow's, 1 to 32 terms, dense or sparse, coefficients of 1 to 40
# bits), and confirmed on 289 more drawn from other seeds (BENCH_25.json):
# on those, 0.77 s of recurrences under the 16-term rule ran in 0.52 s,
# against 0.43 s had each taken its best step.  The width guess reads the
# largest |c| of the newest polynomial, not its top-degree one: on a class
# of 18 terms near 10^30 with 3 on top, the top one guessed narrow digits,
# and zeta at N = 12 packed and took 6.1 s against 0.31 s.

_PACK_READ = 24
_PACK_FIXED = 16
_PACK_AREA = 0.03


def _packs(read_terms: int, pairs: int, work: float, area: int, top: int) -> bool:
    """Whether a ghost recurrence packs from step n = pairs + 1 on, from sizes it keeps as it goes.

    Step n sums the n - 1 products g_k a_(n-k).  work and area multiply
    the sums, over g_1..g_(n-1) and over a_1..a_(n-1), of the term counts
    and of the packed lengths (degree + 1): so work / pairs estimates the
    term products of a dict step, area / pairs the digit pairs that a
    packed step multiplies.  Those digits are about w = 6 + the bit length
    of top wide, top being the largest |c| of the newest polynomial the
    recurrence made, as coefficients grow from step to step.  It packs
    once work / pairs >= _PACK_FIXED + _PACK_AREA (w / 16)^2 area / pairs.
    A recurrence whose read sequence holds fewer than _PACK_READ terms in
    all never packs; asked with no pairs and unbounded work, the rule
    says whether any step may, so such a recurrence keeps no sums.
    """
    width = top.bit_length() + 6
    return read_terms >= _PACK_READ and work >= _PACK_FIXED * pairs + _PACK_AREA * area * (width / 16) ** 2


def _non_integral(acc: dict[int, int], n: int) -> ArithmeticError:
    # the error of an exp step whose n a_n = acc has a coefficient that n
    # does not divide, at the lowest such L-degree
    d = min(d for d, c in acc.items() if c % n)
    return ArithmeticError(f"L^{d} t^{n} would have coefficient {acc[d]}/{n}: no series over Z[L] has these ghosts")


class _PackedRecurrence:
    """A ghost recurrence from the step _packs chose on.

    seqs are its ghosts g_0 = 0, g_1, ... and coefficients a_0 = 1, a_1, ...;
    seqs[log] is the sequence it reads, whole from the start, and
    seqs[not log] the one it makes, one more at each step.  ints holds, for
    both, each polynomial's packed form up to the step that ran last.  A
    step is one C-level sum of big-integer products: it packs the
    polynomial it reads and unpacks the one it makes.

    The digit width is taken once, from _bound's run of the recurrence on
    norms, which bounds every step left, and never changes, inside a
    machine word or above one.  Above a word the prediction runs wider
    than the steps' own bounds, so long recurrences pay for wider
    products: on series-deep-shaped power_pow this width measured 1.14x
    to 1.28x the time of re-bounding each step and widening the packed
    forms as they grew at N = 48 and 64, against 0.82x to 1.05x at
    N = 16 to 32 (min of repeats, three runs).  No workload runs a
    recurrence past N = 20.
    """

    __slots__ = ("seqs", "log", "width", "ints")

    def __init__(self, seqs: tuple[list, Sequence], log: bool, n: int) -> None:
        self.seqs, self.log = seqs, log
        norms = (top_g, _), (top_a, _) = [_norms([p._coeffs for p in seq]) for seq in seqs]
        # The width is at least the largest |c| of the polynomials the first
        # step packs: one whose partners in S_n are all zero adds nothing to
        # a bound.
        width = _digit_width(max(_bound(*norms[0], *norms[1], log), *top_g[: n + 1], *top_a[: n + 1]))
        self.width, self.ints = width, tuple([_pack(p._coeffs, width) for p in seq[:n]] for seq in seqs)

    def step(self, n: int) -> MotivicPolynomial:
        """The polynomial that step n makes, at the recurrence's one width."""
        log, width, ints = self.log, self.width, self.ints
        ints[log].append(_pack(self.seqs[log][n]._coeffs, width))
        ints_g, ints_a = ints
        total = sum(map(mul, ints_g[1:n], ints_a[n - 1 : 0 : -1]))
        if log:
            packed = n * ints_a[n] - total
        else:
            total += ints_g[n]
            packed, rem = divmod(total, n)
        made = MotivicPolynomial._trusted(_unpack(packed, width))
        # In the exp step n a_n = total has digits below 2^(width-1) in
        # absolute value.  All are divisible by n exactly when n divides total
        # and every balanced digit q of the quotient has |n q| < 2^(width-1),
        # as balanced digits are unique.
        if not log and (rem or n * _top(made._coeffs) >> (width - 1)):
            raise _non_integral(_unpack(total, width), n)
        ints[not log].append(packed)
        return made


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


# The product route costs N sum |m_k| shift-adds of packed integers, the
# ghost route N(N+1)/2 recurrence steps.  The product route runs on a class
# that is dense (the _PACK_SPREAD rule of the packed products), has no |m_k|
# above N, and has sum |m_k| <= _ZETA_PASSES * N.  Timed against the ghost
# route on 255 (class, N) cases at N = 3 to 23 on 2 vCPUs (min of repeats),
# each of the 130 cases inside the rule ran at most 1.07x the ghost route's
# time, and down to 0.02x.  Each condition is conservative, and the cases
# that fail only it show why it is there: sparse one-term classes (L^32,
# L^64) ran up to 3.0x, constants above N up to 8.7x (a term costs |m_k|
# passes), and 3 P^200 at N = 3 (sum |m_k| = 201 N) 2.0x.  Taking a factor
# with |m_k| > N by its binomial series in one pass instead ran 1.1x to 10x
# on coefficients above N (P^22 x P^32 at N = 3, random ones up to 10^30).

_ZETA_PASSES = 32


@_lane_memoized
def zeta_series(m: MotivicPolynomial, order: int) -> TruncatedSeries:
    """Symmetric-power generating series of a class m = sum m_k L^k.

    The constant term is 1, the t^1 coefficient is m, and the series is
    multiplicative in m: zeta_m(t) = prod_k (1 - L^k t)^(-m_k).  A dense
    class with every |m_k| <= N and sum |m_k| <= _ZETA_PASSES * N
    (_product_route) takes that product on packed integers (_zeta_product).
    Every other class takes the ghost route:
    zeta_m(t) = exp(sum_r psi_r(m) t^r / r), so its ghost coordinates are
    the Adams operations psi_1(m), ..., psi_N(m) and one exp recurrence
    builds it.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    if _product_route(m, order):
        return TruncatedSeries(_zeta_product(m, order))
    return TruncatedSeries(ghost_exp([adams(m, r) for r in range(1, order + 1)]))


def _product_route(m: MotivicPolynomial, order: int) -> bool:
    """Whether zeta_series(m, order) takes the product route, the one rule for zeta and config.

    It does when m is dense, no |m_k| exceeds the order and
    sum |m_k| <= _ZETA_PASSES * order.  The zero class is not dense, and
    at order 0 no other class passes, so both take the ghost route.
    """
    # each term adds at least 1 to sum |m_k|, so the term count rejects large classes without a scan
    passes, sizes = _ZETA_PASSES * order, m._coeffs.values()
    return _either_dense(m) and len(sizes) <= passes and _top(m._coeffs) <= order and sum(map(abs, sizes)) <= passes


def _zeta_product(m: MotivicPolynomial, order: int) -> tuple[MotivicPolynomial, ...]:
    """The coefficients 1, a_1, ..., a_N of prod_k (1 - L^k t)^(-m_k), |m_k| passes per term.

    a_n is packed at digit width w, so multiplying by L^k is a shift by
    k*w bits.  A pass of a_n += L^k a_(n-1) with n ascending divides the
    series by 1 - L^k t, and a pass of a_n -= L^k a_(n-1) with n descending
    multiplies it by 1 - L^k t; a term takes m_k passes of the first or
    -m_k of the second.  Packing is evaluation at L = 2^w, a ring
    homomorphism, so every value on the way is exact whatever its size,
    and only the results must lie in the digits' range |c| < 2^(w-1): with
    M = sum |m_k|, each coefficient of the product is at most the one of
    prod_k (1 - t)^(-|m_k|) = (1 - t)^(-M) in absolute value, and its t^n
    coefficients C(n+M-1, n) grow with n, so C(N+M-1, N) <= C(N+M, N)
    bounds them all.
    """
    width = _digit_width(comb(order + sum(map(abs, m._coeffs.values())), order))
    a = [1] + [0] * order
    for k, c in m._coeffs.items():
        shift = k * width
        if c > 0:
            for _ in range(c):
                for n in range(1, order + 1):
                    a[n] += a[n - 1] << shift
        else:
            for _ in range(-c):
                for n in range(order, 0, -1):
                    a[n] -= a[n - 1] << shift
    return tuple(MotivicPolynomial._trusted(_unpack(x, width)) for x in a)
