"""Symmetric-power series, configuration series, and the series exponential.

Three layers live here.

Zeta series of a pair class: the generating series whose t^n coefficient
is the class of the n-th symmetric power of the pair.  It is computed
componentwise: unordered n-tuples avoiding the marked subspace are exactly
unordered n-tuples in the complement, so the complement class transforms
by the base-ring zeta just like the ambient class.

Configuration series: the same with repeated points excluded.  Distinct
unordered tuples correspond to squarefree divisor patterns, which the
quotient zeta_m(t) / zeta_m(t^2) = zeta_m(t) * zeta_{-m}(t^2) counts; the
brute-force oracles validate it independently (squarefree polynomial
counts, finite-scene enumeration), and the series exponential below
reproduces it as (1 + t)^class.  A lane follows zeta's route rule
(lefschetz._product_route): on the product route it multiplies the two
zeta series; on the ghost route the ghosts of the two factors add, so one
exp recurrence over psi_n(m) - 2 psi_{n/2}(m) (the second term for even n
only) builds it, with no second zeta and no series multiply.

Series exponential ("power structure"): raises any series with constant
term 1 to a ring-element power.  A series factors uniquely as a product
of zeta factors prod_i zeta_{b_i}(t^i), and the exponential scales every
factor exponent: A(t)^m := prod_i zeta_{m * b_i}(t^i).  `power_pow` works
in ghost coordinates, where this is linear: zeta_b(t) has the ghosts
psi_r(b) (Adams operations), so A has the ghosts
g_n = sum_{i|n} i psi_{n/i}(b_i).  One log recurrence reads g off A, a
divisor sum inverts it for the factor exponents, and one exp recurrence
builds A^m from the scaled ghosts: O(N^2) Z[L] products at order N.
Multiplicativity of zeta in its subscript then forces all the usual
exponent laws, which the `power-axioms` suite checks coefficientwise.

Closed-form bounds on the Z[L] term products of zeta (of a pair or of
one lane), config, pow and a series multiply close the module, so that a
caller can refuse a computation before it starts.  Their one caller is
`suites._Plan`, which prices the suites and the `zeta`, `pow` and
`example` commands alike.  A lane with no terms makes no product but
still runs its loop, so zeta charges it like a one-term lane.

The pair ring is Z[L] x Z[L] and zeta acts on each factor, so every
series routine here is a function of one Z[L] lane, and each pair routine
maps it over the ambient and the complement lane.  Ring constants come
from the coefficient types themselves (`PairClass.one()`,
`MotivicPolynomial.one()`).  Like lefschetz.zeta_series, config_series
and _lane_pow compute each lane result once per command line command
(`lefschetz.lane_memo()`) and drop it when the command ends; library
calls are never memoized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from .lefschetz import (
    MotivicPolynomial,
    _lane_memoized,
    _product_route,
    _terms,
    adams,
    ghost_exp,
    ghost_log,
    zeta_series,
)
from .pairs import PairClass
from .series import TruncatedSeries


def one_plus(tail: Iterable[Any], order: int, one: Any) -> TruncatedSeries:
    """1 + c_1 t + c_2 t^2 + ... for tail c_1, c_2, ..., cut or zero-padded to the order; one is the unit."""
    if order < 0:
        raise ValueError("order must be non-negative")
    coeffs = (one, *tail)[: order + 1]
    return TruncatedSeries(coeffs + (type(one).zero(),) * (order + 1 - len(coeffs)))


def geometric_series(order: int, one: Any) -> TruncatedSeries:
    """1/(1 - t): every coefficient is the unit."""
    return one_plus((one,) * order, order, one)


def _pair_series(amb: Sequence[MotivicPolynomial], comp: Sequence[MotivicPolynomial]) -> TruncatedSeries:
    # the pair series whose lanes have the two Z[L] coefficient sequences given
    return TruncatedSeries(tuple(map(PairClass, amb, comp)))


def kapranov_zeta(p: PairClass, order: int) -> TruncatedSeries:
    """Generating series of symmetric-power classes of a pair, coefficientwise a PairClass."""
    return _pair_series(zeta_series(p.amb, order).coeffs, zeta_series(p.comp, order).coeffs)


@_lane_memoized
def config_series(m: MotivicPolynomial, order: int) -> TruncatedSeries:
    """Generating series of configuration-space classes of one lane: zeta_m(t) * zeta_{-m}(t^2).

    A class on zeta's product route takes that product of two zeta series.
    Every other class takes one exp recurrence: the ghosts of a product
    add, zeta_m(t) has the ghost psi_n(m) at t^n, and zeta_{-m}(t^2) has
    -2 psi_r(m) at t^(2r), so the ghosts are G_n = psi_n(m) for odd n and
    G_(2r) = psi_r(psi_2(m) - 2m).
    """
    if _product_route(m, order):
        squares = [MotivicPolynomial.zero()] * (order + 1)
        squares[::2] = zeta_series(-m, order // 2).coeffs
        return zeta_series(m, order) * TruncatedSeries(tuple(squares))
    even = adams(m, 2) - (m + m)
    ghosts = [adams(even, n // 2) if n % 2 == 0 else adams(m, n) for n in range(1, order + 1)]
    return TruncatedSeries(ghost_exp(ghosts))


def config_series_pair(p: PairClass, order: int) -> TruncatedSeries:
    """Configuration series of a pair; t^1 coefficient is the pair itself."""
    return _pair_series(config_series(p.amb, order).coeffs, config_series(p.comp, order).coeffs)


# Read only by perfbench/workloads.py (PAIR_RING.geometric_series, and PAIR_RING
# passed to power_pow) and perfbench/tests/test_bench.py (PAIR_RING.zeta is kapranov_zeta).
@dataclass(frozen=True)
class LambdaRing:
    one: Any
    zeta: Callable[[Any, int], TruncatedSeries]

    def geometric_series(self, order: int) -> TruncatedSeries:
        return geometric_series(order, self.one)


PAIR_RING = LambdaRing(PairClass.one(), kapranov_zeta)


@_lane_memoized
def _lane_pow(coeffs: tuple[MotivicPolynomial, ...], m: MotivicPolynomial) -> tuple[MotivicPolynomial, ...]:
    # With c_i = i*b_i the ghosts are g_n = sum_{i|n} psi_{n/i}(c_i), because
    # psi commutes with integer multiples; so c needs no division, and the
    # ghosts of A^m are h_n = sum_{i|n} psi_{n/i}(m*c_i).  psi fixes integers,
    # so for m = m0 + m' with m0 the constant term,
    # sum_{i|n} psi_{n/i}(m0*c_i) = m0*g_n, and h_n = m0*g_n +
    # sum_{i|n} psi_{n/i}(m'*c_i): a constant exponent only scales the ghosts,
    # which keeps them canonical.  For an L-part m' the divisor sum runs on
    # degree -> coefficient dicts in place: c_i is final once every i' < i has
    # taken psi_{i/i'}(c_i') off it, and a zero c_i adds nothing.  Both fill
    # their dicts in scatter order, so each polynomial made from one goes
    # through _terms.
    ghosts = ghost_log(coeffs)
    m0 = m.coefficient(0)
    l_part = MotivicPolynomial._trusted({d: v for d, v in m._coeffs.items() if d})
    if not l_part._coeffs:
        return ghost_exp([MotivicPolynomial._trusted({d: m0 * v for d, v in g._coeffs.items() if m0}) for g in ghosts])
    h = [{d: m0 * v for d, v in g._coeffs.items() if m0} for g in ghosts]
    c = [{}, *(dict(g._coeffs) for g in ghosts)]
    order = len(coeffs) - 1
    for i in range(1, order + 1):
        ci = MotivicPolynomial._trusted(_terms(c[i]))
        if not ci._coeffs:
            continue
        for n in range(2 * i, order + 1, i):
            r, target = n // i, c[n]
            for d, v in ci._coeffs.items():
                target[d * r] = target.get(d * r, 0) - v
        mc = (l_part * ci)._coeffs.items()
        for n in range(i, order + 1, i):
            r, target = n // i, h[n - 1]
            for d, v in mc:
                target[d * r] = target.get(d * r, 0) + v
    return ghost_exp([MotivicPolynomial._trusted(_terms(x)) for x in h])


def power_pow(series: TruncatedSeries, exponent: Any, ring: Any = None) -> TruncatedSeries:
    """Raise a series with constant term 1 to a ring-element power.

    Coefficients and exponent are both pairs or both Z[L] polynomials;
    ring is not read.  Works in ghost coordinates, one Z[L] lane at a time:
    the log recurrence reads the ghosts g_n of the series, a divisor sum
    recovers c_i = i*b_i of its factors prod_i zeta_{b_i}(t^i), and the exp
    recurrence rebuilds the series from the ghosts of prod_i zeta_{m*b_i}(t^i),
    h_n = sum_{i|n} psi_{n/i}(m*c_i).  As psi fixes integers, the constant
    term m0 of a lane m adds sum_{i|n} psi_{n/i}(m0*c_i) = m0*g_n to h_n, so
    the divisor sum runs only for the L-part m - m0, and a constant lane
    (every integer power, every finite: class) needs none.
    """
    one = type(exponent).one()
    if series.coeffs[0] != one:
        raise ValueError("the series exponential requires constant term 1")
    if exponent == type(exponent).zero():
        return one_plus((), series.order, one)
    if isinstance(exponent, PairClass):
        amb = _lane_pow(tuple(c.amb for c in series.coeffs), exponent.amb)
        return _pair_series(amb, _lane_pow(tuple(c.comp for c in series.coeffs), exponent.comp))
    return TruncatedSeries(_lane_pow(series.coeffs, exponent))


# -- cost bounds ---------------------------------------------------------------------
#
# Upper bounds on the Z[L] term products (c1 * c2 in the inner loops of the
# log and exp steps) of the two lanes, from the order, the L-degrees and the
# term counts alone, so a caller can refuse a computation before it starts.


def _power_sums(order: int) -> tuple[int, int, int]:
    # sum n, sum n^2 and sum n^3 over n = 1..order
    if order < 0:
        raise ValueError("order must be non-negative")
    s1 = order * (order + 1) // 2
    return s1, s1 * (2 * order + 1) // 3, s1 * s1


def _lanes(c: Any) -> tuple[MotivicPolynomial, ...]:
    # the Z[L] lanes of a pair, ambient then complement, or one lane by itself
    return (c.amb, c.comp) if isinstance(c, PairClass) else (c,)


def _slopes(c: Any) -> tuple[tuple[int, int], ...]:
    # per lane of c, the bound (D, 1) of zeta(c) and config(c) in mul_cost's
    # sense: L-degree at most D*j at t^j, D the lane's L-degree
    return tuple((max(m.degree, 0), 1) for m in _lanes(c))


def zeta_cost(p: Any, order: int) -> int:
    """Upper bound on the term products of the zeta series of p to the order.

    p is a pair (kapranov_zeta) or one Z[L] lane (zeta_series).  Per lane m
    with T terms and L-degree D, the exp step for t^n multiplies the T-term
    ghosts psi_k(m) into a_{n-k}, which has at most D(n-k) + 1 terms:
    T * sum_n (D n(n-1)/2 + n) products in all.  A lane with no terms makes
    no product, but its recurrence still runs those N(N+1)/2 loop steps, so
    it is charged like a one-term lane.
    """
    s1, s2, _ = _power_sums(order)
    return sum(max(len(m.items()), 1) * (max(m.degree, 0) * (s2 - s1) // 2 + s1) for m in _lanes(p))


def tail_slopes(tail: Sequence[PairClass]) -> tuple[int, int]:
    """Per lane, the least s >= 0 with L-degree at most s*j at the j-th coefficient c_j of the tail, j = 1, 2, ..."""
    lanes = ([c.amb for c in tail], [c.comp for c in tail])
    return tuple(max((-(-c.degree // j) for j, c in enumerate(lane, 1) if c.degree > 0), default=0) for lane in lanes)


def pow_cost(slopes: tuple[int, int], exponent: PairClass, order: int) -> int:
    """Upper bound on the term products of power_pow(A, exponent) at the order.

    The bound reads A only through slopes: per lane an s with L-degree at
    most s*j at every c_j (see tail_slopes).  So do the ghosts g_j, and
    s*j + 1 bounds their term counts; the exp side has slope s + deg m.
    Each step sums (s*k + 1)(s*(n-k) + 1) products over k, which has a
    closed form.  The scale term charges T(m) products per c_i, while
    _lane_pow multiplies only the L-part of m, of at most T(m) terms, into
    each nonzero c_i and scales the ghosts by the constant term with no
    Z[L] product, so it still bounds the products made.
    """
    s1, s2, s3 = _power_sums(order)
    cubic = (s3 - s1) // 6  # sum over n of (n^3 - n) / 6
    total = 0
    for s, m in zip(slopes, (exponent.amb, exponent.comp)):
        e = s + max(m.degree, 0)
        log_products = s * s * cubic + s * (s2 - s1) + s1 - order
        scale_products = len(m.items()) * (s * s1 + order)
        exp_products = e * e * cubic + e * s2 + s1
        total += log_products + scale_products + exp_products
    return total


def mul_cost(order: int, a: tuple[int, int], b: tuple[int, int]) -> int:
    """Upper bound on the Z[L] term products of one series multiply, one lane.

    A lane bound (s, t) says the t^j coefficient has at most s*j + t terms.
    Coefficient k of the product sums the k + 1 products a_j b_{k-j},
    (N+1)(N+2)/2 coefficient products in all, each bounded by its term
    counts: sum over k and j of (s_a j + t_a)(s_b (k-j) + t_b).
    """
    s1, s2, s3 = _power_sums(order)
    (sa, ta), (sb, tb) = a, b
    return sa * sb * ((s3 - s1) // 6) + (sa * tb + sb * ta) * ((s2 + s1) // 2) + ta * tb * (s1 + order + 1)


def config_cost(p: PairClass, order: int) -> int:
    """Upper bound on the term products of config_series_pair(p, order).

    A lane on zeta's product route makes the two zeta factors and their
    series multiply: per lane of L-degree D both factors have L-degree at
    most D*j at t^j, so at most D*j + 1 terms.  The factor zeta_{-p}(t^2)
    costs what zeta_p costs to order N // 2, as -p has the terms and
    L-degrees of p.

    A lane on the ghost route makes one exp recurrence, and the bound
    holds it too.  Its coefficient at t^j has L-degree at most D*j, and
    step n multiplies each ghost G_k into a_(n-k), of at most D(n-k) + 1
    terms.  For odd k, G_k = psi_k(m) has the T terms of m: those are
    zeta's products.  For even k = 2j, G_k has at most 2T terms, and the T
    more products are at most (D + 1)(D(n-2j) + 1), as T <= D + 1; each
    such (n, j) is bounded by its own term (Dj + 1)(D(n-2j) + 1) of the
    series multiply's bound, at coefficient n - j.  So the lane costs at
    most zeta_cost plus mul_cost.
    """
    return zeta_cost(p, order) + zeta_cost(p, order // 2) + sum(mul_cost(order, b, b) for b in _slopes(p))
