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
reproduces it as (1 + t)^class.

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
exponent laws, which `verify_power_axioms` checks coefficientwise.

The pair ring is Z[L] x Z[L] and zeta acts on each factor, so pair series
run as two independent Z[L] lanes.  The LambdaRing instances bundle the
ring constants and the zeta map of the L-polynomial ring and the pair ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from .lefschetz import MotivicPolynomial, adams, ghost_exp, ghost_log, zeta_series
from .pairs import PairClass
from .series import TruncatedSeries


@dataclass(frozen=True)
class LambdaRing:
    """Capability bundle: ring constants plus the zeta series map.

    The zeta map must send m to a series with constant term 1 and t^1
    coefficient m, multiplicatively in m; `config_series` relies on that.
    """

    zero: Any
    one: Any
    zeta: Callable[[Any, int], TruncatedSeries]

    def one_plus(self, tail: Iterable[Any], order: int) -> TruncatedSeries:
        """1 + c_1 t + c_2 t^2 + ... for tail c_1, c_2, ..., truncated or zero-padded to the order."""
        if order < 0:
            raise ValueError("order must be non-negative")
        coeffs = (self.one, *tail)[: order + 1]
        return TruncatedSeries(coeffs + (self.zero,) * (order + 1 - len(coeffs)))

    def one_series(self, order: int) -> TruncatedSeries:
        return self.one_plus((), order)

    def geometric_series(self, order: int) -> TruncatedSeries:
        """1/(1 - t): every coefficient is the ring unit."""
        return self.one_plus((self.one,) * order, order)

    def one_plus_t(self, order: int) -> TruncatedSeries:
        return self.one_plus((self.one,), order)


def kapranov_zeta(p: PairClass, order: int) -> TruncatedSeries:
    """Generating series of symmetric-power classes of a pair, coefficientwise a PairClass."""
    ambient = zeta_series(p.amb, order)
    complement = zeta_series(p.comp, order)
    return TruncatedSeries(
        tuple(PairClass(a, c) for a, c in zip(ambient.coeffs, complement.coeffs))
    )


LEFSCHETZ_RING = LambdaRing(MotivicPolynomial.zero(), MotivicPolynomial.one(), zeta_series)
# perfbench/workloads.py calls PAIR_RING, PAIR_RING.geometric_series and
# power_pow by name, so they stay.
PAIR_RING = LambdaRing(PairClass.zero(), PairClass.one(), kapranov_zeta)


def config_series(m: Any, order: int, ring: LambdaRing) -> TruncatedSeries:
    """Generating series of configuration-space classes: zeta_m(t) * zeta_{-m}(t^2)."""
    zeta = ring.zeta(m, order)
    squares = [ring.zero] * (order + 1)
    squares[::2] = ring.zeta(-m, order // 2).coeffs
    return zeta * TruncatedSeries(tuple(squares))


def config_series_pair(p: PairClass, order: int) -> TruncatedSeries:
    """Configuration series of a pair; t^1 coefficient is the pair itself."""
    return config_series(p, order, PAIR_RING)


def _lane_pow(coeffs: Sequence[MotivicPolynomial], m: MotivicPolynomial) -> tuple[MotivicPolynomial, ...]:
    # With c_i = i*b_i the ghosts are g_n = sum_{i|n} psi_{n/i}(c_i), because
    # psi commutes with integer multiples; so c needs no division, and the
    # ghosts of A^m are sum_{i|n} psi_{n/i}(m*c_i).
    c = [MotivicPolynomial.zero(), *ghost_log(coeffs)]
    order = len(coeffs) - 1
    scaled = [MotivicPolynomial.zero()] * (order + 1)
    for i in range(1, order + 1):
        for n in range(2 * i, order + 1, i):
            c[n] = c[n] - adams(c[i], n // i)
        mc = m * c[i]
        for n in range(i, order + 1, i):
            scaled[n] = scaled[n] + adams(mc, n // i)
    return ghost_exp(scaled[1:])


def power_pow(series: TruncatedSeries, exponent: Any, ring: LambdaRing) -> TruncatedSeries:
    """Raise a series with constant term 1 to a ring-element power.

    Works in ghost coordinates, one Z[L] lane at a time (a pair series has
    an ambient and a complement lane): the log recurrence reads the ghosts
    of the series, a divisor sum recovers c_i = i*b_i of its factors
    prod_i zeta_{b_i}(t^i), and the exp recurrence rebuilds the series from
    the ghosts of prod_i zeta_{m*b_i}(t^i).
    """
    if series.coeffs[0] != ring.one:
        raise ValueError("the series exponential requires constant term 1")
    if exponent == ring.zero:
        return ring.one_series(series.order)
    if isinstance(exponent, PairClass):
        amb = _lane_pow([c.amb for c in series.coeffs], exponent.amb)
        comp = _lane_pow([c.comp for c in series.coeffs], exponent.comp)
        return TruncatedSeries(tuple(map(PairClass, amb, comp)))
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


def zeta_cost(p: PairClass, order: int) -> int:
    """Upper bound on the term products of kapranov_zeta(p, order).

    Per lane m with T terms and L-degree D, the exp step for t^n multiplies
    the T-term ghosts psi_k(m) into a_{n-k}, which has at most D(n-k) + 1
    terms: T * sum_n (D n(n-1)/2 + n) products in all.
    """
    s1, s2, _ = _power_sums(order)
    return sum(len(m.items()) * (max(m.degree, 0) * (s2 - s1) // 2 + s1) for m in (p.amb, p.comp))


def _slope(coeffs: Iterable[MotivicPolynomial]) -> int:
    # Least s >= 0 with deg c_j <= s*j for the j-th coefficient, j = 1, 2, ...
    return max((-(-c.degree // j) for j, c in enumerate(coeffs, 1) if c.degree > 0), default=0)


def pow_cost(tail: Sequence[PairClass], exponent: PairClass, order: int) -> int:
    """Upper bound on the term products of power_pow(1 + c_1 t + c_2 t^2 + ..., exponent).

    tail holds c_1, c_2, ...; coefficients past it are zero.  If every c_j
    has L-degree at most s*j, so do the ghosts g_j and s*j + 1 bounds
    their term counts; the exp side has slope s + deg m.  Each step sums
    (s*k + 1)(s*(n-k) + 1) products over k, which has a closed form.
    """
    s1, s2, s3 = _power_sums(order)
    cubic = (s3 - s1) // 6  # sum over n of (n^3 - n) / 6
    total = 0
    for m, lane in ((exponent.amb, [c.amb for c in tail]), (exponent.comp, [c.comp for c in tail])):
        s = _slope(lane)
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

    The two zeta factors, and their series multiply: per lane of L-degree D
    both factors have L-degree at most D*j at t^j, so at most D*j + 1 terms.
    """
    degrees = (max(p.amb.degree, 0), max(p.comp.degree, 0))
    return zeta_cost(p, order) + zeta_cost(-p, order // 2) + sum(mul_cost(order, (d, 1), (d, 1)) for d in degrees)


# -- executable identity checks ------------------------------------------------


def first_mismatch(a: TruncatedSeries, b: TruncatedSeries) -> int | None:
    """Smallest degree where two windows disagree, or None if they agree.

    Windows of different orders disagree at the first degree past the
    shorter one, so a truncated result never passes against a full one.
    """
    n = min(a.order, b.order)
    for k in range(n + 1):
        if a.coeffs[k] != b.coeffs[k]:
            return k
    return None if a.order == b.order else n + 1


def axiom_row(axiom: str, sample: str, order: int, lhs: TruncatedSeries, rhs: TruncatedSeries) -> dict:
    """Report row for one coefficientwise series comparison."""
    mismatch = first_mismatch(lhs, rhs)
    return {
        "axiom": axiom,
        "sample": sample,
        "order": order,
        "pass": mismatch is None,
        "first_mismatch_degree": mismatch,
    }


def verify_power_axioms(
    samples: Sequence[tuple[str, TruncatedSeries, TruncatedSeries, Any, Any]],
    order: int,
) -> list[dict]:
    """Check the five exponent laws on (name, A, B, m1, m2) samples.

    Per sample: A^0 = 1, A^1 = A, (A*B)^m1 = A^m1 * B^m1,
    A^(m1+m2) = A^m1 * A^m2, and A^(m1*m2) = (A^m2)^m1, all compared
    coefficientwise exactly.  Failures become report rows, not errors.
    """
    rows: list[dict] = []
    for name, a, b, m1, m2 in samples:
        pow_a_m1 = power_pow(a, m1, PAIR_RING)
        pow_a_m2 = power_pow(a, m2, PAIR_RING)
        rows.append(axiom_row("zero-exponent", name, order, power_pow(a, PAIR_RING.zero, PAIR_RING), PAIR_RING.one_series(order)))
        rows.append(axiom_row("unit-exponent", name, order, power_pow(a, PAIR_RING.one, PAIR_RING), a))
        rows.append(axiom_row("base-multiplicative", name, order, power_pow(a * b, m1, PAIR_RING), pow_a_m1 * power_pow(b, m1, PAIR_RING)))
        rows.append(axiom_row("exponent-additive", name, order, power_pow(a, m1 + m2, PAIR_RING), pow_a_m1 * pow_a_m2))
        rows.append(axiom_row("exponent-multiplicative", name, order, power_pow(a, m1 * m2, PAIR_RING), power_pow(pow_a_m2, m1, PAIR_RING)))
    return rows


def verify_identities(p: PairClass, order: int, sample: str = "") -> list[dict]:
    """Check that the exponential reproduces both generating series.

    (1/(1-t))^p must equal the symmetric-power series of p, and
    (1 + t)^p must equal the configuration series of p.
    """
    label = sample or str(p)
    geometric = PAIR_RING.geometric_series(order)
    binomial = PAIR_RING.one_plus_t(order)
    return [
        axiom_row(
            "geometric-power-is-zeta", label, order,
            power_pow(geometric, p, PAIR_RING), kapranov_zeta(p, order),
        ),
        axiom_row(
            "binomial-power-is-config", label, order,
            power_pow(binomial, p, PAIR_RING), config_series_pair(p, order),
        ),
    ]
