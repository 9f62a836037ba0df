"""Symmetric-power series, configuration series, and the series exponential.

Three layers live here.

Zeta series of a pair class: the generating series whose t^n coefficient
is the class of the n-th symmetric power of the pair.  It is computed
componentwise: unordered n-tuples avoiding the marked subspace are exactly
unordered n-tuples in the complement, so the complement class transforms
by the base-ring zeta just like the ambient class.

Configuration series: the same with repeated points excluded.  Distinct
unordered tuples correspond to squarefree divisor patterns, which the
quotient zeta(t) / zeta(t^2) counts; the brute-force oracles validate that
quotient independently (squarefree polynomial counts, finite-scene
enumeration), and the series exponential below reproduces it as
(1 + t)^class.

Series exponential ("power structure"): raises any series with constant
term 1 to a ring-element power.  A series factors uniquely as a product
of zeta factors prod_i zeta_{b_i}(t^i), and the exponential scales every
factor exponent: A(t)^m := prod_i zeta_{m * b_i}(t^i).  `power_pow` is
the one routine for it: a single loop peels the factors degree by degree
and multiplies each scaled factor into the result as it goes.
Multiplicativity of zeta in its subscript then forces all the usual
exponent laws, which `verify_power_axioms` checks coefficientwise.

Everything is parameterized by a LambdaRing: the ring constants plus the
zeta map.  Two instances are provided, one for the L-polynomial ring and
one for the pair ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from .lefschetz import MotivicPolynomial, zeta_series
from .pairs import PairClass
from .series import TruncatedSeries


@dataclass(frozen=True)
class LambdaRing:
    """Capability bundle: ring constants plus the zeta series map.

    The zeta map must send m to a series with constant term 1 and t^1
    coefficient m, multiplicatively in m.  Those are the only properties
    the series exponential relies on.
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
    """Generating series of configuration-space classes: zeta(t) / zeta(t^2)."""
    if order < 0:
        raise ValueError("order must be non-negative")
    return ring.zeta(m, order).divide(_zeta_power_factor(m, 2, order, ring), ring.one)


def config_series_pair(p: PairClass, order: int) -> TruncatedSeries:
    """Configuration series of a pair; t^1 coefficient is the pair itself."""
    return config_series(p, order, PAIR_RING)


def _zeta_power_factor(b: Any, i: int, order: int, ring: LambdaRing) -> TruncatedSeries:
    # zeta_b(t^i) truncated at the ambient order.
    return ring.zeta(b, order // i).inflate(i, ring.zero).resized(order, ring.zero)


def power_pow(series: TruncatedSeries, exponent: Any, ring: LambdaRing) -> TruncatedSeries:
    """Raise a series with constant term 1 to a ring-element power.

    Step i reads b_i off the t^i coefficient of the residual, divides
    zeta_{b_i}(t^i) out of it (which clears degree i without touching
    lower degrees) and multiplies zeta_{m * b_i}(t^i) into the result.
    After the last step the residual is 1, so the series was exactly
    prod_i zeta_{b_i}(t^i) and the result is its m-th power.
    """
    if series.coeffs[0] != ring.one:
        raise ValueError("the series exponential requires constant term 1")
    order = series.order
    result = ring.one_series(order)
    if exponent == ring.zero:
        return result
    residual = series
    for i in range(1, order + 1):
        b = residual.coefficient(i)
        if b != ring.zero:
            residual = residual.divide(_zeta_power_factor(b, i, order, ring), ring.one)
            scaled = exponent * b
            if scaled != ring.zero:
                result = result * _zeta_power_factor(scaled, i, order, ring)
    return result


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
