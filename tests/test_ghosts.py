"""Ghost-coordinate recurrences against the slow routes they replaced.

The references below are the earlier implementations, kept here as
oracles: the per-monomial binomial product for zeta series, zeta(t) /
zeta(t^2) by series division for configuration series, and the peeling
loop for the series exponential.  The fast paths must agree with them
exactly on seeded random inputs.
"""

import random
from math import comb

import pytest

from motivic_pairs import (
    LEFSCHETZ_RING,
    PAIR_RING,
    MotivicPolynomial,
    PairClass,
    TruncatedSeries,
    catalog,
    config_series,
    power_pow,
)
from motivic_pairs.lefschetz import adams, ghost_exp, ghost_log, zeta_series
from motivic_pairs.power import pow_cost, zeta_cost

L = MotivicPolynomial.lefschetz()
ZERO = MotivicPolynomial.zero()
ORDERS = (0, 1, 2, 5, 12)
RINGS = pytest.mark.parametrize("ring", [LEFSCHETZ_RING, PAIR_RING], ids=["lefschetz", "pair"])


# -- references ---------------------------------------------------------------------


def reference_zeta_series(m, order):
    # prod over monomials m_k L^k of (1 - L^k t)^(-m_k), by the binomial theorem
    result = LEFSCHETZ_RING.one_series(order)
    for degree, mult in m.items():
        factor = []
        for n in range(order + 1):
            c = comb(mult + n - 1, n) if mult > 0 else (-1) ** n * comb(-mult, n)
            factor.append(MotivicPolynomial({degree * n: c}))
        result = result * TruncatedSeries(tuple(factor))
    return result


def reference_zeta(ring, m, order):
    if ring is LEFSCHETZ_RING:
        return reference_zeta_series(m, order)
    amb, comp = reference_zeta_series(m.amb, order), reference_zeta_series(m.comp, order)
    return TruncatedSeries(tuple(map(PairClass, amb.coeffs, comp.coeffs)))


def reference_zeta_factor(ring, b, i, order):
    # zeta_b(t^i), cut at the order
    coeffs = [ring.zero] * (order + 1)
    coeffs[::i] = reference_zeta(ring, b, order // i).coeffs
    return TruncatedSeries(tuple(coeffs))


def reference_config_series(ring, m, order):
    return reference_zeta(ring, m, order).divide(reference_zeta_factor(ring, m, 2, order), ring.one)


def reference_power_pow(ring, series, exponent):
    # peel zeta_{b_i}(t^i) off degree by degree, multiply zeta_{m b_i}(t^i) in
    order = series.order
    result = ring.one_series(order)
    residual = series
    for i in range(1, order + 1):
        b = residual.coefficient(i)
        if b != ring.zero:
            residual = residual.divide(reference_zeta_factor(ring, b, i, order), ring.one)
            result = result * reference_zeta_factor(ring, exponent * b, i, order)
    assert residual == ring.one_series(order)
    return result


# -- random inputs ------------------------------------------------------------------


def random_poly(rng, degree):
    # negative coefficients and holes included
    return MotivicPolynomial({d: rng.randint(-3, 3) for d in range(degree + 1)})


def random_element(rng, ring, degree):
    if ring is LEFSCHETZ_RING:
        return random_poly(rng, degree)
    return PairClass(random_poly(rng, degree), random_poly(rng, degree))


def random_unit_series(rng, ring, order):
    return ring.one_plus([random_element(rng, ring, rng.randint(0, 2)) for _ in range(order)], order)


# -- fast path against reference ----------------------------------------------------


@RINGS
@pytest.mark.parametrize("order", ORDERS)
def test_zeta_matches_per_monomial_product(ring, order):
    rng = random.Random(f"zeta/{order}")
    for _ in range(6):
        m = random_element(rng, ring, rng.randint(0, 4))
        assert ring.zeta(m, order) == reference_zeta(ring, m, order)


@RINGS
@pytest.mark.parametrize("order", ORDERS)
def test_config_matches_zeta_quotient(ring, order):
    rng = random.Random(f"config/{order}")
    for _ in range(6):
        m = random_element(rng, ring, rng.randint(0, 4))
        assert config_series(m, order, ring) == reference_config_series(ring, m, order)


@RINGS
@pytest.mark.parametrize("order", ORDERS)
def test_power_pow_matches_peeling(ring, order):
    rng = random.Random(f"pow/{order}")
    for trial in range(5):
        base = random_unit_series(rng, ring, order)
        exponent = ring.zero if trial == 0 else random_element(rng, ring, rng.randint(0, 2))
        assert power_pow(base, exponent, ring) == reference_power_pow(ring, base, exponent)


def test_power_pow_runs_each_pair_lane_alone():
    # a zero lane of the exponent leaves that lane of the result at 1
    rng = random.Random(7)
    base = random_unit_series(rng, PAIR_RING, 6)
    m = random_poly(rng, 2)
    powered = power_pow(base, PairClass(m, ZERO), PAIR_RING)
    assert [c.comp for c in powered.coeffs] == [MotivicPolynomial.one()] + [ZERO] * 6
    amb = power_pow(TruncatedSeries(tuple(c.amb for c in base.coeffs)), m, LEFSCHETZ_RING)
    assert [c.amb for c in powered.coeffs] == list(amb.coeffs)


# -- the recurrences themselves -----------------------------------------------------


def test_adams_reindexes_degrees_and_is_a_ring_map():
    p = MotivicPolynomial({0: 2, 1: -1, 3: 5})
    assert adams(p, 1) == p
    assert adams(p, 3) == MotivicPolynomial({0: 2, 3: -1, 9: 5})
    rng = random.Random(11)
    for _ in range(10):
        a, b, r = random_poly(rng, 3), random_poly(rng, 3), rng.randint(1, 5)
        assert adams(a * b, r) == adams(a, r) * adams(b, r)
        assert adams(a + b, r) == adams(a, r) + adams(b, r)
    with pytest.raises(ValueError):
        adams(p, 0)


def test_log_and_exp_are_inverse():
    rng = random.Random(12)
    for order in ORDERS:
        coeffs = random_unit_series(rng, LEFSCHETZ_RING, order).coeffs
        ghosts = ghost_log(coeffs)
        assert len(ghosts) == order
        assert ghost_exp(ghosts) == coeffs


def test_ghosts_of_geometric_series_are_one():
    # log 1/(1-t) = sum t^r / r
    assert ghost_log(LEFSCHETZ_RING.geometric_series(5).coeffs) == (MotivicPolynomial.one(),) * 5


def test_exp_of_non_integral_ghosts_raises():
    # g_1 = 0, g_2 = L would need a_2 = L/2
    with pytest.raises(ArithmeticError):
        ghost_exp([ZERO, L])


# -- cost bounds --------------------------------------------------------------------


def terms(p):
    return len(p.items())


def zeta_products(m, order):
    # the exp step multiplies ghost k (psi_k(m), as many terms as m) into a_{n-k}
    a = zeta_series(m, order).coeffs
    return sum(terms(m) * terms(a[n - k]) for n in range(1, order + 1) for k in range(1, n + 1))


def lane_pow_products(coeffs, m):
    # log step, c_i = i b_i by the divisor sum, m * c_i, exp step: the same
    # recurrences as power_pow, counting the term products of each
    order = len(coeffs) - 1
    g = (ZERO, *ghost_log(coeffs))
    count = sum(terms(g[k]) * terms(coeffs[n - k]) for n in range(1, order + 1) for k in range(1, n))
    c = list(g)
    scaled = [ZERO] * (order + 1)
    for i in range(1, order + 1):
        for n in range(2 * i, order + 1, i):
            c[n] = c[n] - adams(c[i], n // i)
        count += terms(m) * terms(c[i])
        for n in range(i, order + 1, i):
            scaled[n] = scaled[n] + adams(m * c[i], n // i)
    a = ghost_exp(scaled[1:])
    return count + sum(terms(scaled[k]) * terms(a[n - k]) for n in range(1, order + 1) for k in range(1, n + 1))


def test_cost_bounds_cover_the_term_products():
    rng = random.Random(13)
    for order in ORDERS:
        for _ in range(4):
            m = random_element(rng, PAIR_RING, rng.randint(0, 3))
            needed = zeta_products(m.amb, order) + zeta_products(m.comp, order)
            assert needed <= zeta_cost(m, order)
            tail = [random_element(rng, PAIR_RING, rng.randint(0, 2 * j)) for j in range(1, order + 1)]
            base = PAIR_RING.one_plus(tail, order)
            needed = sum(
                lane_pow_products([lane(c) for c in base.coeffs], lane(m))
                for lane in (lambda c: c.amb, lambda c: c.comp)
            )
            assert needed <= pow_cost(tail, m, order)
    # a zero coefficient bounds like the constant 1, not below it
    one = PairClass.one()
    assert pow_cost([PairClass.zero(), one], one, 6) == pow_cost([one, one], one, 6) > 0
    # an unmarked projective space meets the zeta bound exactly
    p = catalog("pn", 2)
    assert zeta_cost(p, 20) == 2 * zeta_products(p.amb, 20)
    with pytest.raises(ValueError):
        zeta_cost(p, -1)
