"""Symmetric-power series, configuration series, and general series exponentials."""

import random
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motivic_pairs import (
    MotivicPolynomial,
    PairClass,
    TruncatedSeries,
    catalog,
    config_series,
    config_series_pair,
    geometric_series,
    kapranov_zeta,
    one_plus,
    power_pow,
)
from motivic_pairs.lefschetz import projective_class, zeta_series
from motivic_pairs.suites import _axiom_rows, _exponent_laws, _identity_laws, _Plan, axiom_row, first_mismatch

L = MotivicPolynomial.lefschetz()
ONE = MotivicPolynomial.one()
UNIT = PairClass.one()


def one_plus_t(order):
    return one_plus((UNIT,), order, UNIT)


def random_pair(rng):
    poly = lambda: MotivicPolynomial({d: rng.randint(-3, 3) for d in range(3)})
    return PairClass(poly(), poly())


def inflated(series, k, order, zero):
    """series(t^k), cut or zero-padded to the given order."""
    coeffs = [zero] * (order + 1)
    coeffs[::k] = series.coeffs[: order // k + 1]
    return TruncatedSeries(tuple(coeffs))


def random_unit_series(rng, order):
    return TruncatedSeries((PairClass.one(),) + tuple(random_pair(rng) for _ in range(order)))


# -- ring units and the two canonical series ---------------------------------------


def test_ring_presets():
    assert UNIT == PairClass(ONE, ONE)
    assert geometric_series(3, ONE).coeffs == (ONE, ONE, ONE, ONE)
    assert one_plus_t(2).coeffs == (
        PairClass.one(),
        PairClass.one(),
        PairClass.zero(),
    )
    assert one_plus((), 0, UNIT).coeffs == (PairClass.one(),)


def test_one_plus_t_at_order_zero_is_one():
    assert one_plus_t(0).coeffs == (PairClass.one(),)


def test_one_plus_truncates_and_pads():
    p = catalog("pn", 1)
    assert one_plus([p, p], 1, UNIT).coeffs == (PairClass.one(), p)
    assert one_plus([p], 3, UNIT).coeffs == (PairClass.one(), p, PairClass.zero(), PairClass.zero())
    with pytest.raises(ValueError):
        one_plus([p], -1, UNIT)


def test_kapranov_zeta_is_componentwise():
    p = catalog("p1-marked", 2)
    z = kapranov_zeta(p, 5)
    amb = zeta_series(p.amb, 5)
    comp = zeta_series(p.comp, 5)
    for n in range(6):
        assert z.coefficient(n) == PairClass(amb.coefficient(n), comp.coefficient(n))


def test_kapranov_zeta_frozen_finite_case():
    # two points, one marked: ambient multisets C(n+1, n), unmarked ones all alike
    z = kapranov_zeta(catalog("finite", 2, 1), 3)
    assert [str(c) for c in z.coeffs] == ["(1 | 1)", "(2 | 1)", "(3 | 1)", "(4 | 1)"]


def test_kapranov_zeta_multiplicative_random():
    rng = random.Random(41)
    for _ in range(12):
        a, b = random_pair(rng), random_pair(rng)
        assert kapranov_zeta(a + b, 6) == kapranov_zeta(a, 6) * kapranov_zeta(b, 6)


def test_config_series_frozen_finite_case():
    # distinct unordered picks from 3 points, 1 marked: binomial in both slots
    lam = config_series_pair(catalog("finite", 3, 1), 4)
    assert [str(c) for c in lam.coeffs] == [
        "(1 | 1)",
        "(3 | 2)",
        "(3 | 1)",
        "(1 | 0)",
        "(0 | 0)",
    ]


def test_config_series_of_affine_line():
    # configurations of n distinct points on the line: L^n - L^{n-1}
    lam = config_series(L, 5)
    assert lam.coefficient(0) == ONE
    assert lam.coefficient(1) == L
    for n in range(2, 6):
        assert lam.coefficient(n) == MotivicPolynomial({n: 1, n - 1: -1})


def test_config_series_is_zeta_ratio():
    p = catalog("pn", 2)
    z = kapranov_zeta(p, 6)
    z2 = inflated(kapranov_zeta(p, 3), 2, 6, PairClass.zero())
    assert config_series_pair(p, 6) * z2 == z


def test_config_series_multiplicative_random():
    rng = random.Random(42)
    for _ in range(12):
        a, b = random_pair(rng), random_pair(rng)
        lhs = config_series_pair(a + b, 6)
        assert lhs == config_series_pair(a, 6) * config_series_pair(b, 6)


def test_finite_set_series_match_binomial_theorem():
    # over a finite set both series collapse to binomial coefficients
    z = kapranov_zeta(catalog("finite", 3, 0), 5)
    lam = config_series_pair(catalog("finite", 3, 0), 5)
    for n in range(6):
        assert z.coefficient(n).amb.coefficient(0) == comb(3 + n - 1, n)
        assert lam.coefficient(n).amb.coefficient(0) == comb(3, n)


# -- factorization and the general exponential -------------------------------------


def test_factor_roundtrip_random():
    # the unit exponent peels every base into zeta factors and rebuilds it
    rng = random.Random(43)
    for _ in range(10):
        base = random_unit_series(rng, 5)
        assert power_pow(base, PairClass.one()) == base


def test_power_pow_rejects_non_unit_base():
    two = MotivicPolynomial.constant(2)
    bad = TruncatedSeries((PairClass(two, two), PairClass.one()))
    with pytest.raises(ValueError):
        power_pow(bad, PairClass.one())


def test_power_pow_frozen_one_plus_t_case():
    # (1+t)^(3,2) has binomial coefficients in each slot
    powered = power_pow(one_plus_t(4), catalog("finite", 3, 1))
    for n in range(5):
        amb, comp = MotivicPolynomial.constant(comb(3, n)), MotivicPolynomial.constant(comb(2, n))
        assert powered.coefficient(n) == PairClass(amb, comp)


def test_power_pow_geometric_is_zeta():
    for spec in [catalog("p1-marked", 2), catalog("pn", 2), catalog("finite", 4, 2)]:
        powered = power_pow(geometric_series(7, UNIT), spec)
        assert powered == kapranov_zeta(spec, 7)


def test_power_pow_one_plus_t_is_config():
    for spec in [catalog("p1-marked", 3), catalog("pn", 1), catalog("affine-marked", 1)]:
        powered = power_pow(one_plus_t(7), spec)
        assert powered == config_series_pair(spec, 7)


def test_power_axioms_random():
    rng = random.Random(44)
    order = 6
    one_series = one_plus((), order, UNIT)
    for _ in range(8):
        a = random_unit_series(rng, order)
        b = random_unit_series(rng, order)
        m1, m2 = random_pair(rng), random_pair(rng)
        assert power_pow(a, PairClass.zero()) == one_series
        assert power_pow(a, PairClass.one()) == a
        assert power_pow(a * b, m1) == power_pow(a, m1) * power_pow(b, m1)
        assert power_pow(a, m1 + m2) == power_pow(a, m1) * power_pow(a, m2)
        assert power_pow(power_pow(a, m1), m2) == power_pow(a, m1 * m2)


def test_power_axioms_with_difference_exponents():
    # the exponent laws must survive on formal differences, not just scenes
    order = 6
    a = one_plus_t(order)
    m1 = catalog("finite", 3, 1) - catalog("pn", 1)
    m2 = catalog("point") - catalog("affine-marked", 1)
    assert power_pow(a, m1 + m2) == power_pow(a, m1) * power_pow(a, m2)
    assert power_pow(power_pow(a, m1), m2) == power_pow(a, m1 * m2)


def test_power_pow_order_zero():
    tiny = one_plus((), 0, UNIT)
    assert power_pow(tiny, catalog("pn", 2)).coeffs == tiny.coeffs


def test_power_pow_over_polynomial_ring():
    # the same machinery runs over bare L-polynomials
    powered = power_pow(geometric_series(4, ONE), projective_class(1))
    assert powered == zeta_series(projective_class(1), 4)


def partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


@pytest.mark.parametrize(
    "zeta, lift",
    [(zeta_series, lambda m: m), (kapranov_zeta, PairClass.unmarked)],
    ids=["lefschetz", "pair"],
)
def test_power_pow_hilbert_scheme_of_the_plane(zeta, lift):
    # Goettsche: (prod_k zeta_{L^(k-1)}(t^k))^(L^2) = sum_n [Hilb^n(A^2)] t^n,
    # and the Ellingsrud-Stromme cells give [Hilb^n(A^2)] = sum_{lambda |- n} L^(n + len(lambda))
    order = 8
    one = lift(ONE)
    base = one_plus((), order, one)
    for k in range(1, order + 1):
        factor = zeta(lift(MotivicPolynomial({k - 1: 1})), order // k)
        base = base * inflated(factor, k, order, type(one).zero())
    expected = TruncatedSeries(
        tuple(
            lift(MotivicPolynomial(Counter(n + len(lam) for lam in partitions(n))))
            for n in range(order + 1)
        )
    )
    assert power_pow(base, lift(MotivicPolynomial({2: 1}))) == expected


# -- report rows -------------------------------------------------------------------


def law_rows(laws, order):
    # the laws of a sample on a live plan, as the suites report them
    return _axiom_rows(laws(_Plan(order, live=True)), order)


def exponent_law_rows(sample, order):
    return law_rows(lambda plan: _exponent_laws(plan, *sample), order)


def test_verify_power_axioms_rows():
    sample = (
        "A=1+t, B=1/(1-t); m1=finite:3,1, m2=pn:1",
        one_plus_t(4),
        geometric_series(4, UNIT),
        catalog("finite", 3, 1),
        catalog("pn", 1),
    )
    rows = exponent_law_rows(sample, 4)
    assert [r["axiom"] for r in rows] == [
        "zero-exponent",
        "unit-exponent",
        "base-multiplicative",
        "exponent-additive",
        "exponent-multiplicative",
    ]
    for row in rows:
        assert row["pass"] is True
        assert row["first_mismatch_degree"] is None
        assert row["order"] == 4
        assert row["sample"] == sample[0]


# single Z[L] lanes: L-degree at most 3, entries in [-3, 3]
lane_polys = st.dictionaries(st.integers(0, 3), st.integers(-3, 3)).map(MotivicPolynomial)


@st.composite
def lane_samples(draw):
    order = draw(st.integers(0, 7))
    a, b = (one_plus(draw(st.lists(lane_polys, min_size=order, max_size=order)), order, ONE) for _ in range(2))
    return ("random lanes", a, b, draw(lane_polys), draw(lane_polys)), order


@settings(max_examples=60, deadline=None)
@given(lane_samples())
def test_exponent_laws_hold_on_random_lanes(case):
    sample, order = case
    rows = exponent_law_rows(sample, order)
    assert len(rows) == 5
    assert [r for r in rows if not r["pass"]] == []


def test_verify_identities_rows():
    rows = law_rows(lambda plan: _identity_laws(plan, "p1-marked:1", catalog("p1-marked", 1)), 6)
    names = [r["axiom"] for r in rows]
    assert names == ["geometric-power-is-zeta", "binomial-power-is-config"]
    assert all(r["pass"] for r in rows)
    assert {r["sample"] for r in rows} == {"p1-marked:1"}


def test_verify_identities_catches_mismatch():
    # wrong by construction: zeta of a different class
    sample = ("broken", one_plus_t(4), geometric_series(4, UNIT), catalog("finite", 2, 0), catalog("finite", 2, 0))
    assert all(r["pass"] for r in exponent_law_rows(sample, 4))  # honest sample still passes
    lhs = kapranov_zeta(catalog("pn", 1), 4)
    rhs = kapranov_zeta(catalog("pn", 2), 4)
    assert first_mismatch(lhs, rhs) == 1
    assert first_mismatch(lhs, lhs) is None
    row = axiom_row("geometric-power-is-zeta", "broken", 4, power_pow(geometric_series(4, UNIT), catalog("pn", 1)), rhs)
    assert row["pass"] is False and row["first_mismatch_degree"] == 1


def test_rows_of_different_orders_fail():
    # a window that stops early must not pass against a full one
    full = kapranov_zeta(catalog("pn", 1), 8)
    cut = kapranov_zeta(catalog("pn", 1), 0)
    assert first_mismatch(full, cut) == 1
    assert first_mismatch(cut, full) == 1
    row = axiom_row("truncated", "pn:1", 8, full, cut)
    assert row["pass"] is False
    assert row["first_mismatch_degree"] == 1
