"""Truncated power series over exact coefficient rings."""

import json
import random

import pytest

from motivic_pairs import MotivicPolynomial, TruncatedSeries

ZERO = MotivicPolynomial.zero()
ONE = MotivicPolynomial.one()
L = MotivicPolynomial.lefschetz()


def series(*ints):
    return TruncatedSeries(tuple(MotivicPolynomial.constant(k) for k in ints))


def random_series(rng, order):
    return TruncatedSeries(
        tuple(
            MotivicPolynomial({d: rng.randint(-5, 5) for d in range(3)})
            for _ in range(order + 1)
        )
    )


def test_construction_and_order():
    s = TruncatedSeries((ONE, ZERO, L))
    assert s.order == 2
    assert s.coefficient(0) == ONE
    assert s.coefficient(2) == L
    assert TruncatedSeries([ONE]).order == 0


def test_empty_rejected():
    with pytest.raises(ValueError):
        TruncatedSeries(())


def test_coefficient_outside_window():
    s = series(1, 2)
    with pytest.raises(IndexError):
        s.coefficient(2)
    with pytest.raises(IndexError):
        s.coefficient(-1)


def test_unit():
    u = TruncatedSeries.unit(ONE, ZERO, 3)
    assert u.coeffs == (ONE, ZERO, ZERO, ZERO)


def test_equality_needs_equal_orders():
    # a truncated window never equals a longer one, even where they overlap
    assert series(1, 2) != series(1, 2, 7)
    assert series(1, 2, 7) != series(1, 2)
    assert series(1, 2, 0) != series(1, 2)
    assert series(1, 3) != series(1, 2, 7)
    assert series(1, 2) != 3
    assert series(1, 2) == series(1, 2)
    assert hash(series(1, 2)) == hash(series(1, 2))


def test_truncated_and_resized():
    s = series(1, 2, 3)
    assert s.truncated(1).coeffs == series(1, 2).coeffs
    with pytest.raises(ValueError):
        s.truncated(5)
    padded = s.resized(4, ZERO)
    assert padded.order == 4
    assert padded.coefficient(4) == ZERO
    assert s.resized(1, ZERO).coeffs == series(1, 2).coeffs


def test_inflate_substitutes_t_power():
    s = series(1, 4, 9)
    blown = s.inflate(2, ZERO)
    assert blown.order == 4
    assert [c for c in blown.coeffs] == [
        MotivicPolynomial.constant(k) for k in (1, 0, 4, 0, 9)
    ]
    with pytest.raises(ValueError):
        s.inflate(0, ZERO)


def test_product_is_cauchy_convolution():
    # (1 + t)(1 + t) = 1 + 2t + t^2, windows shrink to the shorter factor
    assert series(1, 1, 0) * series(1, 1, 0) == series(1, 2, 1)
    assert (series(1, 1) * series(1, 1, 0)).order == 1


def test_division_frozen_case():
    # long division by hand: (1 + t) * (1 + t + t^2)^{-1} = 1 + 0t - t^2 + ...
    quotient = series(1, 1, 0).divide(series(1, 1, 1), ONE)
    assert quotient == series(1, 0, -1)


def test_division_requires_unit_constant_term():
    with pytest.raises(ValueError):
        series(1, 1).divide(series(2, 1), ONE)
    with pytest.raises(ValueError):
        series(1, 1).divide(series(0, 1), ONE)


def test_ring_laws_random():
    rng = random.Random(11)

    def add(x, y):
        return TruncatedSeries(tuple(p + q for p, q in zip(x.coeffs, y.coeffs)))

    for _ in range(30):
        a, b, c = (random_series(rng, 5) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * add(b, c) == add(a * b, a * c)


def test_division_roundtrip_random():
    rng = random.Random(12)
    for _ in range(30):
        a = random_series(rng, 6)
        u = TruncatedSeries((ONE,) + random_series(rng, 5).coeffs)
        assert a.divide(u, ONE) * u == a


def test_json_roundtrip():
    s = TruncatedSeries((ONE, L, L * L - ONE))
    blob = json.loads(json.dumps(s.to_json(lambda c: c.to_json())))
    assert blob == {"order": 2, "coeffs": [{"0": "1"}, {"1": "1"}, {"0": "-1", "2": "1"}]}


def test_immutable():
    s = series(1, 2)
    with pytest.raises(Exception):
        s.coeffs = ()
