"""Truncated power series over exact coefficient rings."""

import copy
import dataclasses
import json
import pickle
import random

import pytest

from motivic_pairs import MotivicPolynomial, TruncatedSeries
from motivic_pairs.suites import _divide

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


def test_equality_needs_equal_orders():
    # a truncated window never equals a longer one, even where they overlap
    assert series(1, 2) != series(1, 2, 7)
    assert series(1, 2, 7) != series(1, 2)
    assert series(1, 2, 0) != series(1, 2)
    assert series(1, 3) != series(1, 2, 7)
    assert series(1, 2) != 3
    assert series(1, 2) == series(1, 2)
    assert hash(series(1, 2)) == hash(series(1, 2))


def test_product_is_cauchy_convolution():
    # (1 + t)(1 + t) = 1 + 2t + t^2, windows shrink to the shorter factor
    assert series(1, 1, 0) * series(1, 1, 0) == series(1, 2, 1)
    assert (series(1, 1) * series(1, 1, 0)).order == 1


def test_division_frozen_case():
    # long division by hand: (1 + t) * (1 + t + t^2)^{-1} = 1 + 0t - t^2 + ...
    quotient = _divide(series(1, 1, 0), series(1, 1, 1))
    assert quotient == series(1, 0, -1)


def test_division_requires_unit_constant_term():
    with pytest.raises(ValueError):
        _divide(series(1, 1), series(2, 1))
    with pytest.raises(ValueError):
        _divide(series(1, 1), series(0, 1))


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
        assert _divide(a, u) * u == a


def test_json_roundtrip():
    s = TruncatedSeries((ONE, L, L * L - ONE))
    blob = json.loads(json.dumps(s.to_json(lambda c: c.to_json())))
    assert blob == {"order": 2, "coeffs": [{"0": "1"}, {"1": "1"}, {"0": "-1", "2": "1"}]}


def test_immutable():
    s = series(1, 2)
    with pytest.raises(Exception):
        s.coeffs = ()


# -- the record contract: a frozen dataclass with slots, built through its slot ----------


def test_no_field_can_be_assigned():
    s = series(1, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.coeffs = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        del s.coeffs
    # nor a new attribute (Python 3.11's frozen __setattr__ raises TypeError
    # for a name that is not a field of a slotted class)
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        s.extra = ()
    assert s == series(1, 2) and not hasattr(s, "__dict__")


def test_equality_and_hash_are_the_frozen_dataclass_ones():
    a, b = series(1, 2), series(1, 2)
    assert a == b and a is not b and a.coeffs is not b.coeffs
    assert hash(a) == hash(b) == hash((a.coeffs,))
    assert a != series(1, 3) and a.__eq__(a.coeffs) is NotImplemented
    assert [f.name for f in dataclasses.fields(TruncatedSeries)] == ["coeffs"]


def test_repr_lists_the_coefficients():
    assert repr(TruncatedSeries((ONE, L))) == (
        "TruncatedSeries([MotivicPolynomial({0: 1}), MotivicPolynomial({1: 1})])"
    )


def test_any_iterable_becomes_a_tuple_and_an_empty_window_is_refused():
    for given in ([ONE, L], (c for c in (ONE, L)), map(lambda c: c, (ONE, L))):
        s = TruncatedSeries(given)
        assert type(s.coeffs) is tuple and s.coeffs == (ONE, L)
    window = (ONE, L)
    assert TruncatedSeries(window).coeffs is window  # a tuple is kept as it is
    for empty in ((), [], iter(())):
        with pytest.raises(ValueError, match="at least a constant term"):
            TruncatedSeries(empty)


def test_copy_and_pickle_round_trip():
    s = TruncatedSeries((ONE, L, L * L - ONE))
    for other in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert type(other) is TruncatedSeries and other == s and hash(other) == hash(s)
    assert copy.copy(s).coeffs is s.coeffs
