"""Pair classes: componentwise ring, marked-locus product rule, catalog."""

import json
import random

import pytest

from motivic_pairs import MotivicPolynomial, PairClass, catalog

L = MotivicPolynomial.lefschetz()
ONE = MotivicPolynomial.one()
ZERO = MotivicPolynomial.zero()


def random_pair(rng):
    poly = lambda: MotivicPolynomial({d: rng.randint(-5, 5) for d in range(3)})
    return PairClass(poly(), poly())


def test_basic_constructors():
    assert PairClass.zero() == PairClass(ZERO, ZERO)
    assert PairClass.one() == PairClass(ONE, ONE)
    assert PairClass.unmarked(L) == PairClass(L, L)


def test_subvariety_is_difference():
    p = PairClass(ONE + L, L - ONE)
    assert p.subvariety == MotivicPolynomial.constant(2)
    assert PairClass.unmarked(L).subvariety == ZERO


def test_coercion():
    # ints and polynomials embed as unmarked classes
    assert PairClass.one() + 1 == PairClass(2, 2)
    assert PairClass.unmarked(L) * 2 == PairClass(2 * L, 2 * L)
    assert PairClass.one() + L == PairClass(ONE + L, ONE + L)


def test_componentwise_arithmetic():
    a = PairClass(ONE + L, L)
    b = PairClass(L, ONE)
    assert a + b == PairClass(ONE + 2 * L, ONE + L)
    assert a - b == PairClass(ONE, L - ONE)
    assert a * b == PairClass(L + L * L, L)
    assert -a == PairClass(-(ONE + L), -L)


def test_ring_laws_random():
    rng = random.Random(31)
    for _ in range(40):
        a, b, c = random_pair(rng), random_pair(rng), random_pair(rng)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * PairClass.one() == a
        assert a - a == PairClass.zero()


def test_product_marks_obey_inclusion_exclusion():
    # the product's marked locus is (X1 x Y2) u (Y1 x X2)
    rng = random.Random(32)
    for _ in range(40):
        a, b = random_pair(rng), random_pair(rng)
        sa, sb = a.subvariety, b.subvariety
        assert (a * b).subvariety == a.amb * sb + sa * b.amb - sa * sb


def test_evaluate():
    p = PairClass(ONE + L + L * L, L * L - L)
    assert p.evaluate(2) == (7, 2)
    assert p.evaluate(3) == (13, 6)


def test_str():
    assert str(PairClass(ONE + L, L)) == "(1 + L | L)"
    assert str(PairClass.zero()) == "(0 | 0)"


def test_json_roundtrip():
    p = PairClass(3 * L - ONE, MotivicPolynomial.monomial(2))
    assert json.loads(json.dumps(p.to_json())) == {"amb": {"0": "-1", "1": "3"}, "comp": {"2": "1"}}


def test_catalog_point_empty():
    assert catalog("point") == PairClass.one()
    assert catalog("empty") == PairClass.zero()


def test_catalog_finite():
    # m points, k of them marked: counts (m, m - k)
    assert catalog("finite", 3, 1) == PairClass(3, 2)
    assert catalog("finite", 5, 5) == PairClass(5, 0)
    with pytest.raises(ValueError):
        catalog("finite", 2, 3)  # more marks than points
    with pytest.raises(ValueError):
        catalog("finite", -1, 0)


def test_catalog_affine_and_projective_line():
    assert catalog("affine-marked", 2) == PairClass(L, L - 2)
    assert catalog("p1-marked", 2) == PairClass(ONE + L, L - ONE)
    assert catalog("p1-marked", 0) == PairClass(ONE + L, ONE + L)


def test_catalog_projective_space():
    assert catalog("pn", 2) == PairClass.unmarked(ONE + L + L * L)
    assert catalog("pn", 0) == PairClass.one()


def test_catalog_hyperplane_scenes():
    # complement of s general hyperplanes in P^n, by inclusion-exclusion
    two_in_plane = catalog("pn-hyp", 2, 2)
    assert two_in_plane.amb == ONE + L + L * L
    assert two_in_plane.comp == L * L - L
    one_in_plane = catalog("pn-hyp", 2, 1)
    assert one_in_plane.comp == L * L


def test_catalog_rejects_unknown_and_bad_arity():
    with pytest.raises(ValueError):
        catalog("mystery")
    with pytest.raises(ValueError):
        catalog("point", 1)
    with pytest.raises(ValueError):
        catalog("finite", 3)

