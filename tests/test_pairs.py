"""Pair classes: componentwise ring, marked-locus product rule, catalog."""

import json
import random

import pytest

from motivic_pairs import MotivicPolynomial, PairClass, catalog, oracle
from motivic_pairs.oracle import DEFAULT_BUDGET, BudgetExceededError
from motivic_pairs.pairs import parse_pair_spec

L = MotivicPolynomial.lefschetz()
ONE = MotivicPolynomial.one()
ZERO = MotivicPolynomial.zero()
C = MotivicPolynomial.constant


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


def test_componentwise_arithmetic():
    a = PairClass(ONE + L, L)
    b = PairClass(L, ONE)
    assert a + b == PairClass(ONE + C(2) * L, ONE + L)
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


def test_str():
    assert str(PairClass(ONE + L, L)) == "(1 + L | L)"
    assert str(PairClass.zero()) == "(0 | 0)"


def test_json_roundtrip():
    p = PairClass(C(3) * L - ONE, MotivicPolynomial({2: 1}))
    assert json.loads(json.dumps(p.to_json())) == {"amb": {"0": "-1", "1": "3"}, "comp": {"2": "1"}}


def test_catalog_point_empty():
    assert catalog("point") == PairClass.one()
    assert catalog("empty") == PairClass.zero()


def test_catalog_finite():
    # m points, k of them marked: counts (m, m - k)
    assert catalog("finite", 3, 1) == PairClass(C(3), C(2))
    assert catalog("finite", 5, 5) == PairClass(C(5), C(0))
    with pytest.raises(ValueError):
        catalog("finite", 2, 3)  # more marks than points
    with pytest.raises(ValueError):
        catalog("finite", -1, 0)


def test_catalog_affine_and_projective_line():
    assert catalog("affine-marked", 2) == PairClass(L, L - C(2))
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


def test_catalog_refuses_classes_over_the_default_budget():
    # pn:n writes n + 1 terms; pn-hyp:n,s sums min(s, n) + 1 classes of n + 1
    with pytest.raises(BudgetExceededError) as refused:
        catalog("pn", DEFAULT_BUDGET)
    assert refused.value.needed == DEFAULT_BUDGET + 1
    with pytest.raises(BudgetExceededError) as refused:
        parse_pair_spec("sum(point,pn-hyp:3162,5000)")
    assert refused.value.needed == 3163 * 3163
    assert catalog("pn-hyp", 3161, 2).amb == catalog("pn", 3161).amb


@pytest.mark.parametrize(
    "spec, work",
    [
        # atoms 2*4, then 1*4 per lane, atom 2*5, then 4*5 per lane
        ("prod(pn:3,pn:4)", 8 + 8 + 10 + 40),
        # atoms 2*4, then 2(0+4) per lane, atom 2*1, then 2(4+1) per lane
        ("sum(pn:3,finite:2,1)", 8 + 16 + 2 + 20),
        # an inner combinator's work counts toward the outer one's charges:
        # the product's 66, then 2(0+8) per lane, atom 2*1, then 2(8+1) per lane
        ("neg(sum(prod(pn:3,pn:4),point))", 66 + 32 + 2 + 36),
    ],
)
def test_pair_specs_are_charged_their_work_so_far(monkeypatch, spec, work):
    # terms for atoms, terms read and written for sums, term products per
    # lane for products, charged before each sum or product step against
    # the default budget
    value = parse_pair_spec(spec)
    monkeypatch.setattr(oracle, "DEFAULT_BUDGET", work - 1)
    with pytest.raises(BudgetExceededError) as refused:
        parse_pair_spec(spec)
    assert refused.value.needed == work
    monkeypatch.setattr(oracle, "DEFAULT_BUDGET", work)
    assert parse_pair_spec(spec) == value
