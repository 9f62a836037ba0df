"""Integer polynomials in the affine-line class and their zeta series."""

import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motivic_pairs import MotivicPolynomial, one_plus
from motivic_pairs.lefschetz import _terms, projective_class, zeta_series

L = MotivicPolynomial.lefschetz()
ONE = MotivicPolynomial.one()
ZERO = MotivicPolynomial.zero()


def random_poly(rng):
    return MotivicPolynomial({d: rng.randint(-6, 6) for d in range(4)})


def test_canonical_representation_drops_zeros():
    p = MotivicPolynomial({0: 1, 1: 0, 5: 0})
    assert p.items() == ((0, 1),)
    assert MotivicPolynomial({}) == ZERO
    assert ZERO.degree == -1
    assert ZERO.items() == ()


def test_constructor_rejects_bad_terms():
    for coeffs in ({-1: 1}, {True: 1}, {0: False}, {0: 1.0}, {"1": 1}):
        with pytest.raises(ValueError):
            MotivicPolynomial(coeffs)


def test_constructors():
    assert MotivicPolynomial.constant(7).items() == ((0, 7),)
    assert MotivicPolynomial.constant(0) == ZERO
    assert L.items() == ((1, 1),)


def test_ring_constants_are_fresh_and_constant_still_checks():
    # zero, one and L skip the checks, each over a dict of its own;
    # constant(value) takes any value, so it still checks it
    for make, terms in ((MotivicPolynomial.zero, ()), (MotivicPolynomial.one, ((0, 1),)),
                        (MotivicPolynomial.lefschetz, ((1, 1),))):
        a, b = make(), make()
        assert a == b and a.items() == terms and a._coeffs is not b._coeffs
        assert a == MotivicPolynomial(dict(terms)) and hash(a) == hash(MotivicPolynomial(dict(terms)))
    for bad in (True, 1.0, "1"):
        with pytest.raises(ValueError):
            MotivicPolynomial.constant(bad)


def test_degree_and_coefficient():
    p = ONE + L * L
    assert p.degree == 2
    assert p.coefficient(0) == 1
    assert p.coefficient(1) == 0
    assert p.coefficient(2) == 1
    assert p.coefficient(99) == 0


def test_arithmetic_small_cases():
    assert ONE + L + (ONE - L) == MotivicPolynomial.constant(2)
    assert (ONE + L) * (ONE + L) == ONE + L + L + L * L
    assert (ONE + L) * (ONE + L) * (ONE + L) == MotivicPolynomial({0: 1, 1: 3, 2: 3, 3: 1})
    assert L - L == ZERO
    assert -(ONE - L) == L - ONE


def test_integers_are_not_coerced():
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(TypeError):
            op(ONE, 1)
        with pytest.raises(TypeError):
            op(1, ONE)
    assert ONE != 1


def test_ring_laws_random():
    rng = random.Random(21)
    for _ in range(50):
        a, b, c = random_poly(rng), random_poly(rng), random_poly(rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO


def sparse_poly(rng):
    # small coefficients on scattered degrees, so sums and products cancel often
    return MotivicPolynomial({rng.randint(0, 5): rng.choice((-2, -1, 0, 1, 2)) for _ in range(rng.randint(0, 5))})


def assert_canonical(p):
    degrees = [d for d, _ in p.items()]
    assert degrees == sorted(set(degrees))
    assert all(c != 0 for _, c in p.items())
    rebuilt = MotivicPolynomial(dict(p.items()))
    assert p == rebuilt and hash(p) == hash(rebuilt)


def test_ring_results_are_canonical():
    # +, -, unary - and * build their results unchecked; each must still be
    # sorted, zero-free, and equal and hash-equal to the checked constructor's
    rng = random.Random(3141)
    cancelling = [
        (ONE + L, ONE - L),  # the product loses its L term
        (L * L - ONE, ONE - L * L),  # the sum is zero
        (L + MotivicPolynomial.constant(3), L + MotivicPolynomial.constant(3)),  # the difference is zero
    ]
    cases = cancelling + [(sparse_poly(rng), sparse_poly(rng)) for _ in range(300)]
    cancelled_products = 0
    for a, b in cases:
        for result in (a + b, a - b, -a, a * b, a - a, a + (-a), a * ZERO):
            assert_canonical(result)
        reachable = {d1 + d2 for d1, _ in a.items() for d2, _ in b.items()}
        cancelled_products += len((a * b).items()) < len(reachable)
    assert cancelled_products > 5  # products that lose terms are exercised


@st.composite
def summands(draw):
    # a, and b on a's support, on part of it, off it, anywhere, or b = -a
    values = st.integers(-5, 5).filter(bool)
    a = draw(st.dictionaries(st.integers(0, 40), values, max_size=12))
    support = draw(st.sampled_from(["same", "part", "disjoint", "any", "negated"]))
    if support == "negated":
        return a, {d: -c for d, c in a.items()}
    if support == "same":
        degrees = list(a)
    elif support == "part":
        degrees = draw(st.lists(st.sampled_from(sorted(a)), unique=True)) if a else []
    else:
        free = st.integers(0, 40).filter(lambda d: d not in a) if support == "disjoint" else st.integers(0, 40)
        degrees = draw(st.lists(free, unique=True, max_size=12))
    return a, {d: draw(values) for d in degrees}


@settings(max_examples=300, deadline=None)
@given(summands())
@example(({0: 1, 3: 2}, {0: -1, 3: -2}))  # cancels to zero
@example(({0: 1, 3: 2}, {3: -2}))  # cancels a term on part of the support
@example(({0: 1, 3: 2}, {1: 4, 5: -1}))  # disjoint supports
def test_a_sum_is_the_canonical_terms_of_the_merged_dict(pair):
    # a sum that brings no new degree skips the sort: it must still come out
    # ascending and zero-free, like one that does
    a, b = pair
    merged = {d: a.get(d, 0) + b.get(d, 0) for d in {**a, **b}}
    total = MotivicPolynomial(a) + MotivicPolynomial(b)
    assert list(total._coeffs.items()) == list(_terms(merged).items())


def test_evaluate_matches_integer_substitution():
    p = ONE + L + L * L
    assert p.evaluate(2) == 7
    assert (ONE + L).evaluate(5) == 6
    assert ZERO.evaluate(3) == 0


def test_evaluate_rejects_small_base():
    with pytest.raises(ValueError):
        L.evaluate(1)


def test_evaluate_random_against_horner():
    rng = random.Random(22)
    for _ in range(30):
        p = random_poly(rng)
        q = rng.choice([2, 3, 5, 7, 11])
        direct = sum(c * q ** d for d, c in p.items())
        assert p.evaluate(q) == direct


def test_str_ascending():
    assert str(ONE + L + L + L * L) == "1 + 2*L + L^2"
    assert str(L - MotivicPolynomial.constant(2)) == "-2 + L"
    assert str(ZERO) == "0"
    assert str(L) == "L"


def test_json_roundtrip():
    p = MotivicPolynomial({4: 3, 1: -2, 0: 1})
    assert json.loads(json.dumps(p.to_json())) == {"0": "1", "1": "-2", "4": "3"}
    assert ZERO.to_json() == {}


def test_projective_class():
    assert projective_class(0) == ONE
    assert projective_class(2) == ONE + L + L * L
    with pytest.raises(ValueError):
        projective_class(-1)


def test_projective_class_point_counts():
    # |P^n(F_q)| = (q^{n+1} - 1)/(q - 1)
    for q in (2, 3, 5):
        for n in range(11):
            assert projective_class(n).evaluate(q) == (q ** (n + 1) - 1) // (q - 1)


def test_zeta_series_of_point_and_empty():
    assert zeta_series(ONE, 4).coeffs == (ONE, ONE, ONE, ONE, ONE)
    unit = one_plus((), 4, ONE)
    assert zeta_series(ZERO, 4) == unit


def test_zeta_series_of_line_is_projective_classes():
    # symmetric powers of the projective line are projective spaces
    z = zeta_series(projective_class(1), 5)
    for n, c in enumerate(z.coeffs):
        assert c == projective_class(n)


def test_zeta_series_of_finite_sets_is_binomial():
    from math import comb

    z = zeta_series(MotivicPolynomial.constant(3), 6)
    for n, c in enumerate(z.coeffs):
        assert c == MotivicPolynomial.constant(comb(3 + n - 1, n))


def test_zeta_series_multiplicative_random():
    rng = random.Random(23)
    for _ in range(15):
        a, b = random_poly(rng), random_poly(rng)
        assert zeta_series(a + b, 7) == zeta_series(a, 7) * zeta_series(b, 7)


def test_zeta_series_inverse_random():
    rng = random.Random(24)
    unit = one_plus((), 7, ONE)
    for _ in range(15):
        a = random_poly(rng)
        assert zeta_series(a, 7) * zeta_series(-a, 7) == unit


def test_zeta_series_negative_class_is_polynomial_factor():
    # zeta of -1 is the inverse of 1/(1-t), so exactly 1 - t
    z = zeta_series(MotivicPolynomial.constant(-1), 4)
    assert z.coeffs == (ONE, -ONE, ZERO, ZERO, ZERO)
