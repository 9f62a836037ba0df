"""Integer polynomials in the affine-line class and their zeta series."""

import json
import random

import pytest

from motivic_pairs import MotivicPolynomial, TruncatedSeries
from motivic_pairs.lefschetz import projective_class, zeta_series

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


def test_constructors():
    assert MotivicPolynomial.constant(7).items() == ((0, 7),)
    assert MotivicPolynomial.constant(0) == ZERO
    assert L.items() == ((1, 1),)
    assert MotivicPolynomial.monomial(3, -2).items() == ((3, -2),)


def test_degree_and_coefficient():
    p = ONE + L * L
    assert p.degree == 2
    assert p.coefficient(0) == 1
    assert p.coefficient(1) == 0
    assert p.coefficient(2) == 1
    assert p.coefficient(99) == 0


def test_arithmetic_small_cases():
    assert ONE + L + (ONE - L) == MotivicPolynomial.constant(2)
    assert (ONE + L) * (ONE + L) == ONE + 2 * L + L * L
    assert (ONE + L) * (ONE + L) * (ONE + L) == MotivicPolynomial({0: 1, 1: 3, 2: 3, 3: 1})
    assert L - L == ZERO
    assert -(ONE - L) == L - ONE


def test_int_coercion():
    assert L + 1 == ONE + L
    assert 1 + L == ONE + L
    assert 2 * L == L + L
    assert L - 1 == L - ONE


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
    assert str(ONE + 2 * L + L * L) == "1 + 2*L + L^2"
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
    unit = TruncatedSeries.unit(ONE, ZERO, 4)
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
    unit = TruncatedSeries.unit(ONE, ZERO, 7)
    for _ in range(15):
        a = random_poly(rng)
        assert zeta_series(a, 7) * zeta_series(-a, 7) == unit


def test_zeta_series_negative_class_is_polynomial_factor():
    # zeta of -1 is the inverse of 1/(1-t), so exactly 1 - t
    z = zeta_series(MotivicPolynomial.constant(-1), 4)
    assert z.coeffs == (ONE, -ONE, ZERO, ZERO, ZERO)
