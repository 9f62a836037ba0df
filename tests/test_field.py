"""Prime-field arithmetic helpers."""

import pytest

from motivic_pairs import PrimeField, is_prime


def test_is_prime_small_values():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)


def test_field_requires_prime():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_field_operations():
    f = PrimeField(7)
    assert f.add(5, 4) == 2
    assert f.sub(2, 5) == 4
    assert f.mul(3, 5) == 1
    assert f.element(-1) == 6


def test_inverse():
    for q in (2, 3, 5, 7, 11):
        f = PrimeField(q)
        for a in range(1, q):
            assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(Exception):
        PrimeField(5).inv(0)


def test_characteristic_two():
    f = PrimeField(2)
    assert f.add(1, 1) == 0
    assert f.sub(0, 1) == 1
