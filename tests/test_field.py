"""The primality test, and the field-size check where a field size enters."""

import pytest

from motivic_pairs import MarkedP1Scene, ProjectivePoint, is_prime, vieta_coefficients
from motivic_pairs.field import PRIMALITY_LIMIT


def test_is_prime_small_values():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)


def test_field_requires_prime():
    # a field size enters the geometry through these three entry points
    line = (ProjectivePoint((0, 1)), ProjectivePoint((1, 0)))
    for q in (4, 1, 0, -3):
        with pytest.raises(ValueError, match="prime"):
            ProjectivePoint.from_coords((1, 1), q)
        with pytest.raises(ValueError, match="prime"):
            vieta_coefficients(line, q)
        with pytest.raises(ValueError, match="prime"):
            MarkedP1Scene((), q)
        with pytest.raises(ValueError):
            MarkedP1Scene.standard(1, q)


def trial_division(n):
    # the earlier is_prime, kept as the reference
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division_below_10_5():
    assert [n for n in range(10**5) if is_prime(n)] == [n for n in range(10**5) if trial_division(n)]


def test_is_prime_large_values():
    # 3825123056546413051 is a strong pseudoprime to every base 2..23
    assert not is_prime(3825123056546413051)
    assert is_prime(2**61 - 1)
    assert not is_prime((2**31 - 1) * 1000000007)
    # above the bound of the twelve bases primality is not decided
    with pytest.raises(ValueError, match="not decided"):
        is_prime(PRIMALITY_LIMIT)
    with pytest.raises(ValueError, match="not decided"):
        MarkedP1Scene((), 2**89 - 1)
