"""Primality test for the field sizes of the geometric brute-force counts.

Only prime moduli are supported, and the oracles do their F_q arithmetic
inline with `% q` and `pow(x, -1, q)`; counts over extension fields enter
the engine exclusively through closed-form formulas, never through
extension arithmetic, which keeps the counting oracles simple enough to
trust.
"""

from __future__ import annotations


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Below this bound every strong probable prime to all twelve bases above is
# prime (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 86 (2017)).
PRIMALITY_LIMIT = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Exact primality for n below PRIMALITY_LIMIT; larger n raise ValueError.

    Trial division by the primes up to 37 decides every n < 37^2; above
    that, deterministic Miller-Rabin with those twelve bases.
    """
    if n < 2 or any(n % p == 0 for p in _SMALL_PRIMES):
        return n in _SMALL_PRIMES
    if n >= PRIMALITY_LIMIT:
        raise ValueError(f"primality of {n} is not decided: field sizes must be below {PRIMALITY_LIMIT}")
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^r * d with d odd
    d = (n - 1) >> r
    # n is a strong probable prime to base a: a^d = 1 or a^(d 2^i) = -1 for some i < r
    return n < 37 * 37 or all(
        pow(a, d, n) == 1 or any(pow(a, d << i, n) == n - 1 for i in range(r)) for a in _SMALL_PRIMES
    )

