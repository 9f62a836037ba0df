"""Arithmetic in prime fields, the ground for the geometric brute-force counts.

Only prime moduli are supported; counts over extension fields enter the
engine exclusively through closed-form formulas, never through extension
arithmetic, which keeps the counting oracles simple enough to trust.
"""

from __future__ import annotations

from dataclasses import dataclass


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field with q elements, q prime; elements are ints in 0..q-1."""

    q: int

    def __post_init__(self) -> None:
        if not isinstance(self.q, int) or not is_prime(self.q):
            raise ValueError(f"field size must be prime, got {self.q!r}")

    def element(self, a: int) -> int:
        return a % self.q

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.q

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.q

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.q

    def inv(self, a: int) -> int:
        if a % self.q == 0:
            raise ZeroDivisionError("zero has no inverse")
        return pow(a, -1, self.q)
