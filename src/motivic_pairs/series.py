"""Truncated formal power series with exact coefficient arithmetic.

A series is a finite window c0 + c1*t + ... + cN*t^N of a formal power
series in one variable t, stored as a tuple of N+1 coefficients.  The
coefficient type is anything with exact +, -, * and == (big integers,
fractions, polynomial classes, pairs of those); this module never divides
coefficients and never rounds.

Binary operations align two windows by truncating to the smaller order:
degrees above the common order carry no information, so they are dropped
rather than guessed.  Equality is strict: two windows are equal only when
they have the same order and the same coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class TruncatedSeries:
    """Window of a formal power series in t, truncated above t^order."""

    coeffs: tuple

    def __post_init__(self) -> None:
        if not isinstance(self.coeffs, tuple):
            object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if len(self.coeffs) == 0:
            raise ValueError("a truncated series needs at least a constant term")

    # -- shape ----------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> Any:
        if not 0 <= n <= self.order:
            raise IndexError(f"degree {n} outside window 0..{self.order}")
        return self.coeffs[n]

    # -- arithmetic -----------------------------------------------------

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.order, other.order)
        coeffs = []
        for k in range(n + 1):
            acc = self.coeffs[0] * other.coeffs[k]
            for j in range(1, k + 1):
                acc = acc + self.coeffs[j] * other.coeffs[k - j]
            coeffs.append(acc)
        return TruncatedSeries(tuple(coeffs))

    # -- serialization ---------------------------------------------------

    def to_json(self, coeff_to_json: Callable[[Any], Any]) -> dict:
        return {"order": self.order, "coeffs": [coeff_to_json(c) for c in self.coeffs]}

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coeffs)!r})"
