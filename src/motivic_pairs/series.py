"""Truncated formal power series with exact coefficient arithmetic.

A series is a finite window c0 + c1*t + ... + cN*t^N of a formal power
series in one variable t, stored as a tuple of N+1 coefficients.  The
coefficient type (a Z[L] polynomial or a pair of them) provides exact
arithmetic and `type(c).series_product`, which makes every coefficient
sum_j a_j b_(k-j) of a product in one call, so that it can prepare each
factor once for all the coefficients that read it; this module never
divides coefficients and never rounds.

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
        a = self.coeffs
        return TruncatedSeries(type(a[0]).series_product(a, other.coeffs))

    # -- serialization ---------------------------------------------------

    def to_json(self, coeff_to_json: Callable[[Any], Any]) -> dict:
        return {"order": self.order, "coeffs": [coeff_to_json(c) for c in self.coeffs]}

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coeffs)!r})"
