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

The series itself stays agnostic about its coefficient ring.  Operations
that must materialize fresh coefficients (padding, inflating t -> t^k) or
certify a unit constant term (division) take the relevant ring element as
an explicit argument.
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

    # -- construction --------------------------------------------------

    @classmethod
    def unit(cls, one: Any, zero: Any, order: int) -> "TruncatedSeries":
        """The series 1 + 0*t + ... + 0*t^order for the given ring constants."""
        if order < 0:
            raise ValueError("order must be non-negative")
        return cls((one,) + (zero,) * order)

    # -- shape ----------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> Any:
        if not 0 <= n <= self.order:
            raise IndexError(f"degree {n} outside window 0..{self.order}")
        return self.coeffs[n]

    def truncated(self, order: int) -> "TruncatedSeries":
        """Drop all terms above t^order; order may not exceed the current one."""
        if order > self.order:
            raise ValueError(f"cannot truncate order-{self.order} series to {order}")
        if order < 0:
            raise ValueError("order must be non-negative")
        return TruncatedSeries(self.coeffs[: order + 1])

    def resized(self, order: int, zero: Any) -> "TruncatedSeries":
        """Truncate or zero-pad to the requested order."""
        if order <= self.order:
            return self.truncated(order)
        return TruncatedSeries(self.coeffs + (zero,) * (order - self.order))

    def inflate(self, k: int, zero: Any) -> "TruncatedSeries":
        """Substitute t -> t^k; the window widens to order*k."""
        if k < 1:
            raise ValueError("inflation exponent must be >= 1")
        coeffs = [zero] * (self.order * k + 1)
        for i, c in enumerate(self.coeffs):
            coeffs[i * k] = c
        return TruncatedSeries(tuple(coeffs))

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

    def divide(self, other: "TruncatedSeries", one: Any) -> "TruncatedSeries":
        """Quotient by a series with constant term equal to the ring unit.

        With b0 = 1 the long-division recurrence q_n = a_n - sum b_j q_{n-j}
        needs no coefficient division, so the result is exact.  Multiplying
        the quotient back by `other` recovers `self` up to the common order.
        """
        if not isinstance(other, TruncatedSeries):
            raise TypeError("can only divide by another TruncatedSeries")
        if other.coeffs[0] != one:
            raise ValueError("division requires a divisor with constant term 1")
        n = min(self.order, other.order)
        quot: list[Any] = []
        for k in range(n + 1):
            acc = self.coeffs[k]
            for j in range(1, k + 1):
                acc = acc - other.coeffs[j] * quot[k - j]
            quot.append(acc)
        return TruncatedSeries(tuple(quot))

    # -- serialization ---------------------------------------------------

    def to_json(self, coeff_to_json: Callable[[Any], Any]) -> dict:
        return {"order": self.order, "coeffs": [coeff_to_json(c) for c in self.coeffs]}

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coeffs)!r})"
