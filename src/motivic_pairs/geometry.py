"""The worked example: symmetric powers of the line with marked points.

The n-th symmetric power of the projective line is projective n-space:
send an unordered n-tuple of points (u_i : v_i) to the coefficient vector
of the binary form prod_i (u_i v - v_i u), the form whose root multiset is
the tuple (the Vieta map, computed here over a prime field so the counting
oracle can exercise it).  Under that identification, tuples containing a
marked point (u : v) sweep out the hyperplane

    p_0 v^n + p_1 u v^(n-1) + ... + p_n u^n = 0

in coordinates F(u, v) = sum_j p_j u^j v^(n-j); a mark is a
`ProjectivePoint` with two coordinates, so (x : 1) and the point at
infinity (1 : 0) are the same kind of object.  Distinct marks give
coefficient rows of an extended Vandermonde matrix, so any k <= n of the
hyperplanes meet in a codimension-k projective subspace and more than n of
them have empty intersection: general position for free, which is why
the class of the pair, `pairs.catalog("pn-hyp", n, s)`, is pure
inclusion-exclusion in (n, s).

This module holds only the points over F_q: projective points, marked
scenes on the line, the Vieta map and the test of a point against the
marks.  It builds no class and no series, and it imports only `field`:
the suites compare the class above with the t^n coefficient of the zeta
series of the marked line, and with the counts of an enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .field import is_prime


@dataclass(frozen=True)
class ProjectivePoint:
    """Point of projective space in canonical coordinates.

    Coordinates are field elements with the first nonzero entry scaled to
    1, so equality of points is equality of tuples.
    """

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        lead = next((c for c in self.coords if c != 0), None)
        if lead is None:
            raise ValueError("projective coordinates cannot all be zero")
        if lead != 1:
            raise ValueError("coordinates must be normalized: first nonzero entry 1")

    @classmethod
    def from_coords(cls, coords: Sequence[int], q: int) -> "ProjectivePoint":
        """Reduce mod q and rescale so the first nonzero coordinate is 1."""
        if not is_prime(q):
            raise ValueError(f"field size must be prime, got {q!r}")
        reduced = [c % q for c in coords]
        lead = next((c for c in reduced if c != 0), None)
        if lead is None:
            raise ValueError("projective coordinates cannot all be zero")
        scale = pow(lead, -1, q)
        return cls(tuple(scale * c % q for c in reduced))

    def __str__(self) -> str:
        return "(" + ":".join(str(c) for c in self.coords) + ")"


@dataclass(frozen=True)
class MarkedP1Scene:
    """Distinct marked points of the projective line over F_q.

    Each mark is a `ProjectivePoint` (u : v) with both coordinates in
    0..q-1; canonical coordinates make distinct points distinct tuples,
    so at most q+1 marks fit on the line.
    """

    marks: tuple[ProjectivePoint, ...]
    q: int

    def __post_init__(self) -> None:
        if not is_prime(self.q):
            raise ValueError(f"field size must be prime, got {self.q!r}")
        if len(self.marks) != len(set(self.marks)):
            raise ValueError("marked points must be pairwise distinct")
        for m in self.marks:
            if len(m.coords) != 2 or not all(0 <= c < self.q for c in m.coords):
                raise ValueError(f"mark {m} is not a point of the line over F_{self.q}")

    @classmethod
    def standard(cls, s: int, q: int) -> "MarkedP1Scene":
        """First s points of the line over F_q: (0 : 1), (1 : 1), ..., and lastly (1 : 0)."""
        if not 0 <= s <= q + 1:
            raise ValueError(f"a scene over F_{q} has 0 to {q + 1} marks, got {s}")
        marks = [ProjectivePoint.from_coords((x, 1), q) for x in range(min(s, q))]
        if s > q:
            marks.append(ProjectivePoint((1, 0)))
        return cls(tuple(marks), q)


def vieta_coefficients(roots: Sequence[ProjectivePoint], q: int) -> ProjectivePoint:
    """Coefficient vector of the binary form vanishing on a root multiset.

    Expands prod_i (u_i v - v_i u) over F_q and returns (p_0 : ... : p_n)
    with p_j the coefficient of u^j v^(n-j), normalized projectively.  The
    finite roots z_i = u_i / v_i are then the roots of
    p_0 + p_1 z + ... + p_n z^n.
    """
    if not is_prime(q):
        raise ValueError(f"field size must be prime, got {q!r}")
    # form[j] holds the coefficient of u^j v^(deg - j); start from the constant form 1.
    form = [1]
    for root in roots:
        u, v = root.coords
        widened = [0] * (len(form) + 1)
        for j, coeff in enumerate(form):
            widened[j] = (widened[j] + u * coeff) % q  # times u*v
            widened[j + 1] = (widened[j + 1] - v * coeff) % q  # times -v*u
        form = widened
    return ProjectivePoint.from_coords(form, q)


def point_in_marked_union(point: ProjectivePoint, scene: MarkedP1Scene) -> bool:
    """Whether the form with these coefficients vanishes at some marked point.

    The form sum_j p_j u^j v^(n-j) is evaluated at each mark (u : v) by
    Horner's rule in u, carrying the power of v along.
    """
    q = scene.q
    for u, v in (mark.coords for mark in scene.marks):
        value = 0
        v_power = 1
        for coeff in reversed(point.coords):
            value = (value * u + coeff * v_power) % q
            v_power = v_power * v % q
        if value == 0:
            return True
    return False
