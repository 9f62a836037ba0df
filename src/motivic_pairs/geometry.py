"""The worked example: symmetric powers of the line with marked points.

The n-th symmetric power of the projective line is projective n-space:
send an unordered n-tuple of points (u_i : v_i) to the coefficient vector
of the binary form prod_i (u_i v - v_i u), the form whose root multiset is
the tuple (the Vieta map, computed here over a prime field so the counting
oracle can exercise it).  Under that identification, tuples containing a
marked point a = (x : 1) sweep out the hyperplane

    p_0 + p_1 x + ... + p_n x^n = 0

in coordinates F(u, v) = sum_j p_j u^j v^(n-j); the mark at infinity
(1 : 0) contributes the hyperplane p_n = 0.  Distinct marks give
coefficient rows of an extended Vandermonde matrix, so any k <= n of the
hyperplanes meet in a codimension-k projective subspace and more than n of
them have empty intersection: general position for free, which is why
`hyperplane_union_class` is pure inclusion-exclusion in (n, s).

The same symmetric-power class is computable a second way, as the t^n
coefficient of the zeta series of the marked line.  `sym_pair_p1_lambda`
and `sym_pair_p1_direct` must agree exactly; that equality is the entire
point of the example and is enforced by the verification suites.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence, Union

from .field import PrimeField
from .lefschetz import MotivicPolynomial, projective_class
from .pairs import PairClass, projective_line_marked
from .power import kapranov_zeta


class _Infinity:
    """Sentinel for the point (1 : 0) of the projective line."""

    _instance = None

    def __new__(cls) -> "_Infinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = _Infinity()

Mark = Union[int, _Infinity]


@dataclass(frozen=True)
class ProjectivePoint:
    """Point of projective space in canonical coordinates.

    Coordinates are field elements with the first nonzero entry scaled to
    1, so equality of points is equality of tuples.
    """

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.coords, tuple):
            object.__setattr__(self, "coords", tuple(self.coords))
        lead = next((c for c in self.coords if c != 0), None)
        if lead is None:
            raise ValueError("projective coordinates cannot all be zero")
        if lead != 1:
            raise ValueError("coordinates must be normalized: first nonzero entry 1")

    @classmethod
    def from_coords(cls, coords: Sequence[int], field: PrimeField | int) -> "ProjectivePoint":
        """Reduce mod q and rescale so the first nonzero coordinate is 1."""
        fld = field if isinstance(field, PrimeField) else PrimeField(field)
        reduced = [fld.element(c) for c in coords]
        lead = next((c for c in reduced if c != 0), None)
        if lead is None:
            raise ValueError("projective coordinates cannot all be zero")
        scale = fld.inv(lead)
        return cls(tuple(fld.mul(scale, c) for c in reduced))

    def __str__(self) -> str:
        return "(" + ":".join(str(c) for c in self.coords) + ")"


RootList = tuple[ProjectivePoint, ...]


@dataclass(frozen=True)
class MarkedP1Scene:
    """Distinct marked points of the projective line, optionally over F_q.

    Finite marks are stored as x for the point (x : 1); the point (1 : 0)
    is the INFINITY sentinel.  With a field size q present, finite marks
    must lie in 0..q-1 and at most q+1 distinct marks fit on the line.
    """

    marks: tuple[Mark, ...]
    q: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.marks, tuple):
            object.__setattr__(self, "marks", tuple(self.marks))
        if len(self.marks) != len(set(self.marks)):
            raise ValueError("marked points must be pairwise distinct")
        if self.q is not None:
            fld = PrimeField(self.q)  # validates primality
            for m in self.marks:
                if m is INFINITY:
                    continue
                if not isinstance(m, int) or not 0 <= m < fld.q:
                    raise ValueError(f"mark {m!r} is not an element of the {fld.q}-element field")
            if len(self.marks) > self.q + 1:
                raise ValueError(f"at most {self.q + 1} distinct marks exist over F_{self.q}")

    @classmethod
    def standard(cls, s: int, q: int) -> "MarkedP1Scene":
        """First s points of the line over F_q: 0, 1, ..., and lastly infinity."""
        if s < 0:
            raise ValueError("number of marks must be non-negative")
        if s > q + 1:
            raise ValueError(f"at most {q + 1} distinct marks exist over F_{q}")
        marks: tuple[Mark, ...] = tuple(range(min(s, q)))
        if s == q + 1:
            marks = marks + (INFINITY,)
        return cls(marks, q)


def hyperplane_union_class(n: int, s: int) -> MotivicPolynomial:
    """Class of a union of s general-position hyperplanes in projective n-space.

    Inclusion-exclusion over nonempty intersections: any k <= n of the
    hyperplanes meet in a projective space of dimension n - k, and any
    more than n have empty intersection.
    """
    if n < 0 or s < 0:
        raise ValueError("dimension and hyperplane count must be non-negative")
    total = MotivicPolynomial.zero()
    for k in range(1, min(s, n) + 1):
        term = projective_class(n - k) * comb(s, k)
        total = total + (term if k % 2 == 1 else -term)
    return total


def sym_pair_p1_direct(n: int, s: int) -> PairClass:
    """Symmetric-power pair of the s-marked line via the hyperplane picture."""
    if n < 0 or s < 0:
        raise ValueError("dimension and mark count must be non-negative")
    ambient = projective_class(n)
    return PairClass(ambient, ambient - hyperplane_union_class(n, s))


def sym_pair_p1_lambda(n: int, s: int) -> PairClass:
    """The same pair read off the zeta series of the marked line."""
    if n < 0 or s < 0:
        raise ValueError("dimension and mark count must be non-negative")
    return kapranov_zeta(projective_line_marked(s), n).coefficient(n)


def vieta_coefficients(
    roots: Sequence[ProjectivePoint | tuple[int, int]], q: int
) -> ProjectivePoint:
    """Coefficient vector of the binary form vanishing on a root multiset.

    Expands prod_i (u_i v - v_i u) over F_q and returns (p_0 : ... : p_n)
    with p_j the coefficient of u^j v^(n-j), normalized projectively.  The
    finite roots z_i = u_i / v_i are then the roots of
    p_0 + p_1 z + ... + p_n z^n.
    """
    fld = PrimeField(q)
    # form[j] holds the coefficient of u^j v^(deg - j); start from the constant form 1.
    form = [1]
    for root in roots:
        u, v = root.coords if isinstance(root, ProjectivePoint) else root
        u, v = fld.element(u), fld.element(v)
        if u == 0 and v == 0:
            raise ValueError("root coordinates cannot both be zero")
        widened = [0] * (len(form) + 1)
        for j, coeff in enumerate(form):
            widened[j] = fld.add(widened[j], fld.mul(u, coeff))      # times u*v
            widened[j + 1] = fld.sub(widened[j + 1], fld.mul(v, coeff))  # times -v*u
        form = widened
    return ProjectivePoint.from_coords(form, fld)


def point_in_marked_union(point: ProjectivePoint, scene: MarkedP1Scene) -> bool:
    """Whether the form with these coefficients vanishes at some marked point.

    For a finite mark x this is p_0 + p_1 x + ... + p_n x^n = 0; for the
    mark at infinity it is p_n = 0.
    """
    if scene.q is None:
        raise ValueError("the scene needs a field size for point membership tests")
    fld = PrimeField(scene.q)
    p = point.coords
    for mark in scene.marks:
        if mark is INFINITY:
            if p[-1] == 0:
                return True
        else:
            value = 0
            power = 1
            for coeff in p:
                value = fld.add(value, fld.mul(coeff, power))
                power = fld.mul(power, mark)
            if value == 0:
                return True
    return False
