"""The ring of classes of variety pairs (a space with a marked subspace).

A pair class is stored through the measure (X, Y) -> ([X], [X minus Y]):
the class of the ambient space and the class of the complement of the
marked subspace, both as polynomials in L.  Under this measure the
cut-paste relation is componentwise addition, and the pair product
(X1 x X2 with marked set X1 x Y2 union Y1 x X2) is componentwise
multiplication, because the complement of that union is exactly
(X1 minus Y1) x (X2 minus Y2).  The ring is therefore the product of two
copies of the L-polynomial ring with unit (1, 1), the class of a point
with nothing marked.

The class of the marked subspace itself is derived, never stored:
subvariety = ambient - complement.

The catalog at the bottom provides every concrete generator used by the
verification suites, keyed by short names, and the pair-spec grammar
below it names catalog entries and their sums, products and negatives in
text, for the command line and the suites alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .lefschetz import MotivicPolynomial, projective_class

IntoPair = Union["PairClass", MotivicPolynomial, int]


@dataclass(frozen=True)
class PairClass:
    """Class of a variety pair: ambient class and complement class."""

    amb: MotivicPolynomial
    comp: MotivicPolynomial

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "PairClass":
        return cls(MotivicPolynomial.zero(), MotivicPolynomial.zero())

    @classmethod
    def one(cls) -> "PairClass":
        return cls(MotivicPolynomial.one(), MotivicPolynomial.one())

    @classmethod
    def unmarked(cls, ambient: MotivicPolynomial) -> "PairClass":
        """Pair with empty marked subspace: the complement is everything."""
        return cls(ambient, ambient)

    # -- derived class ----------------------------------------------------

    @property
    def subvariety(self) -> MotivicPolynomial:
        """Class of the marked subspace: ambient minus complement."""
        return self.amb - self.comp

    # -- ring structure ----------------------------------------------------

    @staticmethod
    def _coerce(value: IntoPair) -> "PairClass | None":
        if isinstance(value, PairClass):
            return value
        if isinstance(value, MotivicPolynomial):
            return PairClass(value, value)
        if isinstance(value, int) and not isinstance(value, bool):
            c = MotivicPolynomial.constant(value)
            return PairClass(c, c)
        return None

    def __add__(self, other: IntoPair) -> "PairClass":
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return PairClass(self.amb + coerced.amb, self.comp + coerced.comp)

    __radd__ = __add__

    def __neg__(self) -> "PairClass":
        return PairClass(-self.amb, -self.comp)

    def __sub__(self, other: IntoPair) -> "PairClass":
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self + (-coerced)

    def __rsub__(self, other: IntoPair) -> "PairClass":
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return coerced + (-self)

    def __mul__(self, other: IntoPair) -> "PairClass":
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return PairClass(self.amb * coerced.amb, self.comp * coerced.comp)

    __rmul__ = __mul__

    def evaluate(self, q: int) -> tuple[int, int]:
        """Point counts (ambient, complement) over the q-element field."""
        return (self.amb.evaluate(q), self.comp.evaluate(q))

    # -- rendering and serialization ----------------------------------------

    def __str__(self) -> str:
        return f"({self.amb} | {self.comp})"

    def to_json(self) -> dict:
        return {"amb": self.amb.to_json(), "comp": self.comp.to_json()}


# -- catalog of concrete generators ------------------------------------------


def point() -> PairClass:
    """A single point, nothing marked: the ring unit."""
    return PairClass.one()


def empty() -> PairClass:
    """The empty pair: the ring zero."""
    return PairClass.zero()


def finite(size: int, marked: int) -> PairClass:
    """A size-point set with `marked` of the points marked."""
    if size < 0 or marked < 0:
        raise ValueError("finite pair sizes must be non-negative")
    if marked > size:
        raise ValueError(f"cannot mark {marked} points out of {size}")
    return PairClass(MotivicPolynomial.constant(size), MotivicPolynomial.constant(size - marked))


def affine_line_marked(marks: int) -> PairClass:
    """The affine line with `marks` distinct marked points: (L, L - marks)."""
    if marks < 0:
        raise ValueError("number of marks must be non-negative")
    lef = MotivicPolynomial.lefschetz()
    return PairClass(lef, lef - marks)


def projective_line_marked(marks: int) -> PairClass:
    """The projective line with `marks` distinct marked points."""
    if marks < 0:
        raise ValueError("number of marks must be non-negative")
    p1 = projective_class(1)
    return PairClass(p1, p1 - marks)


def projective_space(dim: int) -> PairClass:
    """n-dimensional projective space with nothing marked."""
    return PairClass.unmarked(projective_class(dim))


def projective_space_with_hyperplanes(dim: int, count: int) -> PairClass:
    """Projective n-space with a union of general-position hyperplanes marked."""
    from .geometry import sym_pair_p1_direct  # deferred: geometry builds on this module

    return sym_pair_p1_direct(dim, count)


_CATALOG = {
    "point": (point, 0),
    "empty": (empty, 0),
    "finite": (finite, 2),
    "affine-marked": (affine_line_marked, 1),
    "p1-marked": (projective_line_marked, 1),
    "pn": (projective_space, 1),
    "pn-hyp": (projective_space_with_hyperplanes, 2),
}


def catalog(name: str, *params: int) -> PairClass:
    """Build a catalog pair by short name, e.g. catalog("finite", 3, 1)."""
    entry = _CATALOG.get(name)
    if entry is None:
        known = ", ".join(sorted(_CATALOG))
        raise ValueError(f"unknown catalog entry {name!r} (known: {known})")
    builder, arity = entry
    if len(params) != arity:
        raise ValueError(f"catalog entry {name!r} takes {arity} parameter(s), got {len(params)}")
    return builder(*params)


# -- pair-spec grammar --------------------------------------------------------

# Deepest accepted nesting of sum/prod/neg; the recursive descent stays far
# inside the interpreter's stack.
MAX_SPEC_DEPTH = 64


def split_atom(spec: str) -> tuple[str, tuple[int, ...]]:
    """Name and integer parameters of a catalog atom such as finite:3,1."""
    name, _, arg = spec.strip().partition(":")
    try:
        params = tuple(int(x) for x in arg.split(",")) if arg else ()
    except ValueError:
        raise ValueError(f"bad parameters in pair spec {spec!r}") from None
    return name.strip(), params


def _split_top(text: str) -> list[str]:
    """Split on commas outside parentheses; glue numeric parameters back on.

    A purely numeric fragment cannot start a spec (catalog names start
    with a letter), so it must be a parameter of the preceding atom, as
    in sum(finite:3,1,pn:2).
    """
    parts: list[str] = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
            if depth >= MAX_SPEC_DEPTH:
                raise ValueError(f"pair spec nested deeper than {MAX_SPEC_DEPTH} levels")
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {text!r}")
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    parts.append(text[start:])
    merged: list[str] = []
    for part in parts:
        part = part.strip()
        if not part:
            raise ValueError("empty item in spec list")
        if part.isdigit() and merged:
            merged[-1] += "," + part
        else:
            merged.append(part)
    return merged


def parse_pair_spec(spec: str) -> PairClass:
    """Evaluate a pair spec: catalog atoms plus sum/prod/neg combinators.

    The outermost combinator scans its whole argument, so nesting deeper
    than MAX_SPEC_DEPTH is rejected before any recursion.
    """
    spec = spec.strip()
    for head in ("sum", "prod", "neg"):
        if spec.startswith(head + "(") and spec.endswith(")"):
            parts = _split_top(spec[len(head) + 1 : -1])
            if head == "neg":
                if len(parts) != 1:
                    raise ValueError("neg(...) takes exactly one argument")
                return -parse_pair_spec(parts[0])
            values = [parse_pair_spec(p) for p in parts]
            total = PairClass.zero() if head == "sum" else PairClass.one()
            for value in values:
                total = total + value if head == "sum" else total * value
            return total
    name, params = split_atom(spec)
    return catalog(name, *params)
