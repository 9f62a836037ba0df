"""The ring of classes of variety pairs (a space with a marked subspace).

A pair class is stored through the measure (X, Y) -> ([X], [X minus Y]):
the class of the ambient space and the class of the complement of the
marked subspace, both as polynomials in L.  Under this measure the
cut-paste relation is componentwise addition, and the pair product
(X1 x X2 with marked set X1 x Y2 union Y1 x X2) is componentwise
multiplication, because the complement of that union is exactly
(X1 minus Y1) x (X2 minus Y2).  The ring is therefore the product of two
copies of the L-polynomial ring with unit (1, 1), the class of a point
with nothing marked.  Operands of the ring operations are pairs, and each
lane is plain Z[L] arithmetic: no integer or polynomial is coerced into a
pair.

The class of the marked subspace itself is derived, never stored:
subvariety = ambient - complement.

The catalog at the bottom provides every concrete generator used by the
verification suites, keyed by short names, and the pair-spec grammar
below it names catalog entries and their sums, products and negatives in
text, for the command line and the suites alike.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from .lefschetz import MotivicPolynomial, projective_class


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

    # -- ring structure: each lane is plain L-polynomial arithmetic ---------

    def __add__(self, other: "PairClass") -> "PairClass":
        return PairClass(self.amb + other.amb, self.comp + other.comp)

    def __neg__(self) -> "PairClass":
        return PairClass(-self.amb, -self.comp)

    def __sub__(self, other: "PairClass") -> "PairClass":
        return PairClass(self.amb - other.amb, self.comp - other.comp)

    def __mul__(self, other: "PairClass") -> "PairClass":
        return PairClass(self.amb * other.amb, self.comp * other.comp)

    @classmethod
    def series_product(cls, a: Sequence["PairClass"], b: Sequence["PairClass"]) -> tuple["PairClass", ...]:
        """The coefficients of a series product, one Z[L] series product per lane."""
        amb = MotivicPolynomial.series_product([f.amb for f in a], [g.amb for g in b])
        comp = MotivicPolynomial.series_product([f.comp for f in a], [g.comp for g in b])
        return tuple(map(cls, amb, comp))

    # -- rendering and serialization ----------------------------------------

    def __str__(self) -> str:
        return f"({self.amb} | {self.comp})"

    def to_json(self) -> dict:
        return {"amb": self.amb.to_json(), "comp": self.comp.to_json()}


# -- catalog of concrete generators ------------------------------------------


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
    return PairClass(lef, lef - MotivicPolynomial.constant(marks))


def projective_line_marked(marks: int) -> PairClass:
    """The projective line with `marks` distinct marked points."""
    if marks < 0:
        raise ValueError("number of marks must be non-negative")
    p1 = projective_class(1)
    return PairClass(p1, p1 - MotivicPolynomial.constant(marks))


def projective_space(dim: int) -> PairClass:
    """n-dimensional projective space with nothing marked."""
    return PairClass.unmarked(projective_class(dim))


def projective_space_with_hyperplanes(dim: int, count: int) -> PairClass:
    """Projective n-space with a union of general-position hyperplanes marked."""
    from .geometry import sym_pair_p1_direct  # deferred: geometry builds on this module

    return sym_pair_p1_direct(dim, count)


_CATALOG = {
    "point": (PairClass.one, 0),  # a single point, nothing marked: the ring unit
    "empty": (PairClass.zero, 0),  # the ring zero
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
    if name in ("pn", "pn-hyp"):
        # refused before building: pn:n has n + 1 terms, and pn-hyp:n,s sums
        # min(s, n) + 1 classes of at most n + 1 terms (the import is deferred:
        # oracle imports geometry, which imports this module)
        from .oracle import DEFAULT_BUDGET, charge

        n, s = (*params, 0)[:2]
        charge((n + 1) * (min(s, n) + 1), f"catalog class {name} of dimension {n}", DEFAULT_BUDGET)
    return builder(*params)


# -- pair-spec grammar --------------------------------------------------------

# Deepest accepted nesting of sum/prod/neg; the recursive descent stays far
# inside the interpreter's stack.
MAX_SPEC_DEPTH = 64
# A catalog parameter, inside a combinator or not: a run of ASCII digits,
# spaces around it allowed (int() alone would also take +1, 1_0 and other
# scripts' digits).
_PARAM = re.compile(r"\s*[0-9]+\s*")


def split_atom(spec: str) -> tuple[str, tuple[int, ...]]:
    """Name and integer parameters of a catalog atom such as finite:3,1."""
    name, _, arg = spec.strip().partition(":")
    params = arg.split(",") if arg else []
    if not all(map(_PARAM.fullmatch, params)):
        raise ValueError(f"bad parameters in pair spec {spec!r}")
    return name.strip(), tuple(map(int, params))


def _split_top(text: str) -> list[str]:
    """Split on commas outside parentheses; glue parameters back on.

    A fragment that is a parameter (_PARAM) cannot start a spec (catalog
    names start with a letter), so it belongs to the preceding atom, as in
    sum(finite:3,1,pn:2).
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
        if _PARAM.fullmatch(part) and merged:
            merged[-1] += "," + part
        else:
            merged.append(part)
    return merged


def parse_pair_spec(spec: str) -> PairClass:
    """Evaluate a pair spec: catalog atoms plus sum/prod/neg combinators.

    The outermost combinator scans its whole argument, so nesting deeper
    than MAX_SPEC_DEPTH is rejected before any recursion.  Before each sum
    or product step the work of the whole spec so far is charged against
    the default budget: the terms of every atom, per lane 2 (T_f + T_g)
    terms for every sum, which reads both operands and writes at most as
    many terms, and per lane T_f T_g term products for every product.
    """
    return _evaluate(spec, [0])


def _evaluate(spec: str, work: list[int]) -> PairClass:
    # work[0] is the work of the whole spec so far (see parse_pair_spec)
    from .oracle import DEFAULT_BUDGET, charge  # deferred, as in catalog

    spec = spec.strip()
    for head in ("sum", "prod", "neg"):
        if spec.startswith(head + "(") and spec.endswith(")"):
            parts = _split_top(spec[len(head) + 1 : -1])
            if head == "neg":
                if len(parts) != 1:
                    raise ValueError("neg(...) takes exactly one argument")
                return -_evaluate(parts[0], work)
            total = PairClass.zero() if head == "sum" else PairClass.one()
            for part in parts:
                value = _evaluate(part, work)
                for f, g in ((total.amb, value.amb), (total.comp, value.comp)):
                    t, u = len(f._coeffs), len(g._coeffs)
                    work[0] += 2 * (t + u) if head == "sum" else t * u
                charge(work[0], "pair spec terms and term products", DEFAULT_BUDGET)
                total = total + value if head == "sum" else total * value
            return total
    name, params = split_atom(spec)
    value = catalog(name, *params)
    work[0] += len(value.amb._coeffs) + len(value.comp._coeffs)
    return value
