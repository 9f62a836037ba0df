"""Brute-force ground truth for everything the algebra computes.

Four independent counting routes live here, none of which touches the
series machinery it is used to check:

* point enumeration in projective space over a prime field, for the
  hyperplane-union counts of the worked example, in bulk: one pass counts
  the points of P^n and those on some mark hyperplane, building the
  values of a mark's form at every point as byte strings;
* the exponential point-count identity for symmetric powers,
  sum_n |S^n X| t^n = exp(sum_r N_r t^r / r), evaluated by an exact
  integer recurrence from a list of extension counts N_r;
* exhaustive counting of squarefree monic polynomials by a sieve that
  marks every multiple of a square, the finite-field incarnation of
  configurations of distinct points on the affine line;
* exhaustive enumeration of weighted labelled configurations (K, phi) on
  a finite scene, the dimension-zero incarnation of the coefficients of
  the series exponential.

Enumeration budgets are explicit and overruns raise; an oracle must
refuse rather than silently sample.  Every refusal in the package, of an
enumeration, of the term products of a series or of a catalog class or
pair spec (`pairs` imports `charge` and `DEFAULT_BUDGET` from here), goes
through `charge`; `charge_each` refuses a list of enumerations one by one,
then as a whole.
Each oracle's work is priced once, by its `*_steps` function, which the
suites' dry plans read too; the marked-union pass charges nothing itself,
as its one caller, the suites' plan, prices it first.
"""

from __future__ import annotations

import itertools
import operator
from collections import deque
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from .field import is_prime
from .geometry import ProjectivePoint

DEFAULT_BUDGET = 10**7


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed its step budget; nothing was computed."""

    def __init__(self, needed: int, budget: int, what: str) -> None:
        super().__init__(f"{what} needs ~{needed} steps, budget is {budget}")
        self.needed = needed
        self.budget = budget


def charge(needed: int, what: str, budget: int) -> None:
    """Refuse work of `needed` steps, named `what`, when it is over the budget."""
    if needed > budget:
        raise BudgetExceededError(needed, budget, what)


def charge_each(enumerations: Sequence[tuple[int, str]], total: str, budget: int) -> None:
    """Refuse the first (steps, name) over the budget under its own name, else their sum under `total`."""
    for needed, what in enumerations:
        charge(needed, what, budget)
    charge(sum(needed for needed, _ in enumerations), total, budget)


def marked_union_steps(n: int, q: int, marks: int) -> tuple[int, str]:
    """Steps and name of testing every point of P^n(F_q) against every mark (at least one)."""
    against = f" against {marks} mark{'s' if marks > 1 else ''}" if marks else ""
    return (q ** (n + 1) - 1) // (q - 1) * max(1, marks), f"projective enumeration at q={q}, n={n}{against}"


def squarefree_steps(q: int, n: int) -> tuple[int, str]:
    """Steps and name of sieving the q^n monic polynomials of degree n over F_q."""
    return q**n, f"squarefree enumeration at q={q}, n={n}"


def power_config_steps(atoms: int, labels: int) -> tuple[int, str]:
    """Steps and name of visiting every labelled configuration: (1 + labels)^atoms."""
    return (1 + labels) ** atoms, "configuration enumeration"


def _shift_tables(q: int) -> list[bytes] | None:
    """`bytes.translate` tables, entry a adding a mod q to a value byte; None when q >= 256.

    Each table is a slice of one run of 0..q-1, made per call: no table
    outlives the enumeration that uses it.
    """
    if q >= 256:
        return None
    run = bytes(range(q)) * (256 // q + 2)
    return [run[a : a + 256] for a in range(q)]


def _affine_values(const: int, weights: Sequence[int], q: int, shifts: list[bytes] | None) -> bytes | Iterable[int]:
    """Values mod q of const + sum_j weights[j] * x_j at every x in F_q^k, in `itertools.product` order.

    With tables, one byte string built from the innermost coordinate out:
    the values over the inner coordinates are shifted by c * w for each
    value c of the next coordinate out, one `translate` each, and joined.
    Without them (q >= 256, where a value fits no byte), one per-point loop
    over plain coordinate tuples, made as it is read.
    """
    if shifts is None:
        points = itertools.product(range(q), repeat=len(weights))
        return ((const + sum(map(operator.mul, weights, x))) % q for x in points)
    values = bytes((const,))
    for w in reversed(weights):
        values = b"".join([values.translate(shifts[c * w % q]) for c in range(q)])
    return values


_VANISHES = b"\x01" + bytes(255)  # a translate table: 1 for a zero value, 0 otherwise


def _marked_union_pass(n: int, q: int, marks: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """(points of P^n(F_q), those on the hyperplane of some mark (u, v)), by one exhaustive pass.

    The points with first nonzero coordinate p_lead = 1 form a lead block,
    one point per tail in F_q^(n - lead), in the order of
    `enumerate_projective`.  At each block, the values of each mark's form
    sum_j u^j v^(n-j) p_j at every point are built (`_affine_values`),
    turned into zero flags, ORed over the marks as one int, and counted by
    `int.bit_count`.  The points are counted from the flags built, never
    from a formula: with no marks the constant form 1 is evaluated, which
    vanishes nowhere.
    """
    forms = [[u**j * v ** (n - j) % q for j in range(n + 1)] for u, v in marks]
    shifts = _shift_tables(q)
    total = on = 0
    for lead in range(n + 1):
        union = 0
        for const, weights in [(form[lead], form[lead + 1 :]) for form in forms] or [(1, [0] * (n - lead))]:
            values = _affine_values(const, weights, q, shifts)
            flags = values.translate(_VANISHES) if shifts is not None else bytes(map(operator.not_, values))
            union |= int.from_bytes(flags, "little")
        total += len(flags)  # one flag per point of the block, for every form alike
        on += union.bit_count()
    return total, on


def enumerate_projective(n: int, q: int, budget: int = DEFAULT_BUDGET) -> list[ProjectivePoint]:
    """All points of projective n-space over F_q, canonical and duplicate-free.

    Points are grouped by the position of the first nonzero coordinate,
    which is scaled to 1; the total is (q^(n+1) - 1) / (q - 1), and a total
    above the budget refuses before any point is built.
    """
    if n < 0:
        raise ValueError("dimension must be non-negative")
    if not is_prime(q):
        raise ValueError(f"field size must be prime, got {q}")
    charge(*marked_union_steps(n, q, 0), budget)
    return [
        ProjectivePoint((0,) * lead + (1,) + tail)
        for lead in range(n + 1)
        for tail in itertools.product(range(q), repeat=n - lead)
    ]


def weil_symmetric_counts(extension_counts: Sequence[int]) -> list[int]:
    """Symmetric-power point counts S_0..S_top from the extension counts N_1..N_top.

    Expands exp(sum_r N_r t^r / r) in exact integers via the
    log-derivative recurrence n*S_n = sum_{r=1..n} N_r * S_{n-r}.  Every
    division by n must be exact; a remainder is an arithmetic bug
    somewhere, so it raises instead of rounding.
    """
    counts = [1]
    for n in range(1, len(extension_counts) + 1):
        total = sum(extension_counts[r - 1] * counts[n - r] for r in range(1, n + 1))
        count, rest = divmod(total, n)
        if rest:
            raise ArithmeticError(f"symmetric-power count at degree {n} is not an integer: {total}/{n}")
        counts.append(count)
    return counts


def count_squarefree_monic(q: int, n: int, budget: int = DEFAULT_BUDGET) -> int:
    """Monic degree-n polynomials over F_q with no square factor g^2, deg g >= 1.

    Exhaustive over all q^n monic polynomials, as a sieve: every product
    g^2 * h of a monic g of degree at least 1 and a monic h is marked, and
    the count is the polynomials left unmarked.  Refuses beyond the budget.
    """
    if not is_prime(q):
        raise ValueError(f"field size must be prime, got {q}")
    if n < 1:
        raise ValueError("degree must be at least 1")
    charge(*squarefree_steps(q, n), budget)
    return q**n - _square_marks(q, n).count(1)


def _square_marks(q: int, n: int) -> bytearray:
    """Flags of the monic degree-n polynomials over F_q that have a square factor.

    Entry sum_i c_i q^i stands for x^n + sum_{i<n} c_i x^i.  For each monic g
    of degree d in 1..n//2, the multiples of g^2 of degree n are enumerated
    by their top coefficients.  Write f = x^(2d) K + r with K monic of
    degree m = n - 2d and deg r < 2d: f is a multiple of g^2 exactly when
    r = -x^(2d) K mod g^2.  With u_j = -x^(2d+j) mod g^2 (u_0 is g^2 less
    its top term, and u_(j+1) = x u_j mod g^2), coefficient i of r is
    u_m[i] + sum_{j<m} k_j u_j[i], affine in the low coefficients k_j of K,
    so its values at every K are one string (`_affine_values`).  The
    multiple with top K is entry K q^(2d) + sum_i r_i q^i.
    """
    marks = bytearray(q**n)
    shifts = _shift_tables(q)
    for d in range(1, n // 2 + 1):
        m = n - 2 * d
        rows = range(0, q**n, q ** (2 * d))
        for low in itertools.product(range(q), repeat=d):
            g = (*low, 1)
            square = [0] * (2 * d)  # g^2 less its top term
            for i, a in enumerate(g):
                for j, b in enumerate(g[: 2 * d - i]):
                    square[i + j] += a * b
            u = [[c % q for c in square]]
            for _ in range(m):
                top = u[-1][-1]
                u.append([-top * square[0] % q, *((c - top * s) % q for c, s in zip(u[-1], square[1:]))])
            # digit i of r at every K: the constant u_m[i], the weights u_(m-1)[i], ..., u_0[i]
            *digits, columns = [_affine_values(t[-1], t[-2::-1], q, shifts) for t in zip(*u)]
            for digit in reversed(digits):
                columns = map(operator.add, digit, map(operator.mul, columns, itertools.repeat(q)))
            # one entry per K, read back and set by loops in C
            deque(map(marks.__setitem__, map(operator.add, rows, columns), itertools.repeat(1)), maxlen=0)
    return marks


@dataclass(frozen=True)
class FiniteScene:
    """Finite model for exhaustive validation of series-exponential coefficients.

    `atoms` plays the base space with `marked_atoms` marked inside it;
    `labels[i]` is the pair of label sets of weight i+1, a tuple
    (all labels, marked labels).  Everything must be explicitly listed so
    configurations can be enumerated one by one.
    """

    atoms: tuple[Hashable, ...]
    marked_atoms: tuple[Hashable, ...]
    labels: tuple[tuple[tuple[Hashable, ...], tuple[Hashable, ...]], ...]

    def __post_init__(self) -> None:
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("atoms must be distinct")
        if not set(self.marked_atoms) <= set(self.atoms):
            raise ValueError("marked atoms must be a subset of the atoms")
        for full, marked in self.labels:
            if len(set(full)) != len(full):
                raise ValueError("labels of one weight must be distinct")
            if not set(marked) <= set(full):
                raise ValueError("marked labels must be a subset of the labels")

    @classmethod
    def from_sizes(cls, size: int, marked: int, label_sizes: Sequence[tuple[int, int]]) -> "FiniteScene":
        """Canonical scene with integer atoms 0..size-1, first `marked` marked."""
        if not 0 <= marked <= size:
            raise ValueError("marked count must lie between 0 and the atom count")
        labels = []
        for full, flagged in label_sizes:
            if not 0 <= flagged <= full:
                raise ValueError("marked label count must lie between 0 and the label count")
            labels.append((tuple(range(full)), tuple(range(flagged))))
        return cls(tuple(range(size)), tuple(range(marked)), tuple(labels))


def count_power_configs(
    scene: FiniteScene, top: int, budget: int = DEFAULT_BUDGET
) -> list[tuple[int, int]]:
    """Exhaustive (ambient, complement) counts of labelled configurations of weights 0..top.

    A configuration is a subset K of the atoms together with a map phi
    from K into the disjoint union of the label sets; its weight is the
    sum of the weights of the chosen labels.  The ambient count takes all
    of them; the complement count keeps only those where K avoids the
    marked atoms and the image of phi avoids the marked labels.  Entry n
    of the result holds the counts of weight n: the coefficient counts of
    (1 + sum_i |labels_i| t^i) raised to the power of the atom pair, which
    is what the suites compare against.

    One pass visits every (K, phi) once and puts it in the bucket of its
    weight; configurations heavier than top are visited and dropped.  The
    budget is checked against (1 + |labels|)^|atoms| before any is built.
    """
    if top < 0:
        raise ValueError("weight must be non-negative")
    # A label of weight w is coded as w, or as w + stride when it is marked.
    # An assignment picks at most |atoms| labels of weight at most |weights|,
    # so stride exceeds every total weight, and the sum of an assignment's
    # codes is its weight plus stride times its number of marked labels.
    stride = len(scene.labels) * len(scene.atoms) + 1
    codes = [
        i + 1 + (stride if label in marked else 0)
        for i, (full, marked) in enumerate(scene.labels)
        for label in full
    ]
    charge(*power_config_steps(len(scene.atoms), len(codes)), budget)
    marked_atoms = set(scene.marked_atoms)
    ambient = [0] * (top + 1)
    complement = [0] * (top + 1)
    for k_size in range(len(scene.atoms) + 1):
        for subset in itertools.combinations(scene.atoms, k_size):
            clean = marked_atoms.isdisjoint(subset)
            for code in map(sum, itertools.product(codes, repeat=k_size)):
                weight = code % stride
                if weight > top:
                    continue
                ambient[weight] += 1
                if clean and code < stride:
                    complement[weight] += 1
    return list(zip(ambient, complement))
