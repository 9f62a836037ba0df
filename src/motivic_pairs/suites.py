"""Named verification suites: every identity the engine claims, run as data.

Each suite is a function (order, fields, budget) -> list of row dicts,
and rows come in two shapes:

* identity rows {"axiom", "sample", "order", "pass", "first_mismatch_degree"}
  for coefficientwise series comparisons;
* oracle rows {"check", "params", "expected", "actual", "pass"} comparing
  an engine value against an independently computed one (brute-force
  counts, closed forms, collected counterexamples).

Row order is fixed and all sampling uses constant seeds, so a suite run
is reproducible byte for byte.  `run_suite` wraps one suite into a report
dict; the `SUITES` registry drives the command line.

Every suite is one function of a `_Plan` of engine and oracle calls:
run dry, the plan sums the term-product bound of each series call and
lists the steps of each enumeration, building, drawing and counting
nothing, and over the budget the suite refuses; run live, it makes the
series and calls the oracles.  So the bound and the work are the same
code, and no series or oracle call of a suite is made outside its plan.
The `zeta`, `pow` and `example` commands run on the same plan through
`_planned`, under their own refusal names, so `_planned` holds every
up-front charge outside the oracles and the pair-spec grammar.

Suites whose content is an exhaustive grid (the worked example, the
finite-scene enumeration, the counting oracles) fix their own ranges; the
order parameter governs the suites that check formal series identities.
"""

from __future__ import annotations

import functools
import itertools
import random
from math import comb
from typing import Any, Callable, Iterable, Iterator, Sequence

from .field import is_prime
from .geometry import MarkedP1Scene, point_in_marked_union, vieta_coefficients
from .lefschetz import MotivicPolynomial, projective_class, zeta_series
from .oracle import (
    DEFAULT_BUDGET,
    FiniteScene,
    _marked_union_pass,
    charge,
    charge_each,
    count_power_configs,
    count_squarefree_monic,
    enumerate_projective,
    marked_union_steps,
    power_config_steps,
    squarefree_steps,
    weil_symmetric_counts,
)
from .pairs import _MARKED_PN, PairClass, catalog, parse_pair_spec, split_atom
from .power import (
    _slopes,
    config_cost,
    config_series_pair,
    geometric_series,
    kapranov_zeta,
    mul_cost,
    one_plus,
    pow_cost,
    power_pow,
    tail_slopes,
    zeta_cost,
)
from .series import TruncatedSeries

RING_SEED = 1729
SUM_SEED = 6174
SERIES_SAMPLES = 10  # ring-axioms: random series triples, and division cases
ZETA_SAMPLES = 12  # ring-axioms: random polynomial pairs for the zeta rows

CATALOG_SPECS = (
    "point",
    "empty",
    "finite:2,0",
    "finite:2,1",
    "finite:3,1",
    "finite:4,2",
    "finite:5,5",
    "affine-marked:0",
    "affine-marked:1",
    "affine-marked:2",
    "affine-marked:3",
    "p1-marked:0",
    "p1-marked:1",
    "p1-marked:2",
    "p1-marked:3",
    "p1-marked:4",
    "pn:1",
    "pn:2",
    "pn:3",
    "pn-hyp:2,1",
    "pn-hyp:2,2",
    "pn-hyp:3,2",
    "pn-hyp:3,3",
)


def catalog_samples() -> tuple[tuple[str, PairClass], ...]:
    """The named generator classes every sampling suite draws from."""
    return tuple((spec, parse_pair_spec(spec)) for spec in CATALOG_SPECS)


def _check(check: str, params: dict, expected, actual) -> dict:
    return _bound(check, params, expected, actual, expected == actual)


def _bound(check: str, params: dict, expected: str, actual, ok: bool) -> dict:
    return {"check": check, "params": params, "expected": expected, "actual": actual, "pass": ok}


def first_mismatch(a: TruncatedSeries, b: TruncatedSeries) -> int | None:
    """Smallest degree where two windows disagree, or None if they agree.

    Windows of different orders disagree at the first degree past the
    shorter one, so a truncated result never passes against a full one.
    """
    n = min(a.order, b.order)
    for k in range(n + 1):
        if a.coeffs[k] != b.coeffs[k]:
            return k
    return None if a.order == b.order else n + 1


def axiom_row(axiom: str, sample: str, order: int, lhs: TruncatedSeries, rhs: TruncatedSeries) -> dict:
    """Report row for one coefficientwise series comparison."""
    return _identity_row(axiom, sample, order, first_mismatch(lhs, rhs))


def _identity_row(axiom: str, sample: str, order: int, mismatch: int | None) -> dict:
    # an identity row, which passes when no degree mismatches
    return {
        "axiom": axiom,
        "sample": sample,
        "order": order,
        "pass": mismatch is None,
        "first_mismatch_degree": mismatch,
    }


def _axiom_rows(comparisons: Iterable[tuple], order: int) -> list[dict]:
    return [axiom_row(axiom, sample, order, lhs, rhs) for axiom, sample, lhs, rhs in comparisons]


# -- the plan of a suite or a command ---------------------------------------------
#
# The term-product bounds are zeta_cost, config_cost, pow_cost and mul_cost,
# and the enumeration prices those of the oracle module.  A lane bound (s, t)
# says the t^j coefficient has L-degree below s*j + t, so at most s*j + t
# terms, which is how mul_cost reads it.


_ONE = PairClass.one()


class _Plan:
    """The engine and oracle calls of a suite or a command, made live or priced dry.

    A live plan makes every series and calls every oracle.  A dry plan does
    neither: each series call adds its term-product bound to `cost` and
    returns, in place of its series, its bound (s, t) per lane; each oracle
    call appends its (steps, name) to `enumerations` and returns None; and
    a random draw draws nothing and stands for its worst case.  So a suite
    written once as a function of a plan is bounded by exactly the calls it
    makes (see _planned).
    """

    def __init__(self, order: int, live: bool, budget: int = DEFAULT_BUDGET) -> None:
        self.order, self.live, self.budget = order, live, budget
        self.cost, self.enumerations, self.powers = 0, [], {}

    # -- series

    def zeta(self, p: Any) -> Any:
        # of a pair, or of one Z[L] lane
        if self.live:
            return kapranov_zeta(p, self.order) if isinstance(p, PairClass) else zeta_series(p, self.order)
        self.cost += zeta_cost(p, self.order)
        return _slopes(p)

    def config(self, p: PairClass) -> Any:
        if self.live:
            return config_series_pair(p, self.order)
        self.cost += config_cost(p, self.order)
        return _slopes(p)

    def one_plus(self, *tail: PairClass) -> Any:
        return one_plus(tail, self.order, _ONE) if self.live else tuple((s, 1) for s in tail_slopes(tail))

    def unit(self, one: Any) -> Any:
        # the series 1, of pairs or of one Z[L] lane as `one` is
        return one_plus((), self.order, one) if self.live else _slopes(one)

    def geometric(self) -> Any:
        return geometric_series(self.order, _ONE) if self.live else _slopes(_ONE)

    def pow(self, a: Any, m: Any) -> Any:
        if self.live:
            return power_pow(a, m)
        # priced once per distinct (bounds, exponent): a suite raises many bases to few exponents
        if (a, m) not in self.powers:
            self.powers[a, m] = (
                pow_cost([s for s, _ in a], m, self.order),  # a series raised here has the bounds (s, 1)
                tuple((s + d, 1) for (s, _), (d, _) in zip(a, _slopes(m))),  # see pow_cost
            )
        cost, bounds = self.powers[a, m]
        self.cost += cost
        return bounds

    def mul(self, a: Any, b: Any) -> Any:
        if self.live:
            return a * b
        self.cost += sum(mul_cost(self.order, la, lb) for la, lb in zip(a, b))
        return tuple((max(sa, sb), ta + tb - 1) for (sa, ta), (sb, tb) in zip(a, b))

    def divide(self, a: Any, u: Any) -> Any:
        # u_0 = 1 and q_n = a_n - sum u_j q_(n-j): each step adds at most the
        # L-degree of a u_j, and the products are at most those of u * q
        if self.live:
            return _divide(a, u)
        quotient = tuple((max(sa, su + tu - 1), ta) for (sa, ta), (su, tu) in zip(a, u))
        self.mul(u, quotient)
        return quotient

    def head(self, a: Any, n: int) -> Any:
        # the coefficients up to t^n, which costs no product
        return TruncatedSeries(a.coeffs[: n + 1]) if self.live else a

    def random_lane(self, rng: random.Random) -> MotivicPolynomial:
        # dry: the worst case of _random_poly, 4 terms up to L^3
        return _random_poly(rng) if self.live else projective_class(3)

    def random_series(self, rng: random.Random, unit: bool = False) -> Any:
        # coefficients of _random_poly, after a constant 1 if unit; dry, the
        # worst case: L-degree at most 3 at every t^j, so the bound (0, 4)
        if not self.live:
            return ((0, 4),)
        head = (MotivicPolynomial.one(),) if unit else ()
        return TruncatedSeries(head + tuple(_random_poly(rng) for _ in range(self.order + 1 - len(head))))

    # -- oracles

    def affine_line(self, q: int, s: int) -> Any:
        # (points of the line over F_q, those off its first s)
        if self.live:
            points = range(q)
            return len(points), len([x for x in points if x >= s])
        self.enumerations.append((q, f"affine line enumeration at q={q}"))

    def scene(self, n: int, q: int, s: int) -> Any:
        # (points of P^n over F_q, those on no mark): one pass evaluates every point at every mark
        if not self.live:
            self.enumerations.append(marked_union_steps(n, q, s))
            return None
        total, on_marks = _marked_union_pass(n, q, [mark.coords for mark in MarkedP1Scene.standard(s, q).marks])
        return total, total - on_marks

    def points(self, n: int, q: int) -> Any:
        if self.live:
            return enumerate_projective(n, q, self.budget)
        self.enumerations.append(marked_union_steps(n, q, 0))

    def root_tuples(self, line: Any, q: int, n: int) -> Any:
        # the n-multisets of the points of the line over F_q
        if self.live:
            return itertools.combinations_with_replacement(line, n)
        self.enumerations.append((comb(q + n, n), f"root tuples at q={q}, n={n}"))

    def squarefree(self, q: int, n: int) -> Any:
        if self.live:
            return count_squarefree_monic(q, n, self.budget)
        self.enumerations.append(squarefree_steps(q, n))

    def power_configs(self, size: int, marked: int, labels: Sequence[tuple[int, int]], top: int) -> Any:
        if self.live:
            return count_power_configs(FiniteScene.from_sizes(size, marked, labels), top, self.budget)
        self.enumerations.append(power_config_steps(size, sum(full for full, _ in labels)))


def _planned(
    what: str | tuple[str, str], order: int, budget: int, *parts: Callable[[_Plan], Iterable]
) -> list[Iterable]:
    # Every part runs on a dry plan, and over the budget the plan refuses: on
    # its term products, then on its enumerations (see charge_each), each
    # under its name in `what`, a command's pair of names or the name of a
    # suite, which names both.  Then each part on a live plan is returned
    # unstarted, so that a caller making rows as it goes holds only the
    # series of the current row.
    dry = _Plan(order, live=False)
    for part in parts:
        for _ in part(dry):
            pass
    priced, listed = (f"{what} suite at order {order}", f"{what} suite enumerations") if isinstance(what, str) else what
    charge(dry.cost, priced, budget)
    charge_each(dry.enumerations, listed, budget)
    live = _Plan(order, live=True, budget=budget)
    return [part(live) for part in parts]


# -- ring-axioms ---------------------------------------------------------------


def _random_poly(rng: random.Random) -> MotivicPolynomial:
    return MotivicPolynomial({d: rng.randint(-4, 4) for d in range(4)})


def _random_pair(rng: random.Random) -> PairClass:
    return PairClass(_random_poly(rng), _random_poly(rng))


def _divide(a: TruncatedSeries, u: TruncatedSeries) -> TruncatedSeries:
    # a / u to the common order, for Z[L] series with u_0 = 1: the long
    # division q_n = a_n - sum u_j q_{n-j} needs no coefficient division
    if u.coeffs[0] != MotivicPolynomial.one():
        raise ValueError("division requires a divisor with constant term 1")
    quot: list[MotivicPolynomial] = []
    for k in range(min(a.order, u.order) + 1):
        quot.append(a.coeffs[k] - MotivicPolynomial.sum_of_products(zip(u.coeffs[1:], reversed(quot))))
    return TruncatedSeries(tuple(quot))


def _law_row(check: str, holds: Sequence[bool]) -> dict:
    bad = [f"sample {i}" for i, ok in enumerate(holds) if not ok]
    return _check(check, {"samples": len(holds), "seed": RING_SEED}, [], bad)


def _series_laws(plan: _Plan, rng: random.Random) -> Iterator[tuple[str, list]]:
    # (check, whether each sample holds) of the series and zeta laws; both
    # sides of a sample are made before they are compared, so a dry plan
    # prices them whatever the comparison says
    mul, divide, zeta = plan.mul, plan.divide, plan.zeta
    triples = [tuple(plan.random_series(rng) for _ in range(3)) for _ in range(SERIES_SAMPLES)]
    divisions = [(plan.random_series(rng), plan.random_series(rng, unit=True)) for _ in range(SERIES_SAMPLES)]
    lanes = [(plan.random_lane(rng), plan.random_lane(rng)) for _ in range(ZETA_SAMPLES)]
    unit = plan.unit(MotivicPolynomial.one())
    yield "series-mul-commutative", [mul(a, b) == mul(b, a) for a, b, _ in triples]
    yield "series-mul-associative", [mul(mul(a, b), c) == mul(a, mul(b, c)) for a, b, c in triples]
    yield "series-div-roundtrip", [
        (mul(divide(a, u), u), mul(divide(unit, u), u)) == (a, unit) for a, u in divisions
    ]
    yield "zeta-multiplicative-base", [zeta(a + b) == mul(zeta(a), zeta(b)) for a, b in lanes]
    yield "zeta-inverse", [mul(zeta(-a), zeta(a)) == unit for a, _ in lanes]


def _brute_counts(plan: _Plan, spec: str, q: int) -> tuple[int, int] | None:
    """Point counts (ambient, complement) of a catalog scene over F_q.

    Counts by explicit enumeration, never by evaluating classes.  Returns
    None when the scene does not exist over F_q (more marks than points),
    and on a dry plan for a scene it enumerates.
    """
    name, params = split_atom(spec)
    if name in ("point", "empty", "finite"):
        size, marked = {"point": (1, 0), "empty": (0, 0)}.get(name, params)
        atoms = range(size)
        return len(atoms), len([a for a in atoms if a >= marked])
    if name == "affine-marked":
        (s,) = params
        return plan.affine_line(q, s) if s <= q else None
    # P^n with s standard marks
    shape, _ = _MARKED_PN[name]
    n, s = shape(*params)
    return plan.scene(n, q, s) if s <= q + 1 else None


# The ring laws, each on a sample (a, b, c) of polynomials or of pairs
_RING_LAWS = [
    ("add-commutative", lambda a, b, c: a + b == b + a),
    ("add-associative", lambda a, b, c: (a + b) + c == a + (b + c)),
    ("mul-commutative", lambda a, b, c: a * b == b * a),
    ("mul-associative", lambda a, b, c: (a * b) * c == a * (b * c)),
    ("distributive", lambda a, b, c: a * (b + c) == a * b + a * c),
    ("identities", lambda a, b, c: a + type(a).zero() == a and a * type(a).one() == a and a - a == type(a).zero()),
]


def suite_ring_axioms(order: int, fields: tuple[int, ...], budget: int) -> list[dict]:
    """Ring laws, series laws, zeta structure, and catalog scenes vs enumeration.

    Refuses over the budget before drawing a series or counting a scene.
    """
    scenes = [(spec, q, entry) for spec, entry in catalog_samples() for q in fields]
    rng = random.Random(RING_SEED)
    # the live series laws draw after the polynomial and pair samples below
    laws, (p1_zeta,), counts, lines = _planned(
        "ring-axioms",
        order,
        budget,
        lambda plan: _series_laws(plan, rng),
        lambda plan: [plan.zeta(projective_class(1))],
        lambda plan: ((spec, q, entry, _brute_counts(plan, spec, q)) for spec, q, entry in scenes),
        lambda plan: ((q, plan.points(1, q)) for q in fields),
    )
    polys = [tuple(_random_poly(rng) for _ in range(3)) for _ in range(25)]
    pairs = [tuple(_random_pair(rng) for _ in range(3)) for _ in range(25)]
    rows = [_law_row(f"mp-{name}", [law(*sample) for sample in polys]) for name, law in _RING_LAWS]
    rows += [
        _law_row("pair-ring-laws", [all(law(*sample) for _, law in _RING_LAWS) for sample in pairs]),
        # the product's marked set is a union, so its class obeys inclusion-exclusion
        _law_row(
            "pair-union-formula",
            [
                (a * b).subvariety == a.amb * b.subvariety + a.subvariety * b.amb - a.subvariety * b.subvariety
                for a, b, _ in pairs
            ],
        ),
        *(_law_row(check, holds) for check, holds in laws),
        _check(
            "zeta-p1-is-projective-classes",
            {"order": order},
            [str(projective_class(n)) for n in range(order + 1)],
            [str(c) for c in p1_zeta.coeffs],
        ),
    ]
    rows += [
        _check(
            "projective-specialization",
            {"q": q, "max_dim": 10},
            [(q ** (n + 1) - 1) // (q - 1) for n in range(11)],
            [projective_class(n).evaluate(q) for n in range(11)],
        )
        for q in fields
    ]
    counted = [
        ({"entry": spec, "q": q}, list(found), [entry.amb.evaluate(q), entry.comp.evaluate(q)])
        for spec, q, entry, found in counts
        if found is not None
    ]
    rows += [_check("catalog-count", *row) for row in counted]
    rows += [
        _bound("catalog-effective", params, "0 <= comp <= amb", [comp, amb], 0 <= comp <= amb)
        for params, _, (amb, comp) in counted
    ]

    squared = parse_pair_spec("prod(p1-marked:1,p1-marked:1)")
    for q, points in lines:
        (mark,) = MarkedP1Scene.standard(1, q).marks
        on_union = [(x, y) for x in points for y in points if x == mark or y == mark]
        total = len(points) ** 2
        rows.append(
            _check(
                "pair-product-count",
                {"entry": "prod(p1-marked:1,p1-marked:1)", "q": q},
                [total, total - len(on_union)],
                [squared.amb.evaluate(q), squared.comp.evaluate(q)],
            )
        )

    product = parse_pair_spec("prod(finite:3,1,finite:2,0)")
    atoms = [(i, j) for i in range(3) for j in range(2)]
    unmarked = [(i, j) for i, j in atoms if i >= 1]
    rows.append(
        _check(
            "pair-product-count",
            {"entry": "prod(finite:3,1,finite:2,0)"},
            [len(atoms), len(unmarked)],
            [product.amb.coefficient(0), product.comp.coefficient(0)],
        )
    )
    rows.append(
        _check(
            "pair-cut-paste",
            {"entry": "p1-marked:2", "cut": "one marked point"},
            str(parse_pair_spec("p1-marked:2")),
            str(parse_pair_spec("sum(finite:1,1,affine-marked:1)")),
        )
    )
    return rows


# -- statements 1 and 2 --------------------------------------------------------


def _multiplicativity_laws(plan: _Plan, prefix: str, samples: Sequence) -> Iterator[tuple]:
    # series(p + r) = series(p) * series(r) over 24 sampled sums, then 1 + p t + ...;
    # prefix names the plan's series, zeta or config
    series, head = getattr(plan, prefix), min(plan.order, 1)
    sums = random.Random(SUM_SEED).sample(list(itertools.combinations_with_replacement(samples, 2)), 24)
    for (name_p, p), (name_r, r) in sums:
        yield f"{prefix}-multiplicative", f"{name_p} + {name_r}", series(p + r), plan.mul(series(p), series(r))
    for name, p in samples:
        unit = plan.head(plan.one_plus(p), head)
        yield f"{prefix}-unit-and-linear-term", name, plan.head(series(p), head), unit


def suite_statement1(order: int, fields: tuple[int, ...], budget: int) -> list[dict]:
    """Multiplicativity of the symmetric-power series over catalog sums.

    Refuses over the budget before building any series.
    """
    samples = catalog_samples()
    (comparisons,) = _planned("statement1", order, budget, lambda plan: _multiplicativity_laws(plan, "zeta", samples))
    return _axiom_rows(comparisons, order)


def suite_statement2(order: int, fields: tuple[int, ...], budget: int) -> list[dict]:
    """Multiplicativity of the configuration series over catalog sums.

    Refuses over the budget before building any series.
    """
    samples = catalog_samples()

    def laws(plan: _Plan) -> Iterator[tuple]:
        yield from _multiplicativity_laws(plan, "config", samples)
        yield "config-of-unit-is-one-plus-t", "point", plan.config(_ONE), plan.one_plus(_ONE)

    (comparisons,) = _planned("statement2", order, budget, laws)
    return _axiom_rows(comparisons, order)


# -- power axioms and identities -------------------------------------------------


def _exponent_laws(plan: _Plan, name: str, a: Any, b: Any, m1: Any, m2: Any) -> Iterator[tuple]:
    """The five exponent laws on one sample (name, A, B, m1, m2).

    A^0 = 1, A^1 = A, (A*B)^m1 = A^m1 * B^m1, A^(m1+m2) = A^m1 * A^m2 and
    A^(m1*m2) = (A^m2)^m1.  The unit comes from the exponent's type, so a
    live plan checks single Z[L] lanes as well as pairs.
    """
    zero, one = type(m1).zero(), type(m1).one()
    a_m1, a_m2 = plan.pow(a, m1), plan.pow(a, m2)
    yield "zero-exponent", name, plan.pow(a, zero), plan.unit(one)
    yield "unit-exponent", name, plan.pow(a, one), a
    yield "base-multiplicative", name, plan.pow(plan.mul(a, b), m1), plan.mul(a_m1, plan.pow(b, m1))
    yield "exponent-additive", name, plan.pow(a, m1 + m2), plan.mul(a_m1, a_m2)
    yield "exponent-multiplicative", name, plan.pow(a, m1 * m2), plan.pow(a_m2, m1)


def _identity_laws(plan: _Plan, name: str, p: PairClass) -> Iterator[tuple]:
    """(1/(1-t))^p is the symmetric-power series of p, and (1 + t)^p its configuration series."""
    yield "geometric-power-is-zeta", name, plan.pow(plan.geometric(), p), plan.zeta(p)
    yield "binomial-power-is-config", name, plan.pow(plan.one_plus(_ONE), p), plan.config(p)


# Bases of the power-axioms suite are recipes (plan method, *pair specs):
# ("geometric",) is 1/(1-t), ("one_plus", c_1, c_2, ...) is 1 + c_1 t + c_2 t^2 + ...,
# and ("zeta", p) and ("config", p) are the series of p.  Exponents are pair specs.

_GEO, _OPT = ("geometric",), ("one_plus", "point")
_POWER_SAMPLES = [
    ("A=1+t, B=1/(1-t); m1=finite:3,1, m2=finite:2,1", _OPT, _GEO, "finite:3,1", "finite:2,1"),
    ("A=1/(1-t), B=zeta(p1-marked:1); m1=p1-marked:2, m2=pn:1", _GEO, ("zeta", "p1-marked:1"), "p1-marked:2", "pn:1"),
    ("A=1+t+t^2, B=1+t; m1=p1-marked:1, m2=finite:2,1",
     ("one_plus", "point", "point"), _OPT, "p1-marked:1", "finite:2,1"),
    ("A=1/(1-t), B=1+t; m1=finite:3,1-pn:1, m2=point-affine-marked:1",
     _GEO, _OPT, "sum(finite:3,1,neg(pn:1))", "sum(point,neg(affine-marked:1))"),
    ("A=1+t, B=zeta(finite:2,1); m1=-p1-marked:2, m2=finite:4,2",
     _OPT, ("zeta", "finite:2,1"), "neg(p1-marked:2)", "finite:4,2"),
    ("A=zeta(finite:2,1), B=1+t; m1=affine-marked:1, m2=p1-marked:3",
     ("zeta", "finite:2,1"), _OPT, "affine-marked:1", "p1-marked:3"),
    ("A=config(p1-marked:1), B=1/(1-t); m1=pn:2, m2=point", ("config", "p1-marked:1"), _GEO, "pn:2", "point"),
    ("A=1+t, B=1/(1-t); m1=pn:2-p1-marked:1, m2=finite:5,5", _OPT, _GEO, "sum(pn:2,neg(p1-marked:1))", "finite:5,5"),
    ("A=1+[affine-marked:0]t, B=1/(1-t); m1=affine-marked:0, m2=-point",
     ("one_plus", "affine-marked:0"), _GEO, "affine-marked:0", "neg(point)"),
    ("A=1+t, B=1+t; m1=empty, m2=pn:3", _OPT, _OPT, "empty", "pn:3"),
    ("A=1+[finite:2,1]t+[p1-marked:1]t^2+[finite:3,3]t^3, B=zeta(pn:1); m1=finite:3,2-affine-marked:2, m2=pn:1",
     ("one_plus", "finite:2,1", "p1-marked:1", "finite:3,3"), ("zeta", "pn:1"),
     "sum(finite:3,2,neg(affine-marked:2))", "pn:1"),
    ("A=1/(1-t), B=1+[pn:1]t; m1=p1-marked:4-finite:2,2, m2=affine-marked:3",
     _GEO, ("one_plus", "pn:1"), "sum(p1-marked:4,neg(finite:2,2))", "affine-marked:3"),
]
_ROUNDTRIP_BASES = [
    ("1+t", _OPT),
    ("1/(1-t)", _GEO),
    ("zeta(p1-marked:2)", ("zeta", "p1-marked:2")),
    ("config(pn:2)", ("config", "pn:2")),
    ("1+[finite:2,1]t+[p1-marked:1]t^2", ("one_plus", "finite:2,1", "p1-marked:1")),
]
# every scene here exists over F_2 already, so the counts stay genuine for all prime fields
_EFFECTIVE_COMBOS = [
    ("(1+t)^finite:4,2", _OPT, "finite:4,2"),
    ("(1+t)^pn-hyp:2,2", _OPT, "pn-hyp:2,2"),
    ("(1/(1-t))^p1-marked:3", _GEO, "p1-marked:3"),
    ("(1/(1-t))^pn:2", _GEO, "pn:2"),
    ("zeta(p1-marked:1)^finite:3,1", ("zeta", "p1-marked:1"), "finite:3,1"),
    ("(1+[p1-marked:2]t+[finite:2,1]t^2+[affine-marked:1]t^3)^affine-marked:2",
     ("one_plus", "p1-marked:2", "finite:2,1", "affine-marked:1"), "affine-marked:2"),
]


def suite_power_axioms(order: int, fields: tuple[int, ...], budget: int) -> list[dict]:
    """The five exponent laws, factorization round-trips, and effectiveness.

    Refuses over the budget before building anything.
    """
    e = functools.cache(parse_pair_spec)  # each spec parsed once a run

    def base(plan: _Plan, recipe: tuple) -> Any:
        return getattr(plan, recipe[0])(*map(e, recipe[1:]))

    def laws(plan: _Plan) -> Iterator[tuple]:
        for name, a, b, m1, m2 in _POWER_SAMPLES:
            yield from _exponent_laws(plan, name, base(plan, a), base(plan, b), e(m1), e(m2))
        for name, recipe in _ROUNDTRIP_BASES:
            series = base(plan, recipe)
            yield "factor-roundtrip", name, plan.pow(series, _ONE), series

    def powers(plan: _Plan) -> Iterator[tuple[str, Any]]:
        for name, recipe, exponent in _EFFECTIVE_COMBOS:
            yield name, plan.pow(base(plan, recipe), e(exponent))

    comparisons, powered_combos = _planned("power-axioms", order, budget, laws, powers)
    rows = _axiom_rows(comparisons, order)
    for name, powered in powered_combos:
        for q in fields:
            bad = (n for n, c in enumerate(powered.coeffs) if not 0 <= c.comp.evaluate(q) <= c.amb.evaluate(q))
            rows.append(_identity_row("effective", f"{name} at q={q}", order, next(bad, None)))
    return rows


def suite_identities(order: int, fields: tuple[int, ...], budget: int) -> list[dict]:
    """Exponential forms of both series for every catalog generator.

    Refuses over the budget before building anything.
    """
    samples = catalog_samples()

    def laws(plan: _Plan) -> Iterator[tuple]:
        for name, p in samples:
            yield from _identity_laws(plan, name, p)

    (comparisons,) = _planned("identities", order, budget, laws)
    return _axiom_rows(comparisons, order)


# -- the worked example ----------------------------------------------------------


def suite_example_p1(order: int, fields: tuple[int, ...], budget: int) -> list[dict]:
    """Marked-line symmetric powers: both pipelines, counts, and the root map.

    The zeta series of the marked lines are made to order 8 whatever the
    suite's order.  Refuses over the budget before it builds a series, a
    scene or a point.
    """
    top = 8
    scenes = [(q, n, s) for q in fields for n in range(1, 4) for s in range(min(5, q + 1) + 1)]

    def roots(plan: _Plan) -> Iterator[tuple]:
        # P^1 over each small field, and the n-tuples of its points
        for q in (p for p in fields if p <= 3):
            line = plan.points(1, q)
            for n in range(1, 4):
                yield q, n, plan.root_tuples(line, q, n)

    zetas, unions, root_tuples = _planned(
        "example-p1",
        top,
        budget,
        lambda plan: [plan.zeta(catalog("p1-marked", s)) for s in range(6)],
        lambda plan: ((q, n, s, plan.scene(n, q, s)) for q, n, s in scenes),
        roots,
    )
    rows = [
        _check("sym-pair-coherence", {"n": n, "s": s}, str(catalog("pn-hyp", n, s)), str(zetas[s].coefficient(n)))
        for n in range(top + 1)
        for s in range(6)
    ]
    # each union class once a run: the rows below read P^1 to P^3 with at most 5 marks
    union_class = {(n, s): catalog("pn-hyp", n, s).subvariety for n in range(1, 4) for s in range(6)}
    rows += [
        _check("hyperplane-union-count", {"n": n, "s": s, "q": q}, total - off, union_class[n, s].evaluate(q))
        for q, n, s, (total, off) in unions
    ]
    for q in fields:
        for n in range(1, 4):
            for s in range(0, min(4, q) + 1):
                diff = (union_class[n, s + 1] - union_class[n, s]).evaluate(q)
                rows.append(_bound("hyperplane-union-monotone", {"n": n, "s": s, "q": q}, ">= 0", diff, diff >= 0))

    for q, n, tuples in root_tuples:
        s = min(3, q)
        scene = MarkedP1Scene.standard(s, q)
        marks = set(scene.marks)
        bad = [
            "(" + ", ".join(map(str, roots)) + ")"
            for roots in tuples
            if point_in_marked_union(vieta_coefficients(roots, q), scene) != any(r in marks for r in roots)
        ]
        rows.append(_check("vieta-mark-detection", {"n": n, "s": s, "q": q}, [], bad))
    return rows


# -- dimension-zero enumeration of the series exponential -------------------------


def suite_eq3_finite(order: int, fields: tuple[int, ...], budget: int) -> list[dict]:
    """Exhaustive finite-scene check of every power coefficient up to weight 4.

    The grid is every scene with at most 4 atoms, label weights 1 and 2,
    and at most 2 labels per weight; the engine side is the series
    exponential on the matching constant pair classes, to order 4 whatever
    the suite's order.  Refuses over the budget before it builds a scene.
    """
    top = 4
    label_options = [(a, b) for a in range(3) for b in range(a + 1)]
    labellings = [(l1, l2) for l1 in label_options for l2 in label_options]

    def configs(plan: _Plan) -> Iterator[tuple]:
        bases = {labels: plan.one_plus(*(catalog("finite", *l) for l in labels)) for labels in labellings}
        for size in range(5):
            for marked in range(size + 1):
                exponent = catalog("finite", size, marked)
                for labels, base in bases.items():
                    yield size, marked, labels, plan.power_configs(size, marked, labels, top), plan.pow(base, exponent)

    (counted,) = _planned("eq3-finite", top, budget, configs)
    return [
        _check(
            "power-config-count",
            {"atoms": size, "marked": marked, "labels": [list(l) for l in labels]},
            [list(counts) for counts in expected],
            [
                [c.amb.coefficient(0), c.comp.coefficient(0)]
                if c.amb.degree <= 0 and c.comp.degree <= 0
                else [str(c.amb), str(c.comp)]
                for c in powered.coeffs
            ],
        )
        for size, marked, labels, expected, powered in counted
    ]


# -- counting oracles --------------------------------------------------------------


def suite_weil(order: int, fields: tuple[int, ...], budget: int) -> list[dict]:
    """Symmetric-power point counts against the exponential counting formula.

    The zeta series of P^1, A^1 and 0 to 3 points are made to order 10
    whatever the suite's order.  Refuses over the budget before it builds
    any.
    """
    top = 10
    lanes = (projective_class(1), MotivicPolynomial.lefschetz(), *map(MotivicPolynomial.constant, range(4)))
    ((p1, a1, *finite),) = _planned("weil", top, budget, lambda plan: [plan.zeta(lane) for lane in lanes])
    rows = []
    for q in fields:
        # the extension counts N_r of P^1 and A^1 over F_q are q^r + 1 and q^r
        p1_counts = weil_symmetric_counts([q**r + 1 for r in range(1, top + 1)])
        a1_counts = weil_symmetric_counts([q**r for r in range(1, top + 1)])
        rows += [
            _check("weil-kapranov", {"space": "p1", "q": q}, p1_counts, [c.evaluate(q) for c in p1.coeffs]),
            _check("weil-kapranov", {"space": "a1", "q": q}, a1_counts, [c.evaluate(q) for c in a1.coeffs]),
            _check(
                "weil-closed-form",
                {"space": "p1", "q": q},
                [(q ** (n + 1) - 1) // (q - 1) for n in range(top + 1)],
                p1_counts,
            ),
            _check("weil-closed-form", {"space": "a1", "q": q}, [q**n for n in range(top + 1)], a1_counts),
        ]
    for s, zeta in enumerate(finite):
        # s rational points have s points over every extension
        oracle = weil_symmetric_counts([s] * top)
        rows += [
            _check("weil-kapranov", {"space": f"{s} points"}, oracle, [c.evaluate(2) for c in zeta.coeffs]),
            _check(
                "weil-closed-form",
                {"space": f"{s} points"},
                [1 if n == 0 else comb(s + n - 1, n) for n in range(top + 1)],
                oracle,
            ),
        ]
    return rows


def suite_squarefree(order: int, fields: tuple[int, ...], budget: int) -> list[dict]:
    """Distinct-point configurations of the affine line vs squarefree counts.

    The configuration series of the affine line is made to order 6
    whatever the suite's order.  Refuses over the budget before it builds
    it or counts anything.
    """
    top = 6
    counts, (series,) = _planned(
        "squarefree",
        top,
        budget,
        lambda plan: ((q, n, plan.squarefree(q, n)) for q in fields for n in range(1, top + 1)),
        lambda plan: [plan.config(catalog("affine-marked", 0))],
    )
    rows = []
    for q, n, counted in counts:
        rows += [
            _check("squarefree-config", {"q": q, "n": n}, counted, series.coefficient(n).amb.evaluate(q)),
            _check("squarefree-closed-form", {"q": q, "n": n}, q if n == 1 else q**n - q ** (n - 1), counted),
        ]
    return rows


# -- registry ----------------------------------------------------------------------


SUITES: dict[str, Callable[[int, tuple[int, ...], int], list[dict]]] = {
    "ring-axioms": suite_ring_axioms,
    "statement1": suite_statement1,
    "statement2": suite_statement2,
    "power-axioms": suite_power_axioms,
    "identities": suite_identities,
    "example-p1": suite_example_p1,
    "eq3-finite": suite_eq3_finite,
    "weil": suite_weil,
    "squarefree": suite_squarefree,
}


def run_suite(
    name: str,
    order: int = 8,
    fields: Sequence[int] = (2, 3, 5),
    budget: int = DEFAULT_BUDGET,
) -> dict:
    """Run one named suite and wrap its rows in a report with a verdict."""
    if name not in SUITES:
        known = ", ".join(SUITES)
        raise ValueError(f"unknown suite {name!r} (known: {known})")
    if order < 0:
        raise ValueError("order must be non-negative")
    if budget < 1:
        raise ValueError("budget must be positive")
    sizes = tuple(fields)
    for q in sizes:
        if not is_prime(q):
            raise ValueError(f"field sizes must be prime, got {q}")
    rows = SUITES[name](order, sizes, budget)
    return {"suite": name, "order": order, "rows": rows, "pass": all(r["pass"] for r in rows)}
