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

Every algebra suite refuses over its budget before it builds a series,
and ring-axioms, example-p1 and squarefree add up the steps their oracles
will charge before they count anything.
Four algebra suites (statement1, statement2, power-axioms, identities) list their
(axiom, sample, lhs, rhs) comparisons as one function of a `_Plan` of
engine calls: run dry, the plan sums the term-product bound of each call
and builds nothing; run live, it makes the series.  So the bound and the
work are the same code.

Suites whose content is an exhaustive grid (the worked example, the
finite-scene enumeration, the counting oracles) fix their own ranges; the
order parameter governs the suites that check formal series identities.
"""

from __future__ import annotations

import itertools
import random
from math import comb
from typing import Any, Callable, Iterable, Iterator, Sequence

from .field import is_prime
from .geometry import (
    MarkedP1Scene,
    hyperplane_union_class,
    point_in_marked_union,
    sym_pair_p1_direct,
    sym_pair_p1_lambda,
    vieta_coefficients,
)
from .lefschetz import MotivicPolynomial, projective_class, zeta_series
from .oracle import (
    DEFAULT_BUDGET,
    FiniteScene,
    _points,
    affine_line_counts,
    charge,
    count_marked_union,
    count_power_configs,
    count_squarefree_monic,
    enumerate_projective,
    finite_set_counts,
    marked_union_steps,
    projective_line_counts,
    weil_symmetric_counts,
)
from .pairs import PairClass, catalog, parse_pair_spec, split_atom
from .power import (
    config_cost,
    config_series,
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
    mismatch = first_mismatch(lhs, rhs)
    return {
        "axiom": axiom,
        "sample": sample,
        "order": order,
        "pass": mismatch is None,
        "first_mismatch_degree": mismatch,
    }


def _axiom_rows(comparisons: Iterable[tuple], order: int) -> list[dict]:
    return [axiom_row(axiom, sample, order, lhs, rhs) for axiom, sample, lhs, rhs in comparisons]


# -- budgets of the algebra suites ----------------------------------------------
#
# The term-product bounds are zeta_cost, config_cost, pow_cost and
# mul_cost.  A lane bound (s, t) of mul_cost says the t^j coefficient has at most s*j + t terms; the series
# of pairs here have L-degree at most s*j at t^j per lane (their slopes),
# so (s, 1).


def _degrees(p: PairClass) -> tuple[int, int]:
    # the slopes of zeta(p) and config(p): L-degree at most deg * j at t^j
    return max(p.amb.degree, 0), max(p.comp.degree, 0)


_ONE = PairClass.one()


class _Plan:
    """The engine calls of an algebra suite, made live or priced dry.

    A live plan makes every series and computes no bound.  A dry plan
    makes none: each call adds its term-product bound to `cost` and
    returns, in place of its series, the slopes of that series.  So a
    suite written once as a function of a plan is bounded by exactly the
    calls it makes (see _planned).
    """

    def __init__(self, order: int, live: bool) -> None:
        self.order, self.live, self.cost = order, live, 0

    def zeta(self, p: PairClass) -> Any:
        if self.live:
            return kapranov_zeta(p, self.order)
        self.cost += zeta_cost(p, self.order)
        return _degrees(p)

    def config(self, p: PairClass) -> Any:
        if self.live:
            return config_series_pair(p, self.order)
        self.cost += config_cost(p, self.order)
        return _degrees(p)

    def one_plus(self, tail: Sequence, one: Any = _ONE) -> Any:
        return one_plus(tail, self.order, one) if self.live else tail_slopes(tail)

    def geometric(self) -> Any:
        return geometric_series(self.order, _ONE) if self.live else (0, 0)

    def pow(self, a: Any, m: Any) -> Any:
        if self.live:
            return power_pow(a, m)
        self.cost += pow_cost(a, m, self.order)
        return tuple(s + d for s, d in zip(a, _degrees(m)))  # see pow_cost

    def mul(self, a: Any, b: Any) -> Any:
        if self.live:
            return a * b
        self.cost += sum(mul_cost(self.order, (sa, 1), (sb, 1)) for sa, sb in zip(a, b))
        return tuple(map(max, a, b))

    def head(self, a: Any, n: int) -> Any:
        # the coefficients up to t^n, which costs no product
        return TruncatedSeries(a.coeffs[: n + 1]) if self.live else a


def _planned(suite: str, order: int, budget: int, *parts: Callable[[_Plan], Iterator]) -> list[Iterator]:
    # Every part runs on a dry plan, and over the budget the suite refuses;
    # then each part on a live plan is returned unstarted, so that a caller
    # making rows as it goes holds only the series of the current row.
    dry = _Plan(order, live=False)
    for part in parts:
        for _ in part(dry):
            pass
    charge(dry.cost, f"{suite} suite at order {order}", budget)
    live = _Plan(order, live=True)
    return [part(live) for part in parts]


# -- ring-axioms ---------------------------------------------------------------


def _random_poly(rng: random.Random) -> MotivicPolynomial:
    return MotivicPolynomial({d: rng.randint(-4, 4) for d in range(4)})


def _random_pair(rng: random.Random) -> PairClass:
    return PairClass(_random_poly(rng), _random_poly(rng))


def _random_series(rng: random.Random, order: int) -> TruncatedSeries:
    return TruncatedSeries(tuple(_random_poly(rng) for _ in range(order + 1)))


def _random_unit_series(rng: random.Random, order: int) -> TruncatedSeries:
    coeffs = (MotivicPolynomial.one(),) + tuple(_random_poly(rng) for _ in range(order))
    return TruncatedSeries(coeffs)


def _divide(a: TruncatedSeries, u: TruncatedSeries) -> TruncatedSeries:
    # a / u to the common order, for u_0 = 1: the long division
    # q_n = a_n - sum u_j q_{n-j} needs no coefficient division
    if u.coeffs[0] != type(u.coeffs[0]).one():
        raise ValueError("division requires a divisor with constant term 1")
    combine = type(u.coeffs[0]).sum_of_products
    quot: list = []
    for k in range(min(a.order, u.order) + 1):
        quot.append(a.coeffs[k] - combine(list(zip(u.coeffs[1:], reversed(quot)))))
    return TruncatedSeries(tuple(quot))


def _law_row(check: str, cases: Sequence[tuple], law: Callable[..., bool]) -> dict:
    bad = [f"sample {i}" for i, case in enumerate(cases) if not law(*case)]
    return _check(check, {"samples": len(cases), "seed": RING_SEED}, [], bad)


def _union_formula(a: PairClass, b: PairClass, _c: PairClass) -> bool:
    # the product's marked set is a union, so its class obeys inclusion-exclusion
    sa, sb = a.subvariety, b.subvariety
    return (a * b).subvariety == a.amb * sb + sa * b.amb - sa * sb


def _brute_counts(spec: str, q: int, budget: int, priced: list | None = None) -> tuple[int, int] | None:
    """Point counts (ambient, complement) of a catalog scene over F_q.

    Counts by explicit enumeration, never by evaluating classes.  Returns
    None when the scene does not exist over F_q (more marks than points),
    and when given a list `priced`: then it counts nothing and adds the
    (steps, name) of every enumeration it would make to that list.
    """
    name, params = split_atom(spec)
    if name == "point":
        return (1, 1)
    if name == "empty":
        return (0, 0)
    if name == "finite":
        size, marked = params
        atoms = range(size)
        return (len(atoms), len([a for a in atoms if a >= marked]))
    if name == "affine-marked":
        (s,) = params
        if s > q:
            return None
        line = (q, f"affine line enumeration at q={q}")
        if priced is not None:
            priced.append(line)
            return None
        charge(*line, budget)
        points = range(q)
        return (len(points), len([x for x in points if x >= s]))
    # P^n with s standard marks: one pass counts all its points and those on a mark hyperplane
    n, s = {"p1-marked": (1, *params), "pn": (*params, 0), "pn-hyp": params}[name]
    if s > q + 1:
        return None
    steps = marked_union_steps(n, q, s)
    if priced is not None:
        priced.append(steps)
        return None
    charge(*steps, budget)
    scene = MarkedP1Scene.standard(s, q)
    total = on_marks = 0
    for point in _points(n, q):
        total += 1
        on_marks += point_in_marked_union(point, scene)
    return (total, total - on_marks)


def _ring_axioms_cost(order: int) -> int:
    # _random_poly has at most 4 terms, of L-degree at most 3: a random
    # series has the lane bound (0, 4), a product of two (0, 7), a quotient
    # by a random unit series (3, 4) (L-degree at most 3j + 3), and the zeta
    # series of a random polynomial (3, 1).  Per series triple, the series
    # laws make four products of two random series and two with a product;
    # per division case, two divisions and two multiplies; per zeta case,
    # five zeta series and two multiplies.
    rand, prod, quot, zeta = (0, 4), (0, 7), (3, 4), (3, 1)
    zero = MotivicPolynomial.zero()
    random_zeta = zeta_cost(PairClass(projective_class(3), zero), order)  # one lane, 4 terms, L-degree 3
    return (
        SERIES_SAMPLES * (4 * mul_cost(order, rand, rand) + 2 * mul_cost(order, prod, rand))
        + SERIES_SAMPLES * 4 * mul_cost(order, quot, rand)
        + ZETA_SAMPLES * (5 * random_zeta + 2 * mul_cost(order, zeta, zeta))
        + zeta_cost(PairClass(projective_class(1), zero), order)
    )


def suite_ring_axioms(order: int, fields: tuple[int, ...], budget: int) -> list[dict]:
    """Ring laws, series laws, zeta structure, and catalog scenes vs enumeration.

    Refuses over the budget before drawing a series (see _ring_axioms_cost)
    or counting a scene.
    """
    charge(_ring_axioms_cost(order), f"ring-axioms suite at order {order}", budget)
    # then every scene's enumerations, and the P^1 of each product count
    scenes = [(spec, q, entry) for spec, entry in catalog_samples() for q in fields]
    priced: list = []
    for spec, q, _ in scenes:
        _brute_counts(spec, q, budget, priced)
    priced += [marked_union_steps(1, q, 0) for q in fields]
    _check_enumerations(priced, budget, "ring-axioms suite enumerations")
    rng = random.Random(RING_SEED)
    poly_triples = [tuple(_random_poly(rng) for _ in range(3)) for _ in range(25)]
    pair_triples = [tuple(_random_pair(rng) for _ in range(3)) for _ in range(25)]
    series_triples = [tuple(_random_series(rng, order) for _ in range(3)) for _ in range(SERIES_SAMPLES)]
    division_cases = [
        (_random_series(rng, order), _random_unit_series(rng, order)) for _ in range(SERIES_SAMPLES)
    ]
    zeta_cases = [(_random_poly(rng), _random_poly(rng)) for _ in range(ZETA_SAMPLES)]

    zero, one = MotivicPolynomial.zero(), MotivicPolynomial.one()
    unit_series = one_plus((), order, one)
    rows = [
        _law_row("mp-add-commutative", poly_triples, lambda a, b, c: a + b == b + a),
        _law_row("mp-add-associative", poly_triples, lambda a, b, c: (a + b) + c == a + (b + c)),
        _law_row("mp-mul-commutative", poly_triples, lambda a, b, c: a * b == b * a),
        _law_row("mp-mul-associative", poly_triples, lambda a, b, c: (a * b) * c == a * (b * c)),
        _law_row("mp-distributive", poly_triples, lambda a, b, c: a * (b + c) == a * b + a * c),
        _law_row(
            "mp-identities",
            poly_triples,
            lambda a, b, c: a + zero == a and a * one == a and a - a == zero,
        ),
        _law_row(
            "pair-ring-laws",
            pair_triples,
            lambda a, b, c: a + b == b + a
            and (a + b) + c == a + (b + c)
            and a * b == b * a
            and (a * b) * c == a * (b * c)
            and a * (b + c) == a * b + a * c
            and a + PairClass.zero() == a
            and a * PairClass.one() == a
            and a - a == PairClass.zero(),
        ),
        _law_row("pair-union-formula", pair_triples, _union_formula),
        _law_row("series-mul-commutative", series_triples, lambda a, b, c: a * b == b * a),
        _law_row(
            "series-mul-associative", series_triples, lambda a, b, c: (a * b) * c == a * (b * c)
        ),
        _law_row(
            "series-div-roundtrip",
            division_cases,
            lambda a, u: _divide(a, u) * u == a and _divide(unit_series, u) * u == unit_series,
        ),
        _law_row(
            "zeta-multiplicative-base",
            zeta_cases,
            lambda a, b: zeta_series(a + b, order) == zeta_series(a, order) * zeta_series(b, order),
        ),
        _law_row(
            "zeta-inverse",
            [(a,) for a, _ in zeta_cases],
            lambda a: zeta_series(-a, order) * zeta_series(a, order) == unit_series,
        ),
    ]

    z = zeta_series(projective_class(1), order)
    rows.append(
        _check(
            "zeta-p1-is-projective-classes",
            {"order": z.order},
            [str(projective_class(n)) for n in range(z.order + 1)],
            [str(c) for c in z.coeffs],
        )
    )

    for q in fields:
        rows.append(
            _check(
                "projective-specialization",
                {"q": q, "max_dim": 10},
                [(q ** (n + 1) - 1) // (q - 1) for n in range(11)],
                [projective_class(n).evaluate(q) for n in range(11)],
            )
        )

    counted = [
        (spec, q, counts, entry)
        for spec, q, entry in scenes
        if (counts := _brute_counts(spec, q, budget)) is not None
    ]
    for spec, q, counts, entry in counted:
        rows.append(
            _check(
                "catalog-count",
                {"entry": spec, "q": q},
                list(counts),
                [entry.amb.evaluate(q), entry.comp.evaluate(q)],
            )
        )
    for spec, q, _, entry in counted:
        amb, comp = entry.amb.evaluate(q), entry.comp.evaluate(q)
        rows.append(
            _bound(
                "catalog-effective",
                {"entry": spec, "q": q},
                "0 <= comp <= amb",
                [comp, amb],
                0 <= comp <= amb,
            )
        )

    marked_line = parse_pair_spec("p1-marked:1")
    squared = marked_line * marked_line
    for q in fields:
        points = enumerate_projective(1, q, budget)
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

    product = parse_pair_spec("finite:3,1") * parse_pair_spec("finite:2,0")
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

    reassembled = parse_pair_spec("finite:1,1") + parse_pair_spec("affine-marked:1")
    rows.append(
        _check(
            "pair-cut-paste",
            {"entry": "p1-marked:2", "cut": "one marked point"},
            str(parse_pair_spec("p1-marked:2")),
            str(reassembled),
        )
    )
    return rows


# -- statements 1 and 2 --------------------------------------------------------


def _sampled_sums(
    samples: Sequence[tuple[str, PairClass]], count: int = 24
) -> list[tuple[tuple[str, PairClass], tuple[str, PairClass]]]:
    pairs = [(i, j) for i in range(len(samples)) for j in range(i, len(samples))]
    rng = random.Random(SUM_SEED)
    return [(samples[i], samples[j]) for i, j in rng.sample(pairs, count)]


def _multiplicativity_laws(plan: _Plan, prefix: str, samples: Sequence, sums: Sequence) -> Iterator[tuple]:
    # series(p + r) = series(p) * series(r) over sampled sums, then 1 + p t + ...;
    # prefix names the plan's series, zeta or config
    series, head = getattr(plan, prefix), min(plan.order, 1)
    for (name_p, p), (name_r, r) in sums:
        yield f"{prefix}-multiplicative", f"{name_p} + {name_r}", series(p + r), plan.mul(series(p), series(r))
    for name, p in samples:
        unit = plan.head(plan.one_plus((p,)), head)
        yield f"{prefix}-unit-and-linear-term", name, plan.head(series(p), head), unit


def suite_statement1(order: int, fields: tuple[int, ...], budget: int) -> list[dict]:
    """Multiplicativity of the symmetric-power series over catalog sums.

    Refuses over the budget before building any series.
    """
    samples = catalog_samples()
    sums = _sampled_sums(samples)
    (comparisons,) = _planned(
        "statement1", order, budget, lambda plan: _multiplicativity_laws(plan, "zeta", samples, sums)
    )
    return _axiom_rows(comparisons, order)


def suite_statement2(order: int, fields: tuple[int, ...], budget: int) -> list[dict]:
    """Multiplicativity of the configuration series over catalog sums.

    Refuses over the budget before building any series.
    """
    samples = catalog_samples()
    sums = _sampled_sums(samples)

    def laws(plan: _Plan) -> Iterator[tuple]:
        yield from _multiplicativity_laws(plan, "config", samples, sums)
        yield "config-of-unit-is-one-plus-t", "point", plan.config(_ONE), plan.one_plus((_ONE,))

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
    yield "zero-exponent", name, plan.pow(a, zero), plan.one_plus((), one)
    yield "unit-exponent", name, plan.pow(a, one), a
    yield "base-multiplicative", name, plan.pow(plan.mul(a, b), m1), plan.mul(a_m1, plan.pow(b, m1))
    yield "exponent-additive", name, plan.pow(a, m1 + m2), plan.mul(a_m1, a_m2)
    yield "exponent-multiplicative", name, plan.pow(a, m1 * m2), plan.pow(a_m2, m1)


def _identity_laws(plan: _Plan, name: str, p: PairClass) -> Iterator[tuple]:
    """(1/(1-t))^p is the symmetric-power series of p, and (1 + t)^p its configuration series."""
    yield "geometric-power-is-zeta", name, plan.pow(plan.geometric(), p), plan.zeta(p)
    yield "binomial-power-is-config", name, plan.pow(plan.one_plus((_ONE,)), p), plan.config(p)


# Bases of the power-axioms suite are recipes (plan method, *arguments):
# ("geometric",) is 1/(1-t), ("one_plus", tail) 1 + c_1 t + c_2 t^2 + ...
# for the tail given, and ("zeta", p) and ("config", p) the series of p.


def _base(plan: _Plan, recipe: tuple) -> Any:
    return getattr(plan, recipe[0])(*recipe[1:])


def _power_samples() -> list[tuple[str, tuple, tuple, PairClass, PairClass]]:
    e = parse_pair_spec
    geo, opt = ("geometric",), ("one_plus", (e("point"),))
    return [
        ("A=1+t, B=1/(1-t); m1=finite:3,1, m2=finite:2,1",
         opt, geo, e("finite:3,1"), e("finite:2,1")),
        ("A=1/(1-t), B=zeta(p1-marked:1); m1=p1-marked:2, m2=pn:1",
         geo, ("zeta", e("p1-marked:1")), e("p1-marked:2"), e("pn:1")),
        ("A=1+t+t^2, B=1+t; m1=p1-marked:1, m2=finite:2,1",
         ("one_plus", (e("point"), e("point"))), opt, e("p1-marked:1"), e("finite:2,1")),
        ("A=1/(1-t), B=1+t; m1=finite:3,1-pn:1, m2=point-affine-marked:1",
         geo, opt, e("finite:3,1") - e("pn:1"), e("point") - e("affine-marked:1")),
        ("A=1+t, B=zeta(finite:2,1); m1=-p1-marked:2, m2=finite:4,2",
         opt, ("zeta", e("finite:2,1")), -e("p1-marked:2"), e("finite:4,2")),
        ("A=zeta(finite:2,1), B=1+t; m1=affine-marked:1, m2=p1-marked:3",
         ("zeta", e("finite:2,1")), opt, e("affine-marked:1"), e("p1-marked:3")),
        ("A=config(p1-marked:1), B=1/(1-t); m1=pn:2, m2=point",
         ("config", e("p1-marked:1")), geo, e("pn:2"), e("point")),
        ("A=1+t, B=1/(1-t); m1=pn:2-p1-marked:1, m2=finite:5,5",
         opt, geo, e("pn:2") - e("p1-marked:1"), e("finite:5,5")),
        ("A=1+[affine-marked:0]t, B=1/(1-t); m1=affine-marked:0, m2=-point",
         ("one_plus", (e("affine-marked:0"),)), geo, e("affine-marked:0"), -e("point")),
        ("A=1+t, B=1+t; m1=empty, m2=pn:3",
         opt, opt, e("empty"), e("pn:3")),
        ("A=1+[finite:2,1]t+[p1-marked:1]t^2+[finite:3,3]t^3, B=zeta(pn:1); m1=finite:3,2-affine-marked:2, m2=pn:1",
         ("one_plus", (e("finite:2,1"), e("p1-marked:1"), e("finite:3,3"))),
         ("zeta", e("pn:1")), e("finite:3,2") - e("affine-marked:2"), e("pn:1")),
        ("A=1/(1-t), B=1+[pn:1]t; m1=p1-marked:4-finite:2,2, m2=affine-marked:3",
         geo, ("one_plus", (e("pn:1"),)), e("p1-marked:4") - e("finite:2,2"), e("affine-marked:3")),
    ]


def _roundtrip_bases() -> list[tuple[str, tuple]]:
    e = parse_pair_spec
    return [
        ("1+t", ("one_plus", (e("point"),))),
        ("1/(1-t)", ("geometric",)),
        ("zeta(p1-marked:2)", ("zeta", e("p1-marked:2"))),
        ("config(pn:2)", ("config", e("pn:2"))),
        ("1+[finite:2,1]t+[p1-marked:1]t^2", ("one_plus", (e("finite:2,1"), e("p1-marked:1")))),
    ]


def _effective_combos() -> list[tuple[str, tuple, PairClass]]:
    # every scene here exists over F_2 already, so the counts stay genuine
    # for all prime fields
    e = parse_pair_spec
    return [
        ("(1+t)^finite:4,2", ("one_plus", (e("point"),)), e("finite:4,2")),
        ("(1+t)^pn-hyp:2,2", ("one_plus", (e("point"),)), e("pn-hyp:2,2")),
        ("(1/(1-t))^p1-marked:3", ("geometric",), e("p1-marked:3")),
        ("(1/(1-t))^pn:2", ("geometric",), e("pn:2")),
        ("zeta(p1-marked:1)^finite:3,1", ("zeta", e("p1-marked:1")), e("finite:3,1")),
        ("(1+[p1-marked:2]t+[finite:2,1]t^2+[affine-marked:1]t^3)^affine-marked:2",
         ("one_plus", (e("p1-marked:2"), e("finite:2,1"), e("affine-marked:1"))),
         e("affine-marked:2")),
    ]


def suite_power_axioms(order: int, fields: tuple[int, ...], budget: int) -> list[dict]:
    """The five exponent laws, factorization round-trips, and effectiveness.

    Refuses over the budget before building anything.
    """
    samples, roundtrips, combos = _power_samples(), _roundtrip_bases(), _effective_combos()

    def laws(plan: _Plan) -> Iterator[tuple]:
        for name, a, b, m1, m2 in samples:
            yield from _exponent_laws(plan, name, _base(plan, a), _base(plan, b), m1, m2)
        for name, recipe in roundtrips:
            series = _base(plan, recipe)
            yield "factor-roundtrip", name, plan.pow(series, _ONE), series

    def powers(plan: _Plan) -> Iterator[tuple[str, Any]]:
        for name, recipe, exponent in combos:
            yield name, plan.pow(_base(plan, recipe), exponent)

    comparisons, powered_combos = _planned("power-axioms", order, budget, laws, powers)
    rows = _axiom_rows(comparisons, order)
    for name, powered in powered_combos:
        for q in fields:
            bad = [
                n
                for n, c in enumerate(powered.coeffs)
                if not 0 <= c.comp.evaluate(q) <= c.amb.evaluate(q)
            ]
            rows.append(
                {
                    "axiom": "effective",
                    "sample": f"{name} at q={q}",
                    "order": order,
                    "pass": not bad,
                    "first_mismatch_degree": bad[0] if bad else None,
                }
            )
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


# -- budgets of the oracle suites ------------------------------------------------


def _check_enumerations(enumerations: list[tuple[int, str]], budget: int, what: str) -> None:
    # the first (steps, name) over the budget refuses under its own name,
    # and otherwise the total does, under `what`
    for needed, name in enumerations:
        charge(needed, name, budget)
    charge(sum(needed for needed, _ in enumerations), what, budget)


# -- the worked example ----------------------------------------------------------


def suite_example_p1(order: int, fields: tuple[int, ...], budget: int) -> list[dict]:
    """Marked-line symmetric powers: both pipelines, counts, and the root map."""
    # P^n against the marks of each scene for the union counts, then P^1
    # and its n-tuples of roots for the root map
    scenes = [(q, n, s) for q in fields for n in range(1, 4) for s in range(min(5, q + 1) + 1)]
    enumerations = [marked_union_steps(n, q, s) for q, n, s in scenes]
    for q in (p for p in fields if p <= 3):
        enumerations.append(marked_union_steps(1, q, 0))
        enumerations += [(comb(q + n, n), f"root tuples at q={q}, n={n}") for n in range(1, 4)]
    _check_enumerations(enumerations, budget, "example-p1 suite enumerations")
    rows = []
    for n in range(9):
        for s in range(6):
            rows.append(
                _check(
                    "sym-pair-coherence",
                    {"n": n, "s": s},
                    str(sym_pair_p1_direct(n, s)),
                    str(sym_pair_p1_lambda(n, s)),
                )
            )

    for q, n, s in scenes:
        rows.append(
            _check(
                "hyperplane-union-count",
                {"n": n, "s": s, "q": q},
                count_marked_union(n, MarkedP1Scene.standard(s, q), budget),
                hyperplane_union_class(n, s).evaluate(q),
            )
        )

    for q in fields:
        for n in range(1, 4):
            for s in range(0, min(4, q) + 1):
                grown = hyperplane_union_class(n, s + 1) - hyperplane_union_class(n, s)
                diff = grown.evaluate(q)
                rows.append(
                    _bound(
                        "hyperplane-union-monotone",
                        {"n": n, "s": s, "q": q},
                        ">= 0",
                        diff,
                        diff >= 0,
                    )
                )

    for q in (p for p in fields if p <= 3):
        line = enumerate_projective(1, q, budget)
        for n in range(1, 4):
            s = min(3, q)
            scene = MarkedP1Scene.standard(s, q)
            marks = set(scene.marks)
            bad = []
            for roots in itertools.combinations_with_replacement(line, n):
                flagged = point_in_marked_union(vieta_coefficients(roots, q), scene)
                if flagged != any(r in marks for r in roots):
                    bad.append("(" + ", ".join(str(r) for r in roots) + ")")
            rows.append(
                _check("vieta-mark-detection", {"n": n, "s": s, "q": q}, [], bad)
            )
    return rows


# -- dimension-zero enumeration of the series exponential -------------------------


def suite_eq3_finite(order: int, fields: tuple[int, ...], budget: int) -> list[dict]:
    """Exhaustive finite-scene check of every power coefficient up to weight 4.

    The grid is every scene with at most 4 atoms, label weights 1 and 2,
    and at most 2 labels per weight; the engine side is the series
    exponential on the matching constant pair classes.
    """
    rows = []
    label_options = [(a, b) for a in range(3) for b in range(a + 1)]
    top = 4
    bases = {
        (l1, l2): one_plus((catalog("finite", *l1), catalog("finite", *l2)), top, PairClass.one())
        for l1 in label_options for l2 in label_options
    }
    for size in range(5):
        for marked in range(size + 1):
            exponent = catalog("finite", size, marked)
            for (l1, l2), base in bases.items():
                scene = FiniteScene.from_sizes(size, marked, [l1, l2])
                powered = power_pow(base, exponent)
                expected = [list(counts) for counts in count_power_configs(scene, top, budget)]
                actual = [
                    [c.amb.coefficient(0), c.comp.coefficient(0)]
                    if c.amb.degree <= 0 and c.comp.degree <= 0
                    else [str(c.amb), str(c.comp)]
                    for c in powered.coeffs
                ]
                rows.append(
                    _check(
                        "power-config-count",
                        {"atoms": size, "marked": marked, "labels": [list(l1), list(l2)]},
                        expected,
                        actual,
                    )
                )
    return rows


# -- counting oracles --------------------------------------------------------------


def suite_weil(order: int, fields: tuple[int, ...], budget: int) -> list[dict]:
    """Symmetric-power point counts against the exponential counting formula."""
    top = 10
    rows = []
    for q in fields:
        spaces = [
            ("p1", projective_class(1), projective_line_counts(q)),
            ("a1", MotivicPolynomial.lefschetz(), affine_line_counts(q)),
        ]
        for label, poly, counts in spaces:
            oracle = weil_symmetric_counts(counts, top)
            engine = [c.evaluate(q) for c in zeta_series(poly, top).coeffs]
            rows.append(_check("weil-kapranov", {"space": label, "q": q}, oracle, engine))
        rows.append(
            _check(
                "weil-closed-form",
                {"space": "p1", "q": q},
                [(q ** (n + 1) - 1) // (q - 1) for n in range(top + 1)],
                weil_symmetric_counts(projective_line_counts(q), top),
            )
        )
        rows.append(
            _check(
                "weil-closed-form",
                {"space": "a1", "q": q},
                [q**n for n in range(top + 1)],
                weil_symmetric_counts(affine_line_counts(q), top),
            )
        )
    for s in range(4):
        oracle = weil_symmetric_counts(finite_set_counts(s), top)
        engine = [
            c.evaluate(2) for c in zeta_series(MotivicPolynomial.constant(s), top).coeffs
        ]
        rows.append(_check("weil-kapranov", {"space": f"{s} points"}, oracle, engine))
        rows.append(
            _check(
                "weil-closed-form",
                {"space": f"{s} points"},
                [1 if n == 0 else comb(s + n - 1, n) for n in range(top + 1)],
                oracle,
            )
        )
    return rows


def suite_squarefree(order: int, fields: tuple[int, ...], budget: int) -> list[dict]:
    """Distinct-point configurations of the affine line vs squarefree counts."""
    top = 6
    _check_enumerations(
        [(q**n, f"squarefree enumeration at q={q}, n={n}") for q in fields for n in range(1, top + 1)],
        budget,
        "squarefree suite enumerations",
    )
    series = config_series(MotivicPolynomial.lefschetz(), top)
    rows = []
    for q in fields:
        for n in range(1, top + 1):
            counted = count_squarefree_monic(q, n, budget)
            rows.append(
                _check(
                    "squarefree-config",
                    {"q": q, "n": n},
                    counted,
                    series.coefficient(n).evaluate(q),
                )
            )
            rows.append(
                _check(
                    "squarefree-closed-form",
                    {"q": q, "n": n},
                    q if n == 1 else q**n - q ** (n - 1),
                    counted,
                )
            )
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
