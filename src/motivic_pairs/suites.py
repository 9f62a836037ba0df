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

Suites whose content is an exhaustive grid (the worked example, the
finite-scene enumeration, the counting oracles) fix their own ranges; the
order parameter governs the suites that check formal series identities.
"""

from __future__ import annotations

import itertools
import random
from math import comb
from typing import Callable, Sequence

from .field import is_prime
from .geometry import (
    INFINITY,
    MarkedP1Scene,
    ProjectivePoint,
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
    affine_line_counts,
    count_marked_union,
    count_power_configs,
    count_squarefree_monic,
    enumerate_projective,
    finite_set_counts,
    projective_line_counts,
    weil_symmetric_counts,
)
from .pairs import PairClass, catalog, parse_pair_spec, split_atom
from .power import (
    LEFSCHETZ_RING,
    PAIR_RING,
    axiom_row,
    config_series,
    config_series_pair,
    kapranov_zeta,
    power_pow,
    verify_identities,
    verify_power_axioms,
)
from .series import TruncatedSeries

RING_SEED = 1729
SUM_SEED = 6174

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
    return {
        "check": check,
        "params": params,
        "expected": expected,
        "actual": actual,
        "pass": expected == actual,
    }


def _bound(check: str, params: dict, expected: str, actual, ok: bool) -> dict:
    return {"check": check, "params": params, "expected": expected, "actual": actual, "pass": ok}


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


def _law_row(check: str, cases: Sequence[tuple], law: Callable[..., bool]) -> dict:
    bad = [f"sample {i}" for i, case in enumerate(cases) if not law(*case)]
    return _check(check, {"samples": len(cases), "seed": RING_SEED}, [], bad)


def _union_formula(a: PairClass, b: PairClass, _c: PairClass) -> bool:
    # the product's marked set is a union, so its class obeys inclusion-exclusion
    sa, sb = a.subvariety, b.subvariety
    return (a * b).subvariety == a.amb * sb + sa * b.amb - sa * sb


def _mark_point(mark, q: int) -> ProjectivePoint:
    if mark is INFINITY:
        return ProjectivePoint((1, 0))
    return ProjectivePoint.from_coords((mark, 1), q)


def _brute_counts(spec: str, q: int) -> tuple[int, int] | None:
    """Point counts (ambient, complement) of a catalog scene over F_q.

    Counts by explicit enumeration, never by evaluating classes.  Returns
    None when the scene does not exist over F_q (more marks than points).
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
        points = range(q)
        return (len(points), len([x for x in points if x >= s]))
    if name == "p1-marked":
        (s,) = params
        if s > q + 1:
            return None
        points = enumerate_projective(1, q)
        marks = {_mark_point(m, q) for m in MarkedP1Scene.standard(s, q).marks}
        return (len(points), len([p for p in points if p not in marks]))
    if name == "pn":
        (n,) = params
        points = enumerate_projective(n, q)
        return (len(points), len(points))
    if name == "pn-hyp":
        n, s = params
        if s > q + 1 or n < 1:
            return None
        total = len(enumerate_projective(n, q))
        on_union = count_marked_union(n, q, MarkedP1Scene.standard(s, q))
        return (total, total - on_union)
    raise ValueError(f"no brute-force scene for {spec!r}")


def suite_ring_axioms(order: int, fields: tuple[int, ...], budget: int) -> list[dict]:
    """Ring laws, series laws, zeta structure, and catalog scenes vs enumeration."""
    rng = random.Random(RING_SEED)
    poly_triples = [tuple(_random_poly(rng) for _ in range(3)) for _ in range(25)]
    pair_triples = [tuple(_random_pair(rng) for _ in range(3)) for _ in range(25)]
    series_triples = [tuple(_random_series(rng, order) for _ in range(3)) for _ in range(10)]
    division_cases = [
        (_random_series(rng, order), _random_unit_series(rng, order)) for _ in range(10)
    ]
    zeta_cases = [(_random_poly(rng), _random_poly(rng)) for _ in range(12)]

    zero, one = MotivicPolynomial.zero(), MotivicPolynomial.one()
    unit_series = TruncatedSeries.unit(one, zero, order)
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
            lambda a, u: a.divide(u, one) * u == a and unit_series.divide(u, one) * u == unit_series,
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

    scenes = [
        (spec, q, counts, entry)
        for spec, entry in catalog_samples()
        for q in fields
        if (counts := _brute_counts(spec, q)) is not None
    ]
    for spec, q, counts, entry in scenes:
        rows.append(
            _check(
                "catalog-count",
                {"entry": spec, "q": q},
                list(counts),
                [entry.amb.evaluate(q), entry.comp.evaluate(q)],
            )
        )
    for spec, q, _, entry in scenes:
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
        points = enumerate_projective(1, q)
        mark = ProjectivePoint((0, 1))
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


def _sampled_sums(count: int = 24) -> list[tuple[tuple[str, PairClass], tuple[str, PairClass]]]:
    samples = catalog_samples()
    pairs = [(i, j) for i in range(len(samples)) for j in range(i, len(samples))]
    rng = random.Random(SUM_SEED)
    return [(samples[i], samples[j]) for i, j in rng.sample(pairs, count)]


def _multiplicativity_rows(
    prefix: str, series: Callable[[PairClass, int], TruncatedSeries], order: int
) -> list[dict]:
    # series(p + r) = series(p) * series(r) over sampled sums, then 1 + p t + ...
    rows = []
    for (name_p, p), (name_r, r) in _sampled_sums():
        lhs = series(p + r, order)
        rhs = series(p, order) * series(r, order)
        rows.append(axiom_row(f"{prefix}-multiplicative", f"{name_p} + {name_r}", order, lhs, rhs))
    head = min(order, 1)
    for name, p in catalog_samples():
        rows.append(
            axiom_row(
                f"{prefix}-unit-and-linear-term",
                name,
                order,
                TruncatedSeries(series(p, order).coeffs[: head + 1]),
                TruncatedSeries((PairClass.one(), p)[: head + 1]),
            )
        )
    return rows


def suite_statement1(order: int, fields: tuple[int, ...], budget: int) -> list[dict]:
    """Multiplicativity of the symmetric-power series over catalog sums."""
    return _multiplicativity_rows("zeta", kapranov_zeta, order)


def suite_statement2(order: int, fields: tuple[int, ...], budget: int) -> list[dict]:
    """Multiplicativity of the configuration series over catalog sums."""
    rows = _multiplicativity_rows("config", config_series_pair, order)
    rows.append(
        axiom_row(
            "config-of-unit-is-one-plus-t", "point", order,
            config_series_pair(PairClass.one(), order), PAIR_RING.one_plus_t(order),
        )
    )
    return rows


# -- power axioms and identities -------------------------------------------------


def _power_samples(order: int) -> list[tuple[str, TruncatedSeries, TruncatedSeries, PairClass, PairClass]]:
    geo = PAIR_RING.geometric_series(order)
    opt = PAIR_RING.one_plus_t(order)
    e = parse_pair_spec
    return [
        ("A=1+t, B=1/(1-t); m1=finite:3,1, m2=finite:2,1",
         opt, geo, e("finite:3,1"), e("finite:2,1")),
        ("A=1/(1-t), B=zeta(p1-marked:1); m1=p1-marked:2, m2=pn:1",
         geo, kapranov_zeta(e("p1-marked:1"), order), e("p1-marked:2"), e("pn:1")),
        ("A=1+t+t^2, B=1+t; m1=p1-marked:1, m2=finite:2,1",
         PAIR_RING.one_plus([e("point"), e("point")], order), opt, e("p1-marked:1"), e("finite:2,1")),
        ("A=1/(1-t), B=1+t; m1=finite:3,1-pn:1, m2=point-affine-marked:1",
         geo, opt, e("finite:3,1") - e("pn:1"), e("point") - e("affine-marked:1")),
        ("A=1+t, B=zeta(finite:2,1); m1=-p1-marked:2, m2=finite:4,2",
         opt, kapranov_zeta(e("finite:2,1"), order), -e("p1-marked:2"), e("finite:4,2")),
        ("A=zeta(finite:2,1), B=1+t; m1=affine-marked:1, m2=p1-marked:3",
         kapranov_zeta(e("finite:2,1"), order), opt, e("affine-marked:1"), e("p1-marked:3")),
        ("A=config(p1-marked:1), B=1/(1-t); m1=pn:2, m2=point",
         config_series_pair(e("p1-marked:1"), order), geo, e("pn:2"), e("point")),
        ("A=1+t, B=1/(1-t); m1=pn:2-p1-marked:1, m2=finite:5,5",
         opt, geo, e("pn:2") - e("p1-marked:1"), e("finite:5,5")),
        ("A=1+[affine-marked:0]t, B=1/(1-t); m1=affine-marked:0, m2=-point",
         PAIR_RING.one_plus([e("affine-marked:0")], order), geo, e("affine-marked:0"), -e("point")),
        ("A=1+t, B=1+t; m1=empty, m2=pn:3",
         opt, opt, e("empty"), e("pn:3")),
        ("A=1+[finite:2,1]t+[p1-marked:1]t^2+[finite:3,3]t^3, B=zeta(pn:1); m1=finite:3,2-affine-marked:2, m2=pn:1",
         PAIR_RING.one_plus([e("finite:2,1"), e("p1-marked:1"), e("finite:3,3")], order),
         kapranov_zeta(e("pn:1"), order), e("finite:3,2") - e("affine-marked:2"), e("pn:1")),
        ("A=1/(1-t), B=1+[pn:1]t; m1=p1-marked:4-finite:2,2, m2=affine-marked:3",
         geo, PAIR_RING.one_plus([e("pn:1")], order), e("p1-marked:4") - e("finite:2,2"), e("affine-marked:3")),
    ]


def _effective_combos(order: int) -> list[tuple[str, TruncatedSeries, PairClass]]:
    # every scene here exists over F_2 already, so the counts stay genuine
    # for all prime fields
    e = parse_pair_spec
    return [
        ("(1+t)^finite:4,2", PAIR_RING.one_plus_t(order), e("finite:4,2")),
        ("(1+t)^pn-hyp:2,2", PAIR_RING.one_plus_t(order), e("pn-hyp:2,2")),
        ("(1/(1-t))^p1-marked:3", PAIR_RING.geometric_series(order), e("p1-marked:3")),
        ("(1/(1-t))^pn:2", PAIR_RING.geometric_series(order), e("pn:2")),
        ("zeta(p1-marked:1)^finite:3,1",
         kapranov_zeta(e("p1-marked:1"), order), e("finite:3,1")),
        ("(1+[p1-marked:2]t+[finite:2,1]t^2+[affine-marked:1]t^3)^affine-marked:2",
         PAIR_RING.one_plus([e("p1-marked:2"), e("finite:2,1"), e("affine-marked:1")], order),
         e("affine-marked:2")),
    ]


def suite_power_axioms(order: int, fields: tuple[int, ...], budget: int) -> list[dict]:
    """The five exponent laws, factorization round-trips, and effectiveness."""
    rows = verify_power_axioms(_power_samples(order), order)
    e = parse_pair_spec

    roundtrip_bases = [
        ("1+t", PAIR_RING.one_plus_t(order)),
        ("1/(1-t)", PAIR_RING.geometric_series(order)),
        ("zeta(p1-marked:2)", kapranov_zeta(e("p1-marked:2"), order)),
        ("config(pn:2)", config_series_pair(e("pn:2"), order)),
        ("1+[finite:2,1]t+[p1-marked:1]t^2", PAIR_RING.one_plus([e("finite:2,1"), e("p1-marked:1")], order)),
    ]
    for name, base in roundtrip_bases:
        rows.append(axiom_row("factor-roundtrip", name, order, power_pow(base, PAIR_RING.one, PAIR_RING), base))

    for name, base, exponent in _effective_combos(order):
        powered = power_pow(base, exponent, PAIR_RING)
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
    """Exponential forms of both series for every catalog generator."""
    rows = []
    for name, p in catalog_samples():
        rows.extend(verify_identities(p, order, sample=name))
    return rows


# -- the worked example ----------------------------------------------------------


def suite_example_p1(order: int, fields: tuple[int, ...], budget: int) -> list[dict]:
    """Marked-line symmetric powers: both pipelines, counts, and the root map."""
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

    for q in fields:
        for n in range(1, 4):
            for s in range(0, min(5, q + 1) + 1):
                scene = MarkedP1Scene.standard(s, q)
                rows.append(
                    _check(
                        "hyperplane-union-count",
                        {"n": n, "s": s, "q": q},
                        count_marked_union(n, q, scene),
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
        line = enumerate_projective(1, q)
        for n in range(1, 4):
            s = min(3, q)
            scene = MarkedP1Scene.standard(s, q)
            marks = {_mark_point(m, q) for m in scene.marks}
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
    for size in range(5):
        for marked in range(size + 1):
            exponent = catalog("finite", size, marked)
            for l1 in label_options:
                for l2 in label_options:
                    scene = FiniteScene.from_sizes(size, marked, [l1, l2])
                    base = PAIR_RING.one_plus((catalog("finite", *l1), catalog("finite", *l2)), top)
                    powered = power_pow(base, exponent, PAIR_RING)
                    expected = [list(count_power_configs(scene, n, budget)) for n in range(top + 1)]
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
    series = config_series(MotivicPolynomial.lefschetz(), top, LEFSCHETZ_RING)
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
