"""Every suite can fail: an oracle or engine mutant that does not crash fails the named checks.

Each mutant is patched where the suites call it and run through the command
line, so a pass here shows that a live plan calls the oracle and compares
its counts, never a dry plan's stand-ins, and that the identities and weil
suites compare zeta's product route with a route that does not use it.
"""

import inspect
import json

import pytest

from motivic_pairs import TruncatedSeries, lefschetz, oracle, power, suites
from motivic_pairs.cli import main
from motivic_pairs.lefschetz import MotivicPolynomial, zeta_series


def one_more_on_the_union(n, scene, budget):
    return oracle.count_marked_union(n, scene, budget) + 1


def first_point_value_dropped(n, q, marks):
    # the pass loses the value of its first point (1 : 0 : ... : 0), where
    # a mark's form sum_j u^j v^(n-j) p_j is v^n: it is on the mark (1 : 0) alone
    total, on_marks = oracle._marked_union_pass(n, q, marks)
    return total - 1, on_marks - ((1, 0) in marks)


def one_complement_lost(scene, top, budget):
    (ambient, complement), *rest = oracle.count_power_configs(scene, top, budget)
    return [(ambient, complement - 1), *rest]


def failed_checks(capsys):
    # the names of the failing rows of the one suite a verify run reported
    (report,) = json.loads(capsys.readouterr().out)["suites"]
    return {row.get("check", row.get("axiom")) for row in report["rows"] if not row["pass"]}


MUTANTS = [
    ("count_marked_union", one_more_on_the_union, "example-p1", "hyperplane-union-count"),
    ("_marked_union_pass", first_point_value_dropped, "ring-axioms", "catalog-count"),
    ("count_power_configs", one_complement_lost, "eq3-finite", "power-config-count"),
]


@pytest.mark.parametrize("name, mutant, suite, check", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_an_oracle_mutant_fails_its_suite(monkeypatch, capsys, name, mutant, suite, check):
    monkeypatch.setattr(suites, name, mutant)
    assert main(["verify", "--suite", suite]) == 1
    assert failed_checks(capsys) == {check}


ZETA_PRODUCT_KILLS = [
    ("identities", {"geometric-power-is-zeta", "binomial-power-is-config"}),
    ("weil", {"weil-kapranov"}),
]


@pytest.mark.parametrize("suite, checks", ZETA_PRODUCT_KILLS)
def test_a_zeta_product_mutant_fails_its_suites(monkeypatch, capsys, suite, checks):
    # zeta's product route runs one pass short on every factor of multiplicity 2 or more
    product = lefschetz._zeta_product

    def one_pass_short(m, order):
        return product(MotivicPolynomial({k: c - 1 if c >= 2 else c for k, c in m.items()}), order)

    monkeypatch.setattr(lefschetz, "_zeta_product", one_pass_short)
    assert main(["verify", "--suite", suite]) == 1
    assert failed_checks(capsys) == checks


CONFIG_KILLS = [
    ("statement2", {"config-multiplicative", "config-of-unit-is-one-plus-t"}),
    ("squarefree", {"squarefree-config"}),
    ("identities", {"binomial-power-is-config"}),
]


@pytest.mark.parametrize("suite, checks", CONFIG_KILLS, ids=[k[0] for k in CONFIG_KILLS])
def test_a_config_mutant_fails_its_suites(monkeypatch, capsys, suite, checks):
    # the factor zeta_-m(t^2) of config_m(t) = zeta_m(t) zeta_-m(t^2) gains 1
    # at t^4, which adds t^4 zeta_m(t) to the product
    config = power.config_series

    def one_more_at_t4_of_the_square_factor(m, order):
        coeffs = config(m, order).coeffs
        zeta = zeta_series(m, order).coeffs
        return TruncatedSeries(coeffs[:4] + tuple(c + z for c, z in zip(coeffs[4:], zeta)))

    # config_series_pair reads it from power, the squarefree suite from suites
    monkeypatch.setattr(power, "config_series", one_more_at_t4_of_the_square_factor)
    monkeypatch.setattr(suites, "config_series", one_more_at_t4_of_the_square_factor)
    assert main(["verify", "--suite", suite]) == 1
    assert failed_checks(capsys) == checks


# At the default order power-axioms and identities run packed ghost steps,
# and the series multiplies of ring-axioms, statement1 and the others pack
# each factor once (_packed_series), but no suite packs an f*g at order 8,
# 12 or 16.  So the packed f*g mutant is shown on a command that runs one,
# a product of two dense catalog classes in a pair spec.


PACKED_SERIES_KILLS = [
    ("ring-axioms", {"series-div-roundtrip", "series-mul-associative", "zeta-inverse", "zeta-multiplicative-base"}),
    ("statement1", {"zeta-multiplicative"}),
]
PACKED_STEP_KILLS = (
    "power-axioms",
    {"base-multiplicative", "effective", "exponent-additive", "exponent-multiplicative", "factor-roundtrip"},
)


def test_verify_all_runs_the_product_kernels(monkeypatch, capsys):
    # the default certification command makes products in the four kernels,
    # a packed ghost step, a packed series product, the dict loop and zeta's
    # product route, so a mutant of any of them can fail it
    calls = {"step": 0, "_packed_series": 0, "_dict_sum": 0, "_zeta_product": 0}

    def counted(name, routine):
        def call(*args):
            calls[name] += 1
            return routine(*args)
        return call

    monkeypatch.setattr(lefschetz._PackedRecurrence, "step", counted("step", lefschetz._PackedRecurrence.step))
    for name in ("_packed_series", "_dict_sum", "_zeta_product"):
        monkeypatch.setattr(lefschetz, name, counted(name, getattr(lefschetz, name)))
    assert main(["verify", "--suite", "all"]) == 0
    capsys.readouterr()
    assert all(calls.values()), calls


@pytest.mark.parametrize("suite, checks", PACKED_SERIES_KILLS, ids=[k[0] for k in PACKED_SERIES_KILLS])
def test_a_packed_series_mutant_fails_its_suites(monkeypatch, capsys, suite, checks):
    # a series product that packs its factors gains 1 on the top L-degree
    # of its last coefficient (at L^0 if that coefficient is zero)
    packed_series = lefschetz._packed_series

    def one_more_on_top(a, b):
        *head, last = packed_series(a, b)
        return (*head, last + MotivicPolynomial({max(last.degree, 0): 1}))

    monkeypatch.setattr(lefschetz, "_packed_series", one_more_on_top)
    assert main(["verify", "--suite", suite]) == 1
    assert failed_checks(capsys) == checks


def test_a_packed_product_mutant_changes_a_pair_spec_product(monkeypatch, capsys):
    # a packed series product gains 1 on the top L-degree of its last
    # coefficient; P^20 x P^20 has 21 dense terms per factor, so the pair
    # spec's f*g packs as a one-pair series product in each lane
    argv = ["zeta", "--pair", "prod(pn:20,pn:20)", "--order", "2", "--format", "json"]
    assert main(argv) == 0
    intact = capsys.readouterr().out
    packed_series, calls = lefschetz._packed_series, []

    def one_more_on_top(a, b):
        calls.append((a, b))
        *head, last = packed_series(a, b)
        return (*head, last + MotivicPolynomial({last.degree: 1}))

    monkeypatch.setattr(lefschetz, "_packed_series", one_more_on_top)
    assert main(argv) == 0
    mutated = capsys.readouterr().out
    assert len(calls) == 2  # one product per lane
    assert json.loads(mutated)["coeffs"][1] != json.loads(intact)["coeffs"][1]


def test_a_packed_step_mutant_fails_power_axioms(monkeypatch, capsys):
    # a packed exp step returns its coefficient with 1 more on top (at L^0
    # if it is zero); the steps after it read the packed form, so only that
    # coefficient is off
    step = lefschetz._PackedRecurrence.step

    def one_more_on_top(recurrence, n):
        made = step(recurrence, n)
        return made if recurrence.log else made + MotivicPolynomial({max(made.degree, 0): 1})

    monkeypatch.setattr(lefschetz._PackedRecurrence, "step", one_more_on_top)
    suite, checks = PACKED_STEP_KILLS
    assert main(["verify", "--suite", suite]) == 1
    assert failed_checks(capsys) == checks


def test_a_divisor_sum_mutant_crashes_verify_all(monkeypatch, capsys):
    # _lane_pow's scaled divisor sum adds m*c_i at its own degrees instead of
    # psi_r's (target[d] for target[d * r]).  The scaled ghosts then belong to
    # no series over Z[L], so the exp recurrence raises on a non-integral
    # coefficient: verify ends in an internal error (exit 4), not in a failed
    # row.  Pinned so that a change making this mutant pass silently shows.
    source = inspect.getsource(power._lane_pow)
    psi_r = "target[d * r] = target.get(d * r, 0) + v"
    assert source.count(psi_r) == 1
    namespace = dict(vars(power))
    exec(source.replace(psi_r, "target[d] = target.get(d, 0) + v"), namespace)
    monkeypatch.setattr(power, "_lane_pow", namespace["_lane_pow"])
    assert main(["verify", "--suite", "all"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ArithmeticError: L^")
    assert "no series over Z[L] has these ghosts" in captured.err


CONSTANT_TERM_KILLS = [
    ("eq3-finite", {"power-config-count"}),
    ("power-axioms", {"exponent-additive", "exponent-multiplicative", "factor-roundtrip", "unit-exponent"}),
    ("identities", {"binomial-power-is-config", "geometric-power-is-zeta"}),
]


@pytest.mark.parametrize("suite, checks", CONSTANT_TERM_KILLS, ids=[k[0] for k in CONSTANT_TERM_KILLS])
def test_a_constant_term_mutant_fails_its_suites(monkeypatch, capsys, suite, checks):
    # _lane_pow scales the ghosts by m0 + 1 instead of the exponent's
    # constant term m0, on the constant route and the L-part route alike;
    # every finite: class is a constant exponent
    source = inspect.getsource(power._lane_pow)
    scale = "m0 * v"
    assert source.count(scale) == 2
    namespace = dict(vars(power))
    exec(source.replace(scale, "(m0 + 1) * v"), namespace)
    monkeypatch.setattr(power, "_lane_pow", namespace["_lane_pow"])
    assert main(["verify", "--suite", suite]) == 1
    assert failed_checks(capsys) == checks


def test_every_suite_has_a_mutant_that_fails_it():
    # a new suite cannot land without a mutant row above, and no row names a suite that is gone
    killed = [suite for _, _, suite, _ in MUTANTS]
    tables = ZETA_PRODUCT_KILLS + CONFIG_KILLS + CONSTANT_TERM_KILLS + PACKED_SERIES_KILLS + [PACKED_STEP_KILLS]
    killed += [suite for suite, _ in tables]
    assert set(suites.SUITES) == set(killed)
