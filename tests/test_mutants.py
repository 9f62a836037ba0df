"""Every suite can fail: an oracle or engine mutant that does not crash fails the named checks.

Each mutant is patched where the suites call it and run through the command
line, so a pass here shows that a live plan calls the oracle and compares
its counts, never a dry plan's stand-ins, and that the identities and weil
suites compare zeta's product route with a route that does not use it.
"""

import itertools
import json

import pytest

from motivic_pairs import lefschetz, oracle, suites
from motivic_pairs.cli import main
from motivic_pairs.lefschetz import MotivicPolynomial


def one_more_on_the_union(n, scene, budget):
    return oracle.count_marked_union(n, scene, budget) + 1


def one_point_dropped(n, q):
    return itertools.islice(oracle._points(n, q), 1, None)


def one_complement_lost(scene, top, budget):
    (ambient, complement), *rest = oracle.count_power_configs(scene, top, budget)
    return [(ambient, complement - 1), *rest]


def failed_checks(capsys):
    # the names of the failing rows of the one suite a verify run reported
    (report,) = json.loads(capsys.readouterr().out)["suites"]
    return {row.get("check", row.get("axiom")) for row in report["rows"] if not row["pass"]}


MUTANTS = [
    ("count_marked_union", one_more_on_the_union, "example-p1", "hyperplane-union-count"),
    ("_points", one_point_dropped, "ring-axioms", "catalog-count"),
    ("count_power_configs", one_complement_lost, "eq3-finite", "power-config-count"),
]


@pytest.mark.parametrize("name, mutant, suite, check", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_an_oracle_mutant_fails_its_suite(monkeypatch, capsys, name, mutant, suite, check):
    monkeypatch.setattr(suites, name, mutant)
    assert main(["verify", "--suite", suite]) == 1
    assert failed_checks(capsys) == {check}


@pytest.mark.parametrize(
    "suite, checks",
    [("identities", {"geometric-power-is-zeta", "binomial-power-is-config"}), ("weil", {"weil-kapranov"})],
)
def test_a_zeta_product_mutant_fails_its_suites(monkeypatch, capsys, suite, checks):
    # zeta's product route runs one pass short on every factor of multiplicity 2 or more
    product = lefschetz._zeta_product

    def one_pass_short(m, order):
        return product(MotivicPolynomial({k: c - 1 if c >= 2 else c for k, c in m.items()}), order)

    monkeypatch.setattr(lefschetz, "_zeta_product", one_pass_short)
    assert main(["verify", "--suite", suite]) == 1
    assert failed_checks(capsys) == checks


# At the default order no suite packs: the first packed sums come at order 12
# (statement1, ring-axioms), the first packed ghost steps at power-axioms
# order 16.  So the packed route's mutants run their suite at those orders.


def test_a_packed_sum_mutant_fails_statement1(monkeypatch, capsys):
    # a sum that runs packed gains 1 on its top coefficient
    packed_sum = lefschetz._packed_sum

    def one_more_on_top(pairs):
        acc = packed_sum(pairs)
        top = next(reversed(acc))
        return {**acc, top: acc[top] + 1}

    monkeypatch.setattr(lefschetz, "_packed_sum", one_more_on_top)
    assert main(["verify", "--suite", "statement1", "--order", "12"]) == 1
    assert failed_checks(capsys) == {"zeta-multiplicative"}


def test_a_packed_step_mutant_fails_power_axioms(monkeypatch, capsys):
    # a packed exp step returns its coefficient with 1 more on top; the steps
    # after it read the packed form, so only that coefficient is off
    step = lefschetz._PackedRecurrence.step

    def one_more_on_top(recurrence, n):
        made = step(recurrence, n)
        return made if recurrence.log else made + MotivicPolynomial({made.degree: 1})

    monkeypatch.setattr(lefschetz._PackedRecurrence, "step", one_more_on_top)
    assert main(["verify", "--suite", "power-axioms", "--order", "16"]) == 1
    assert failed_checks(capsys) == {"base-multiplicative"}
