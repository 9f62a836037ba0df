"""End-to-end acceptance gate.

One test per exit criterion, each printing a single pass/fail line
(visible under `pytest -s`).  All comparisons are exact; there are no
tolerances anywhere.
"""

import json
import subprocess
import sys
import time

from motivic_pairs import catalog, kapranov_zeta, run_suite
from motivic_pairs.suites import CATALOG_SPECS

POWER_LAWS = (
    "zero-exponent",
    "unit-exponent",
    "base-multiplicative",
    "exponent-additive",
    "exponent-multiplicative",
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_worked_example_coherence():
    cases = [(n, s) for n in range(9) for s in range(6)]
    lam = {(n, s): kapranov_zeta(catalog("p1-marked", s), n).coefficient(n) for n, s in cases}
    bad = [(n, s) for n, s in cases if catalog("pn-hyp", n, s) != lam[n, s]]
    _report(
        1,
        not bad and len(cases) == 54,
        f"marked-line symmetric powers agree along both routes, {len(cases)} cases, "
        f"{len(bad)} mismatches",
    )


def test_criterion_2_both_series_multiplicative_at_order_10():
    zeta = run_suite("statement1", order=10)
    config = run_suite("statement2", order=10)
    sums = [r for r in zeta["rows"] if r["axiom"] == "zeta-multiplicative"]
    sums2 = [r for r in config["rows"] if r["axiom"] == "config-multiplicative"]
    ok = zeta["pass"] and config["pass"] and len(sums) >= 20 and len(sums2) >= 20
    _report(
        2,
        ok,
        f"zeta and config series multiplicative over {len(sums)}/{len(sums2)} "
        "sampled catalog sums at order 10",
    )


def test_criterion_3_power_axioms_at_order_8():
    report = run_suite("power-axioms", order=8)
    law_rows = [r for r in report["rows"] if r["axiom"] in POWER_LAWS]
    samples = {r["sample"] for r in law_rows}
    with_difference = {s for s in samples if "-" in s.split(";")[1]}
    ok = (
        all(r["pass"] for r in law_rows)
        and {r["axiom"] for r in law_rows} == set(POWER_LAWS)
        and len(samples) >= 10
        and with_difference
    )
    _report(
        3,
        ok,
        f"all five exponent laws exact to order 8 on {len(samples)} samples, "
        f"{len(with_difference)} with difference exponents",
    )


def test_criterion_4_exponential_forms_for_every_generator():
    report = run_suite("identities", order=10)
    covered = {r["sample"] for r in report["rows"]}
    axioms = {r["axiom"] for r in report["rows"]}
    ok = (
        report["pass"]
        and covered == set(CATALOG_SPECS)
        and axioms == {"geometric-power-is-zeta", "binomial-power-is-config"}
    )
    _report(
        4,
        ok,
        f"geometric power = zeta and binomial power = config at order 10 "
        f"for all {len(covered)} catalog generators",
    )


def test_criterion_5_effectiveness_at_four_fields():
    report = run_suite("power-axioms", order=8, fields=(2, 3, 5, 7))
    effective = [r for r in report["rows"] if r["axiom"] == "effective"]
    fields_seen = {int(r["sample"].rsplit("q=", 1)[1]) for r in effective}
    combos = {r["sample"].rsplit(" at q=", 1)[0] for r in effective}
    ok = (
        all(r["pass"] for r in effective)
        and fields_seen == {2, 3, 5, 7}
        and len(combos) >= 6
    )
    _report(
        5,
        ok,
        f"0 <= comp(q) <= amb(q) for every coefficient to order 8, "
        f"{len(combos)} effective bases, q in {sorted(fields_seen)}",
    )


def test_criterion_6_exhaustive_finite_scenes():
    report = run_suite("eq3-finite")
    ok = report["pass"] and len(report["rows"]) == 15 * 6 * 6
    _report(
        6,
        ok,
        f"series exponentials equal exhaustive configuration counts on "
        f"{len(report['rows'])} scenes (atoms <= 4, weights <= 2, "
        "labels per weight <= 2, n <= 4)",
    )


def test_criterion_7_finite_field_oracles():
    example = run_suite("example-p1", fields=(2, 3, 5))
    union_rows = [r for r in example["rows"] if r["check"] == "hyperplane-union-count"]
    union_grid = {(r["params"]["n"], r["params"]["s"], r["params"]["q"]) for r in union_rows}
    expected_grid = {
        (n, s, q)
        for q in (2, 3, 5)
        for n in range(1, 4)
        for s in range(0, min(5, q + 1) + 1)
    }

    squarefree = run_suite("squarefree", fields=(2, 3, 5))
    sq_grid = {
        (r["params"]["q"], r["params"]["n"])
        for r in squarefree["rows"]
        if r["check"] == "squarefree-config"
    }

    weil = run_suite("weil", fields=(2, 3, 5))
    p1_rows = [
        r
        for r in weil["rows"]
        if r["params"].get("space") == "p1" and r["check"] in ("weil-kapranov", "weil-closed-form")
    ]
    weil_depth = all(len(r["expected"]) >= 11 for r in p1_rows)

    ok = (
        example["pass"]
        and union_grid == expected_grid
        and squarefree["pass"]
        and sq_grid == {(q, n) for q in (2, 3, 5) for n in range(1, 7)}
        and weil["pass"]
        and len(p1_rows) == 6
        and weil_depth
    )
    _report(
        7,
        ok,
        f"hyperplane-union counts ({len(union_rows)} grid points), squarefree "
        f"counts ({len(sq_grid)} pairs), and symmetric-power counts of the "
        "line to n=10 all match the engine exactly",
    )


def test_criterion_8_deterministic_verify_cli():
    cmd = [sys.executable, "-m", "motivic_pairs", "verify", "--suite", "all"]
    start = time.monotonic()
    first = subprocess.run(cmd, capture_output=True, timeout=120)
    second = subprocess.run(cmd, capture_output=True, timeout=120)
    elapsed = time.monotonic() - start
    identical = first.stdout == second.stdout
    well_formed = False
    try:
        well_formed = json.loads(first.stdout)["pass"] is True
    except (json.JSONDecodeError, KeyError):
        pass
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and identical
        and well_formed
        and elapsed < 60.0
    )
    _report(
        8,
        ok,
        f"verify --suite all twice: exit codes ({first.returncode}, "
        f"{second.returncode}), byte-identical={identical}, "
        f"overall pass={well_formed}, {elapsed:.1f}s for both runs",
    )
