"""Command-line surface: spec grammar, output shapes, exit codes."""

import contextlib
import hashlib
import io
import json
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from motivic_pairs import MotivicPolynomial, PairClass, catalog, kapranov_zeta
from motivic_pairs import cli, lefschetz, power, suites
from motivic_pairs.cli import main
from motivic_pairs.pairs import MAX_SPEC_DEPTH, parse_pair_spec

L = MotivicPolynomial.lefschetz()


def cells(line):
    return [c.strip() for c in line.split("|")]


def nested_negations(depth):
    return "neg(" * depth + "point" + ")" * depth


@pytest.fixture
def within_two_seconds():
    # A refusal is timed after main returns, so one that stops refusing would
    # run its whole computation before failing: the alarm fails it at 2 s.
    def expired(signum, frame):
        pytest.fail("still running after 2 s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# -- pair-spec grammar -------------------------------------------------------------


def test_parse_atoms():
    assert parse_pair_spec("point") == PairClass.one()
    assert parse_pair_spec("empty") == PairClass.zero()
    assert parse_pair_spec("finite:3,1") == PairClass(MotivicPolynomial.constant(3), MotivicPolynomial.constant(2))
    assert parse_pair_spec(" pn:2 ") == catalog("pn", 2)


def test_parse_sum_with_numeric_parameters():
    # a numeric fragment after a comma belongs to the previous atom
    combined = parse_pair_spec("sum(finite:3,1,pn:2)")
    assert combined == catalog("finite", 3, 1) + catalog("pn", 2)
    # spaces around a parameter are allowed, inside a combinator as outside
    assert parse_pair_spec("sum(finite:3, 1)") == parse_pair_spec("finite: 3 , 1 ") == catalog("finite", 3, 1)


def test_parse_nested_combinators():
    value = parse_pair_spec("prod(p1-marked:1,sum(point,neg(finite:2,0)))")
    expected = catalog("p1-marked", 1) * (PairClass.one() - catalog("finite", 2, 0))
    assert value == expected
    assert parse_pair_spec("neg(neg(pn:1))") == catalog("pn", 1)
    assert parse_pair_spec(nested_negations(MAX_SPEC_DEPTH)) == PairClass.one()


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_pair_spec("mystery")
    with pytest.raises(ValueError):
        parse_pair_spec("finite:a,b")
    with pytest.raises(ValueError):
        parse_pair_spec("sum(point,)")
    with pytest.raises(ValueError):
        parse_pair_spec("neg(point,empty)")
    # unbalanced input is reported as such: a combinator left open, an
    # argument left open, a parenthesis closed too early
    for unbalanced in ("sum(point", "sum((point)", "sum(point)(point)"):
        with pytest.raises(ValueError, match="unbalanced"):
            parse_pair_spec(unbalanced)
    with pytest.raises(ValueError):
        parse_pair_spec("finite")  # missing required sizes
    with pytest.raises(ValueError, match="nested deeper"):
        parse_pair_spec(nested_negations(MAX_SPEC_DEPTH + 1))


# -- zeta and pow ------------------------------------------------------------------


def test_zeta_point_all_units(capsys):
    assert main(["zeta", "--pair", "point", "--order", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert cells(lines[0]) == ["deg", "ambient", "complement", "subvariety"]
    for line in lines[1:]:
        assert cells(line)[1:] == ["1", "1", "0"]


def test_zeta_finite_counts(capsys):
    assert main(["zeta", "--pair", "finite:3,1", "--order", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert cells(lines[3]) == ["t^2", "6", "3", "3"]


def test_zeta_json_shape(capsys):
    assert main(["zeta", "--pair", "p1-marked:1", "--order", "2", "--format", "json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["order"] == 2
    assert len(blob["coeffs"]) == 3
    assert blob["coeffs"][1] == {"amb": {"0": "1", "1": "1"}, "comp": {"1": "1"}}


def test_pow_one_plus_t(capsys):
    assert main(["pow", "--base", "one-plus-t", "--pair", "finite:3,1", "--order", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert cells(lines[2]) == ["t^1", "3", "2", "1"]
    assert cells(lines[3]) == ["t^2", "3", "1", "2"]
    assert cells(lines[4]) == ["t^3", "1", "0", "1"]


def test_pow_geometric_matches_zeta(capsys):
    assert main(["pow", "--base", "geometric", "--pair", "pn:2", "--order", "4"]) == 0
    powed = capsys.readouterr().out
    assert main(["zeta", "--pair", "pn:2", "--order", "4"]) == 0
    assert capsys.readouterr().out == powed


def test_pow_explicit_coefficients(capsys):
    code = main(
        [
            "pow",
            "--base", "coeffs",
            "--coeff", "finite:2,1",
            "--pair", "finite:2,0",
            "--order", "2",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    # (1 + (2,1)t)^(2,2): the linear term doubles the coefficient
    assert cells(lines[2]) == ["t^1", "4", "2", "2"]


@pytest.mark.usefixtures("within_two_seconds")
@pytest.mark.parametrize(
    "argv, what",
    [
        (["zeta", "--pair", "pn:2", "--order", "3000"], "zeta series to order 3000"),
        (["zeta", "--pair", "pn:100000", "--order", "3"], "zeta series to order 3"),
        (["pow", "--base", "geometric", "--pair", "point", "--order", "5000"], "series exponential to order 5000"),
        (["pow", "--base", "coeffs", "--coeff", "pn:40", "--pair", "pn:40", "--order", "30"],
         "series exponential to order 30"),
    ],
    ids=["zeta-deep", "zeta-wide", "pow-deep", "pow-wide"],
)
def test_algebra_over_budget_exits_3(capsys, argv, what):
    # the term-product bound refuses before any series is built
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"budget exhausted: {what} needs ~")
    assert captured.err.endswith("steps, budget is 10000000\n")


@pytest.mark.usefixtures("within_two_seconds")
@pytest.mark.parametrize(
    "argv, price",
    [
        (["zeta", "--pair", "pn:2", "--order", "3000"], "zeta series to order 3000 needs ~54027003000"),
        (["zeta", "--pair", "pn:100000", "--order", "3"], "zeta series to order 3 needs ~80002000012"),
        (["pow", "--base", "geometric", "--pair", "point", "--order", "5000"],
         "series exponential to order 5000 needs ~50010000"),
        (["pow", "--base", "coeffs", "--coeff", "pn:40", "--pair", "pn:40", "--order", "30"],
         "series exponential to order 30 needs ~579121460"),
        (["example", "--n", "3000", "--s", "1", "--q", "2"],
         "zeta series of p1-marked:1 to order 3000 needs ~13513503000"),
        # each of its two zero lanes is priced at the N(N+1)/2 steps of its loop
        (["zeta", "--pair", "empty", "--order", "100000"], "zeta series to order 100000 needs ~10000100000"),
    ],
    ids=["zeta-deep", "zeta-wide", "pow-deep", "pow-wide", "example-deep-zeta", "zeta-zero-lanes"],
)
def test_command_prices_are_pinned(capsys, argv, price):
    # the exact closed-form price each command refuses with; any change to a cost bound shows here
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"budget exhausted: {price} steps, budget is 10000000\n"


@pytest.mark.usefixtures("within_two_seconds")
@pytest.mark.parametrize(
    "argv, code, message",
    [
        # a prime field size near 2^61 is decided at once, and the
        # enumerations it would need are refused against the budget
        (["verify", "--suite", "all", "--q", "2305843009213693951"], 3,
         "budget exhausted: affine line enumeration at q=2305843009213693951 needs ~"),
        (["verify", "--suite", "ring-axioms", "--q", "1000000007"], 3,
         "budget exhausted: affine line enumeration at q=1000000007 needs ~"),
        (["verify", "--suite", "weil", "--q", str(2**89 - 1)], 2, "is not decided"),
        (["example", "--n", "3000", "--s", "1", "--q", "2"], 3,
         "budget exhausted: zeta series of p1-marked:1 to order 3000 needs ~"),
        # the oracle suites refuse before enumerating anything: one
        # enumeration over the budget by itself, or their total
        (["verify", "--suite", "squarefree", "--q", "1000003"], 3,
         "budget exhausted: squarefree enumeration at q=1000003, n=2 needs ~"),
        (["verify", "--suite", "example-p1", "--q", "1000003"], 3,
         "budget exhausted: projective enumeration at q=1000003, n=2 needs ~"),
        (["verify", "--suite", "example-p1", "--q", "3121", "--budget", "9800000"], 3,
         "budget exhausted: projective enumeration at q=3121, n=2 against 2 marks needs ~19487526"),
        (["verify", "--suite", "squarefree", "--q", "13,11,7", "--budget", "5000000"], 3,
         "budget exhausted: squarefree suite enumerations needs ~7315014 steps"),
        (["verify", "--suite", "example-p1", "--q", "113"], 3,
         "budget exhausted: example-p1 suite enumerations needs ~23500432 steps"),
        # a scene is charged its points times its marks (at least one)
        (["verify", "--suite", "example-p1", "--q", "211"], 3,
         "budget exhausted: projective enumeration at q=211, n=3 against 2 marks needs ~18877328"),
        # ring-axioms charges every catalog scene before it counts any
        (["verify", "--suite", "ring-axioms", "--q", "211"], 3,
         "budget exhausted: projective enumeration at q=211, n=3 against 2 marks needs ~18877328"),
        (["verify", "--suite", "ring-axioms", "--q", "127"], 3,
         "budget exhausted: ring-axioms suite enumerations needs ~12455040 steps"),
        # example tests every point against every mark, and charges both
        # before it builds a scene
        (["example", "--n", "1", "--s", "100000", "--q", "100003"], 3,
         "budget exhausted: projective enumeration at q=100003, n=1 against 100000 marks needs ~10000400000 steps"),
        (["example", "--n", "1", "--s", "5000000", "--q", "5000011"], 3,
         "budget exhausted: projective enumeration at q=5000011, n=1 against 5000000 marks needs ~"),
        # each field fits the budget, but not both
        (["example", "--n", "3", "--s", "1", "--q", "199,197"], 3,
         "budget exhausted: example enumerations needs ~15604780 steps, budget is 10000000"),
        # a pair spec is charged its work so far before each sum or product
        # step: 5001 x 5001 term products per lane at the second factor, and
        # about 90000 terms per summand of 9001 terms
        (["zeta", "--pair", "prod(" + ",".join(["pn:5000"] * 16) + ")", "--order", "0"], 3,
         "budget exhausted: pair spec terms and term products needs ~50050008 steps"),
        (["zeta", "--pair", "prod(" + ",".join(["pn:5000"] * 24) + ")", "--order", "0"], 3,
         "budget exhausted: pair spec terms and term products needs ~50050008 steps"),
        (["zeta", "--pair", "sum(" + ",".join(["pn:9000"] * 1000) + ")", "--order", "0"], 3,
         "budget exhausted: pair spec terms and term products needs ~10045116 steps"),
    ],
    ids=[
        "verify-q-2^61-1", "affine-marked-q", "q-past-primality-bound", "example-deep-zeta",
        "squarefree-huge-q", "example-p1-huge-q", "example-p1-q3121", "squarefree-total",
        "example-p1-total", "example-p1-q211", "ring-axioms-q211", "ring-axioms-total",
        "example-many-marks", "example-millions-of-marks", "example-total",
        "spec-prod-of-16", "spec-prod-of-24", "spec-sum-of-1000",
    ],
)
def test_huge_inputs_end_at_once(capsys, argv, code, message):
    start = time.perf_counter()
    if code == 2:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    else:
        assert main(argv) == code
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert message in err[-1]
    if code == 3:
        assert len(err) == 1


@pytest.mark.usefixtures("within_two_seconds")
def test_prime_field_near_2_61_runs(capsys):
    start = time.perf_counter()
    assert main(["verify", "--suite", "weil", "--q", "2305843009213693951"]) == 0
    assert time.perf_counter() - start < 2.0


# The marked-union counts at large q: P^3 over F_101 against 3 marks is
# 3.1e6 point values, and example-p1 at q = 31 counts 5.6e5.
LARGE_FIELD_OUTPUTS = [
    (["example", "--n", "3", "--s", "3", "--q", "101"],
     "c28eceb9f6f77ba77d50b7fa9e7d5c57094855c4fa9d4f285cc7923d353269fd"),
    (["verify", "--suite", "example-p1", "--q", "31"],
     "1f9d70fb145adf5c78e02a386ef885cced71d0ee8d819d900eee975ce3e80740"),
]


@pytest.mark.usefixtures("within_two_seconds")
@pytest.mark.parametrize("argv, expected", LARGE_FIELD_OUTPUTS, ids=["example-q101", "verify-example-p1-q31"])
def test_large_field_enumerations_run_in_bulk(capsys, argv, expected):
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == expected


def test_pow_coeff_flag_requires_coeffs_base(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pow", "--base", "geometric", "--coeff", "point", "--pair", "point"])
    assert exc.value.code == 2


# -- example -----------------------------------------------------------------------


def test_example_matches_hand_counts(capsys):
    assert main(["example", "--n", "2", "--s", "2", "--q", "2,3"]) == 0
    out = capsys.readouterr().out
    assert "equal: yes" in out
    assert "q=2: union of marked hyperplanes has 5 points enumerated, 5 from the class (ok)" in out
    assert "q=3: union of marked hyperplanes has 7 points enumerated, 7 from the class (ok)" in out


def test_example_json(capsys):
    assert main(["example", "--n", "1", "--s", "1", "--q", "2", "--format", "json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["equal"] is True
    assert blob["n"] == 1
    assert blob["counts"] == [{"q": 2, "union_enumerated": 1, "union_class": 1, "pass": True}]


def test_example_skips_fields_without_enough_points(capsys):
    assert main(["example", "--n", "2", "--s", "4", "--q", "2,3"]) == 0
    out = capsys.readouterr().out
    assert "q=2: skipped" in out
    assert "q=3:" in out and "skipped" not in out.splitlines()[-1]


def test_example_counts_no_union_in_dimension_zero(capsys):
    # P^0 holds no hyperplane, so no field is enumerated
    assert main(["example", "--n", "0", "--s", "1", "--q", "2,3", "--format", "json"]) == 0
    assert [c.get("skipped") for c in json.loads(capsys.readouterr().out)["counts"]] == ["enumeration needs n >= 1"] * 2


def test_example_over_budget_exits_3(capsys):
    # P^30 over F_5 has ~1.2e21 points: refused before any is built
    assert main(["example", "--n", "30", "--s", "2", "--q", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("budget exhausted: projective enumeration at q=5, n=30")


def test_example_rejects_negative_inputs():
    with pytest.raises(SystemExit) as exc:
        main(["example", "--n", "-1", "--s", "0"])
    assert exc.value.code == 2


# -- verify ------------------------------------------------------------------------


def test_verify_single_suite_json(capsys):
    assert main(["verify", "--suite", "weil", "--q", "2"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["pass"] is True
    assert blob["fields"] == [2]
    assert [s["suite"] for s in blob["suites"]] == ["weil"]
    for row in blob["suites"][0]["rows"]:
        assert row["pass"] is True


def test_verify_text_mode(capsys):
    assert main(["verify", "--suite", "squarefree", "--q", "2,3", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "suite squarefree:" in out
    assert out.strip().endswith("overall: PASS")


def test_verify_runs_are_byte_identical(capsys):
    assert main(["verify", "--suite", "statement1", "--order", "6"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--suite", "statement1", "--order", "6"]) == 0
    assert capsys.readouterr().out == first


def test_verify_all_output_is_pinned(capsys):
    # SHA-256 of the default `verify --suite all` report; any changed row changes it
    assert main(["verify", "--suite", "all"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "d7ace563c86451be35b02e77eaef9470b28e4cd5b9b259c9e9e1f56ee2eacac0"


# Every route reproduces the pinned reports at orders 8, 12 and 16.  Each
# variant forces the routes through the rules that choose them:
# power.py imports _product_route by name, so both bindings are patched.
VERIFY_GRID_DIGESTS = {
    "8": "d7ace563c86451be35b02e77eaef9470b28e4cd5b9b259c9e9e1f56ee2eacac0",
    "12": "64cfb756a823e84bb8c7cf6dac54229e3f2aab4e88f7799394ecf02fe2a8e5c1",
    "16": "7ae8f25dd364614178b70e47783f6e0da354aebb1698280dfe6e81363a59e3b7",
}


FORCED_ROUTES = {
    # dict loops, the ghost route and one sum per series coefficient everywhere
    "dict-and-ghost": [
        (lefschetz, "_PACK_TERMS", 10**9),
        (lefschetz, "_packs", lambda *sizes: False),
        (lefschetz, "_packs_series", lambda a, b: False),
        (lefschetz, "_product_route", lambda m, order: False),
        (power, "_product_route", lambda m, order: False),
    ],
    # every recurrence packed from step 2, the first that sums, and every
    # product f*g of two nonzero factors packed
    "packed": [
        (lefschetz, "_packs", lambda *sizes: True),
        (lefschetz, "_PACK_TERMS", 1),
        (lefschetz, "_PACK_SPREAD", 10**9),
    ],
    "product-route": [
        (lefschetz, "_product_route", lambda m, order: bool(m._coeffs)),
        (power, "_product_route", lambda m, order: bool(m._coeffs)),
    ],
    "series-packed": [(lefschetz, "_packs_series", lambda a, b: True)],
    "series-per-coefficient": [(lefschetz, "_packs_series", lambda a, b: False)],
}


@pytest.mark.parametrize("route", FORCED_ROUTES)
def test_every_route_gives_the_pinned_verify_reports(monkeypatch, capsys, route):
    for module, name, value in FORCED_ROUTES[route]:
        assert hasattr(module, name)
        monkeypatch.setattr(module, name, value)
    for order, digest in VERIFY_GRID_DIGESTS.items():
        assert main(["verify", "--suite", "all", "--order", order]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, (route, order)


PINNED_OUTPUTS = [
    (["verify", "--suite", "all", "--order", "0"],
     "cb95184a7c59524262ea757f73c92521b6e1ef6e0b206bdf5e92b2e8d9f8ee0a"),
    (["verify", "--suite", "all", "--order", "1"],
     "27093862ffa569bccffcbda124264488aada2f45d4b01c9a2873f0fd94bf8429"),
    (["verify", "--suite", "all", "--order", "5"],
     "dd78f2c23421f128c4e59a33fa9fa69a2fd51bcf284d9612ff9994794edf6065"),
    (["pow", "--base", "geometric", "--pair", "sum(p1-marked:2,neg(finite:3,1))",
      "--order", "8", "--format", "json"],
     "19356d0f549249a8e6fe2b53b7da17316ba7ed00c540b4a4dcc79e38a0fe1dbf"),
    (["pow", "--base", "one-plus-t", "--pair", "sum(p1-marked:2,neg(finite:3,1))",
      "--order", "8", "--format", "json"],
     "4327f719d148175fa159dccd8fcf61242111611db813f465be8217601a0120e8"),
    (["pow", "--base", "coeffs", "--coeff", "finite:2,1", "--coeff", "p1-marked:1",
      "--pair", "pn-hyp:2,2", "--order", "8", "--format", "json"],
     "1e8d2875d6040b07dfe25a2bfdc1032f43b697280bcba577d6c3ea53c8069388"),
    (["verify", "--suite", "squarefree", "--q", "7"],
     "29524ed7494eecffd8ef3028f87f1dd49d8660a51738e81fc0956c9924bd77c7"),
    (["zeta", "--pair", "p1-marked:2", "--order", "8", "--format", "json"],
     "9612a071af98faeb7f91364db8af9e2eb99d4483ed42c7b899d3c17755ee3f68"),
    (["example", "--n", "3", "--s", "2", "--format", "json"],
     "63da05f998e9c260a3888d3280dbd3a3d0effd954770c79aa6bba26127c26946"),
    # q = 2 has too few points for 4 marks: the report holds a "skipped" entry
    (["example", "--n", "2", "--s", "4", "--q", "2,3,5", "--format", "json"],
     "c763ab8d5282b83d9c22d56c6163096bdf3c147eb5e34d76baa3cb1b0167cb1c"),
]


@pytest.mark.parametrize(
    "argv, expected", PINNED_OUTPUTS,
    ids=[
        "verify-order0", "verify-order1", "verify-order5",
        "pow-geometric", "pow-one-plus-t", "pow-coeffs", "verify-squarefree-q7",
        "zeta-json", "example-json", "example-json-skipped",
    ],
)
def test_output_is_pinned(capsys, argv, expected):
    # SHA-256 of stdout; any changed row or coefficient changes it
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == expected


def test_verify_budget_exhaustion_exit_code(capsys):
    assert main(["verify", "--suite", "squarefree", "--budget", "5"]) == 3
    err = capsys.readouterr().err
    assert "budget exhausted" in err


def test_verify_budget_bounds_projective_enumeration(capsys):
    # the budget covers the suite's series (2760 term products) and its scenes up to
    # P^2 over F_53 against 1 mark, but not its 2863 points tested against 2 marks
    assert main(["verify", "--suite", "example-p1", "--q", "53", "--budget", "3000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "projective enumeration at q=53, n=2 against 2 marks needs ~5726 steps, budget is 3000" in captured.err


def test_verify_identities_over_budget_exits_3(capsys):
    # the identities suite bounds its term products before building a series
    start = time.perf_counter()
    assert main(["verify", "--suite", "identities", "--order", "200"]) == 3
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("budget exhausted: identities suite at order 200 needs ~")
    assert captured.err.endswith("steps, budget is 10000000\n")
    assert len(captured.err.splitlines()) == 1


def test_verify_identities_budget_is_the_flag(capsys):
    # order 20 is bounded by about 3.0e6 term products: over 10^6, under the default 10^7
    assert main(["verify", "--suite", "identities", "--order", "20", "--budget", "1000000"]) == 3
    assert capsys.readouterr().out == ""
    assert main(["verify", "--suite", "identities", "--order", "20"]) == 0


@pytest.mark.parametrize("suite", ["ring-axioms", "statement1", "statement2", "power-axioms"])
def test_algebra_suite_over_budget_exits_3(capsys, suite):
    # each algebra suite bounds its term products before building a series
    start = time.perf_counter()
    assert main(["verify", "--suite", suite, "--order", "200"]) == 3
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"budget exhausted: {suite} suite at order 200 needs ~")
    assert captured.err.endswith("steps, budget is 10000000\n")
    assert len(captured.err.splitlines()) == 1


def test_algebra_suite_budget_is_the_flag(capsys):
    # power-axioms at order 12 is bounded by about 1.0e6 term products
    assert main(["verify", "--suite", "power-axioms", "--order", "12", "--budget", "500000"]) == 3
    assert capsys.readouterr().out == ""
    assert main(["verify", "--suite", "power-axioms", "--order", "12", "--budget", "2000000"]) == 0


class ClosedStdout(io.TextIOBase):
    """A stdout whose reader has gone away: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def failing_suite(order, fields, budget):
    return [{"check": "always-fails", "params": {}, "expected": 0, "actual": 1, "pass": False}]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify", "--suite", "squarefree", "--q", "7"], 0),
        (["verify", "--suite", "weil", "--format", "text"], 1),
        (["example", "--n", "2", "--s", "2", "--q", "2,3"], 0),
        (["zeta", "--pair", "p1-marked:2", "--order", "3"], 0),
        (["pow", "--base", "geometric", "--pair", "pn:1", "--order", "3"], 0),
    ],
    ids=["verify-pass", "verify-fail", "example", "zeta", "pow"],
)
def test_closed_stdout_keeps_the_verdict(capsys, monkeypatch, argv, code):
    # the weil suite is swapped for a failing one, so the verdict to keep is 1
    monkeypatch.setitem(suites.SUITES, "weil", failing_suite)
    monkeypatch.setattr(sys, "stdout", ClosedStdout())
    assert main(argv) == code
    assert capsys.readouterr().err == ""


def test_pipe_closed_early_ends_quietly():
    # the reader closes the pipe before the command writes a byte
    cmd = [sys.executable, "-m", "motivic_pairs", "verify", "--suite", "squarefree", "--q", "7"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""


def test_crash_is_internal_error_exit_4(capsys, monkeypatch):
    def broken_suite(order, fields, budget):
        raise RuntimeError("suite broke")

    monkeypatch.setitem(suites.SUITES, "weil", broken_suite)
    assert main(["verify", "--suite", "weil"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: suite broke\n"


# -- the lane memo: one table per command -----------------------------------------------


def test_equal_lanes_run_one_recurrence_per_command(capsys, monkeypatch):
    # pn:3 is unmarked, so its ambient and complement lanes are equal
    calls = []
    original = lefschetz._zeta_product

    def counting(m, order):
        calls.append(order)
        return original(m, order)

    monkeypatch.setattr(lefschetz, "_zeta_product", counting)
    assert main(["zeta", "--pair", "pn:3", "--order", "6"]) == 0
    assert calls == [6]
    # a library call memoizes nothing
    kapranov_zeta(catalog("pn", 3), 6)
    assert calls == [6, 6, 6]


def corrupt_lane_pow(monkeypatch):
    # power_pow's exp step adds 1 to the top coefficient; zeta_series is untouched
    original = power.ghost_exp

    def corrupt(ghosts):
        coeffs = original(ghosts)
        return (*coeffs[:-1], coeffs[-1] + MotivicPolynomial.one()) if ghosts else coeffs

    monkeypatch.setattr(power, "ghost_exp", corrupt)


def test_no_lane_result_outlives_its_command(capsys, monkeypatch):
    assert main(["verify", "--suite", "identities"]) == 0
    corrupt_lane_pow(monkeypatch)
    assert main(["verify", "--suite", "identities"]) == 1


def test_memo_is_dropped_on_every_exit_code(capsys, monkeypatch):
    seen = []

    def check(argv, code):
        if code == 2:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        else:
            assert main(argv) == code
        assert lefschetz._MEMO.get() is None

    check(["zeta", "--pair", "pn:3", "--order", "4"], 0)
    check(["zeta", "--pair", "nosuch:1", "--order", "4"], 2)
    check(["zeta", "--pair", "pn:2", "--order", "3000"], 3)

    def broken(pair, order):
        seen.append(lefschetz._MEMO.get())
        raise RuntimeError("zeta broke")

    # the binding the command's plan calls, which the identities suite calls too
    with monkeypatch.context() as patched:
        patched.setattr(suites, "kapranov_zeta", broken)
        check(["zeta", "--pair", "pn:3", "--order", "4"], 4)
    assert seen == [{}]  # the table was open while the command ran
    corrupt_lane_pow(monkeypatch)
    check(["verify", "--suite", "identities"], 1)


def test_an_error_under_the_memo_ends_in_one_internal_error_line(capsys, monkeypatch):
    # ghost_log raises under two memoized routines (_lane_pow, power._ghosts),
    # which store nothing and chain nothing to it, so the line is the error's own
    def broken(coeffs):
        raise RuntimeError("ghosts broke")

    monkeypatch.setattr(power, "ghost_log", broken)
    for _ in range(2):
        assert main(["pow", "--base", "geometric", "--pair", "p1-marked:2", "--order", "4"]) == 4
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "internal error: RuntimeError: ghosts broke\n")
        assert lefschetz._MEMO.get() is None


def test_verify_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "everything"])
    assert exc.value.code == 2


def test_one_parser_carries_nothing_between_commands(capsys):
    # the parser is built once per process; a usage error must not leak into the next command
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["verify", "--suite", "weil"]) == 0
    argv = [sys.executable, "-m", "motivic_pairs", "verify", "--suite", "weil"]
    fresh = subprocess.run(argv, capture_output=True, check=True, timeout=120)
    assert capsys.readouterr().out.encode() == fresh.stdout


# -- shared validation -------------------------------------------------------------


def test_bad_pair_spec_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["zeta", "--pair", "bogus:1"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "param", ["+1", "1_0", "\u0663", "-1", ""], ids=["plus", "underscore", "arabic-indic", "minus", "empty"]
)
@pytest.mark.parametrize("spec", ["finite:30,{}", "sum(finite:30,{})", "sum(pn:{})"], ids=["bare", "in-sum", "first"])
def test_a_parameter_is_ascii_digits_inside_and_outside_a_combinator(spec, param):
    # one rule for both: int() would read each of these, and did outside sum(...)
    with pytest.raises(SystemExit) as exc:
        main(["zeta", "--pair", spec.format(param)])
    assert exc.value.code == 2


def test_deeply_nested_pair_spec_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["zeta", "--pair", nested_negations(3000)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage:")
    assert "nested deeper" in err[-1]


def test_composite_field_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["example", "--n", "1", "--s", "1", "--q", "6"])
    assert exc.value.code == 2


FIELD_COMMANDS = pytest.mark.parametrize(
    "command", [["verify", "--suite", "weil"], ["example", "--n", "1", "--s", "1"]], ids=["verify", "example"]
)


@FIELD_COMMANDS
@pytest.mark.parametrize(
    "fields",
    ["1_1", "+3", "\u0663", "-3", "2,,3", "3,"],
    ids=["underscore", "plus", "arabic-indic", "minus", "hole", "trailing"],
)
def test_a_field_size_is_ascii_digits_as_in_a_pair_spec(capsys, command, fields):
    # int() reads 1_1 as 11 and +3 and the Arabic-Indic digit as 3
    with pytest.raises(SystemExit) as exc:
        main([*command, "--q", fields])
    assert exc.value.code == 2
    assert f"bad field size list {fields!r}" in capsys.readouterr().err


@FIELD_COMMANDS
@pytest.mark.parametrize("fields, size", [("2,2", 2), ("3,2, 3", 3)])
def test_a_repeated_field_size_is_usage_error_naming_it(capsys, command, fields, size):
    # it would run the same rows twice: weil --q 2,2 made 16 rows, --q 2 makes 12
    with pytest.raises(SystemExit) as exc:
        main([*command, "--q", fields])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(f"field size {size} is given more than once")


def test_spaces_around_a_field_size_are_allowed(capsys):
    assert main(["verify", "--suite", "weil", "--q", " 2, 3 "]) == 0
    spaced = capsys.readouterr().out
    assert main(["verify", "--suite", "weil", "--q", "2,3"]) == 0
    assert capsys.readouterr().out == spaced


def test_negative_order_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["zeta", "--pair", "point", "--order", "-2"])
    assert exc.value.code == 2


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.usefixtures("within_two_seconds")
@pytest.mark.parametrize(
    "argv, message",
    [
        # a zero lane makes no term products, but its recurrence still loops
        (["zeta", "--pair", "empty", "--order", "100000"], "zeta series to order 100000"),
        # catalog classes too large to build are refused before any term is written
        (["zeta", "--pair", "pn:1000000000", "--order", "0"], "catalog class pn of dimension 1000000000"),
        (["zeta", "--pair", "pn-hyp:100000,100000", "--order", "0"], "catalog class pn-hyp of dimension 100000"),
    ],
    ids=["zeta-zero-lanes", "pn-huge", "pn-hyp-huge"],
)
def test_work_without_term_products_is_refused_at_once(capsys, argv, message):
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"budget exhausted: {message} needs ~")


# -- JSON rendering -----------------------------------------------------------------

# keys and strings: non-ASCII, quotes, backslashes and control characters
json_text = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\x00\x1f\x7f\n\té☃')), max_size=6)
json_ints = st.one_of(st.integers(), st.integers(min_value=2**64 + 1), st.integers(max_value=-(2**64) - 1))
json_scalars = st.one_of(json_ints, json_text, st.booleans(), st.none(), st.floats())
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(json_text, inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(json_values)
def test_render_is_json_dumps_indent_2(value):
    assert cli._render(value) == json.dumps(value, indent=2)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.one_of(json_ints, st.booleans(), st.none(), st.floats()), json_scalars, min_size=1))
def test_render_of_a_non_string_key_matches_json_or_raises(value):
    # reports hold only str keys; any other key may raise, but never render differently
    try:
        rendered = cli._render(value)
    except TypeError:
        return
    assert rendered == json.dumps(value, indent=2)


def test_render_is_json_dumps_on_every_suite_report(capsys, monkeypatch):
    render, printed = cli._render, []

    def recording(obj, pad="\n"):
        if pad == "\n":  # the whole report, not a nested value
            printed.append(obj)
        return render(obj, pad)

    monkeypatch.setattr(cli, "_render", recording)
    for suite in [*suites.SUITES, "all"]:
        assert main(["verify", "--suite", suite]) == 0
        assert capsys.readouterr().out == json.dumps(printed.pop(), indent=2) + "\n"
    assert printed == []


# -- argv fuzz ----------------------------------------------------------------------

small = st.integers(-1, 4).map(str)
atoms = st.one_of(
    st.sampled_from(["point", "empty", "finite:3,1", "p1-marked:2", "bogus", "pn:", "finite:2", "sum(", ""]),
    st.builds("finite:{},{}".format, small, small),
    st.builds("{}:{}".format, st.sampled_from(["affine-marked", "p1-marked", "pn"]), small),
    st.builds("pn-hyp:{},{}".format, small, small),
)
specs = st.recursive(
    atoms,
    lambda inner: st.one_of(
        st.builds("neg({})".format, inner),
        st.builds("{}({},{})".format, st.sampled_from(["sum", "prod"]), inner, inner),
    ),
    max_leaves=3,
)
orders = st.integers(-1, 3).map(str)
field_lists = st.sampled_from(["2", "3", "2,3", "2,3,5", "4", "1", "x", ""])
# a tail of stray tokens, usually empty: missing values, unknown flags, help
extras = st.lists(st.sampled_from(["--order", "--format", "xml", "-1", "--help", "--bogus"]), max_size=2)


def flag(name, values):
    return values.map(lambda value: [name, value])


commands = st.one_of(
    st.tuples(st.just(["zeta"]), flag("--pair", specs), flag("--order", orders)),
    st.tuples(
        st.just(["pow"]),
        flag("--base", st.sampled_from(["one-plus-t", "geometric", "coeffs", "cubic"])),
        st.lists(specs, max_size=2).map(lambda cs: [t for c in cs for t in ("--coeff", c)]),
        flag("--pair", specs),
        flag("--order", orders),
    ),
    st.tuples(
        st.just(["example"]),
        flag("--n", orders),
        flag("--s", st.integers(-1, 6).map(str)),
        flag("--q", field_lists),
    ),
    st.tuples(
        st.just(["verify"]),
        flag("--suite", st.sampled_from(["weil", "squarefree", "example-p1", "eq3-finite", "identities", "nothing"])),
        flag("--order", orders),
        flag("--q", field_lists),
        flag("--budget", st.sampled_from(["0", "60", "10000000"])),
    ),
)
argvs = st.tuples(
    commands,
    st.sampled_from([[], ["--format", "json"], ["--format", "text"]]),
    st.one_of(st.just([]), extras),
).map(lambda parts: [token for part in parts[0] for token in part] + parts[1] + parts[2])


@settings(max_examples=300, deadline=None)
@given(argvs)
def test_any_argv_ends_in_a_documented_exit_code(argv):
    # in process: 0 pass, 1 failed check, 2 usage error, 3 over budget;
    # 4 (internal error) or a traceback would be a crash
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    event(f"exit {code}")
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
