"""Verification suite registry: schemas, coverage, determinism."""

import pytest

from motivic_pairs import (
    SUITES,
    TruncatedSeries,
    catalog,
    lefschetz,
    oracle,
    power,
    run_suite,
    suites,
)
from motivic_pairs.cli import main
from motivic_pairs.oracle import DEFAULT_BUDGET, BudgetExceededError
from motivic_pairs.suites import CATALOG_SPECS, catalog_samples

AXIOM_KEYS = {"axiom", "sample", "order", "pass", "first_mismatch_degree"}
CHECK_KEYS = {"check", "params", "expected", "actual", "pass"}


def test_registry_names():
    assert list(SUITES) == [
        "ring-axioms",
        "statement1",
        "statement2",
        "power-axioms",
        "identities",
        "example-p1",
        "eq3-finite",
        "weil",
        "squarefree",
    ]


def test_catalog_samples_cover_every_generator_family():
    samples = catalog_samples()
    assert len(samples) == len(CATALOG_SPECS)
    names = [name for name, _ in samples]
    assert names == list(CATALOG_SPECS)
    by_name = dict(samples)
    assert by_name["finite:3,1"] == catalog("finite", 3, 1)
    assert by_name["pn-hyp:2,2"] == catalog("pn-hyp", 2, 2)
    families = {name.split(":")[0] for name in names}
    assert families == {"point", "empty", "finite", "affine-marked", "p1-marked", "pn", "pn-hyp"}


def test_run_suite_report_shape():
    report = run_suite("weil", order=4, fields=(2,))
    assert set(report) == {"suite", "order", "rows", "pass"}
    assert report["suite"] == "weil"
    assert report["order"] == 4
    assert report["rows"]
    assert report["pass"] is True


def test_every_suite_passes_and_rows_follow_one_schema():
    for name in SUITES:
        report = run_suite(name, order=5, fields=(2, 3))
        assert report["pass"], name
        for row in report["rows"]:
            keys = set(row)
            assert keys == AXIOM_KEYS or keys == CHECK_KEYS, (name, keys)
            assert isinstance(row["pass"], bool)


def test_axiom_rows_report_no_mismatch_when_passing():
    report = run_suite("power-axioms", order=4, fields=(2,))
    for row in report["rows"]:
        if "first_mismatch_degree" in row and row["pass"]:
            assert row["first_mismatch_degree"] is None


def test_statement_suites_sample_enough_sums():
    report = run_suite("statement1", order=4, fields=(2,))
    multiplicative = [r for r in report["rows"] if r["axiom"] == "zeta-multiplicative"]
    assert len(multiplicative) >= 20
    report2 = run_suite("statement2", order=4, fields=(2,))
    assert len([r for r in report2["rows"] if r["axiom"] == "config-multiplicative"]) >= 20


def test_identities_cover_every_catalog_entry():
    report = run_suite("identities", order=4, fields=(2,))
    samples = {r["sample"] for r in report["rows"]}
    assert samples == set(CATALOG_SPECS)
    axioms = {r["axiom"] for r in report["rows"]}
    assert axioms == {"geometric-power-is-zeta", "binomial-power-is-config"}


def test_power_axioms_cover_difference_exponents():
    report = run_suite("power-axioms", order=4, fields=(2,))
    law_samples = {r["sample"] for r in report["rows"] if r["axiom"] == "exponent-additive"}
    assert len(law_samples) >= 10
    assert any("-" in s.split(";")[1] for s in law_samples)


def test_eq3_grid_is_complete():
    report = run_suite("eq3-finite", order=4, fields=(2,))
    # 15 (size, marked) shells x 6 options for each of the two label weights
    assert len(report["rows"]) == 15 * 6 * 6


def test_runs_are_deterministic():
    a = run_suite("ring-axioms", order=5, fields=(2, 3))
    b = run_suite("ring-axioms", order=5, fields=(2, 3))
    assert a == b


@pytest.mark.parametrize("name", list(SUITES))
def test_the_lane_memo_changes_no_report(name):
    # every memoized routine is a pure function of its arguments
    with lefschetz.lane_memo():
        inside = run_suite(name)
    assert inside == run_suite(name)


# The ghost_log runs of the verify-all benchmark workload, one `verify --suite S`
# command per suite at the defaults: with each base's ghosts read once per
# command, a suite runs one per distinct base lane it raises to a power.
GHOST_CENSUS = {"power-axioms": 40, "identities": 2, "eq3-finite": 9}


def test_each_command_reads_each_bases_ghosts_once(monkeypatch, capsys):
    runs, bases, current = {}, {}, [None]
    original = power.ghost_log

    def spy(coeffs):
        runs[current[0]] = runs.get(current[0], 0) + 1
        bases.setdefault(current[0], set()).add(coeffs)
        return original(coeffs)

    monkeypatch.setattr(power, "ghost_log", spy)
    for name in SUITES:
        current[0] = name
        assert main(["verify", "--suite", name]) == 0
    assert runs == GHOST_CENSUS and sum(runs.values()) == 51
    assert {name: len(b) for name, b in bases.items()} == runs
    # one command for all nine shares one table: identities raises only bases
    # that power-axioms has raised before it
    runs.clear()
    current[0] = "all"
    assert main(["verify", "--suite", "all"]) == 0
    assert runs == {"all": 49}
    capsys.readouterr()


def test_run_suite_validation():
    with pytest.raises(ValueError):
        run_suite("nope")
    with pytest.raises(ValueError):
        run_suite("weil", order=-1)
    with pytest.raises(ValueError):
        run_suite("weil", fields=(4,))
    with pytest.raises(ValueError):
        run_suite("weil", budget=0)


# -- budgets of the algebra suites ----------------------------------------------------


def terms(p):
    return len(p.items())


@pytest.fixture
def term_products(monkeypatch):
    # counts the Z[L] term products of the series algebra, the unit of the
    # suites' cost bounds: every dict-loop sum taken inside a series multiply
    # or divide, a ghost recurrence or power_pow's scaling, and the products
    # of a packed series product, f*g's among them (not the few products
    # that build catalog classes and exponents)
    count, depth = [0], [0]

    def counted(routine):
        # a sum taken by the dict loop
        def wrapper(pairs):
            pairs = list(pairs)
            if depth[0]:
                count[0] += sum(terms(f) * terms(g) for f, g in pairs)
            return routine(pairs)
        return wrapper

    def counted_series(routine):
        # a series product that packs each factor once, or f*g packed as the
        # product of two one-term windows: coefficient k makes
        # the products a_j b_(k-j), j = 0..k, as the per-coefficient sums do
        def wrapper(a, b):
            if depth[0]:
                count[0] += sum(terms(a[j]) * terms(b[k - j]) for k in range(len(a)) for j in range(k + 1))
            return routine(a, b)
        return wrapper

    step = lefschetz._PackedRecurrence.step

    def counted_step(recurrence, n):
        # a packed ghost step: sum_{0<k<n} terms(g_k) terms(a_(n-k))
        if depth[0]:
            ghosts, coeffs = recurrence.seqs
            count[0] += sum(terms(g) * terms(a) for g, a in zip(ghosts[1:n], coeffs[n - 1 : 0 : -1]))
        return step(recurrence, n)

    def inside(fn):
        def wrapper(*args):
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1
        return wrapper

    monkeypatch.setattr(lefschetz, "_dict_sum", counted(lefschetz._dict_sum))
    monkeypatch.setattr(lefschetz, "_packed_series", counted_series(lefschetz._packed_series))
    monkeypatch.setattr(lefschetz._PackedRecurrence, "step", counted_step)
    for module in (lefschetz, power):
        monkeypatch.setattr(module, "ghost_exp", inside(lefschetz.ghost_exp))
        monkeypatch.setattr(module, "ghost_log", inside(lefschetz.ghost_log))
    monkeypatch.setattr(TruncatedSeries, "__mul__", inside(TruncatedSeries.__mul__))
    monkeypatch.setattr(suites, "_divide", inside(suites._divide))
    monkeypatch.setattr(power, "_lane_pow", inside(power._lane_pow))
    return count


@pytest.mark.parametrize("suite", ["ring-axioms", "statement1", "statement2", "power-axioms", "identities"])
def test_suite_budgets_cover_their_term_products(term_products, suite):
    for order in (0, 1, 3, 6):
        with pytest.raises(BudgetExceededError) as refused:
            run_suite(suite, order, (2,), budget=1)
        term_products[0] = 0
        report = run_suite(suite, order, (2,))
        assert report["pass"]
        assert term_products[0] <= refused.value.needed, (order, term_products[0], refused.value.needed)
        # At order 0, identities' only products were the 1 * 1 of its config
        # series' multiply, and its classes take zeta's ghost route there,
        # which makes no product; every other run makes some
        assert term_products[0] > 0 or (suite, order) == ("identities", 0), order



@pytest.mark.parametrize(
    "argv, counted",
    [
        # pn:3 and p1-marked:2 take zeta's product route, which makes no
        # term product, and a zero lane runs its loop with none
        (["zeta", "--pair", "pn:3"], False),
        (["zeta", "--pair", "p1-marked:2"], False),
        (["zeta", "--pair", "empty"], False),
        (["zeta", "--pair", "finite:40,1"], True),  # |40| > N: the ghost route
        (["pow", "--base", "geometric", "--pair", "p1-marked:2"], True),
        (["pow", "--base", "one-plus-t", "--pair", "sum(pn:2,neg(finite:3,1))"], True),
        (["pow", "--base", "coeffs", "--coeff", "finite:2,1", "--coeff", "p1-marked:1", "--pair", "pn-hyp:2,2"], True),
        # the complement lane L - 7 takes the ghost route while N < 7
        (["example", "--s", "8", "--q", "2,3"], True),
    ],
    ids=["zeta-pn", "zeta-p1-marked", "zeta-empty", "zeta-ghost-route", "pow-geometric", "pow-one-plus-t",
         "pow-coeffs", "example"],
)
def test_command_prices_cover_their_term_products(term_products, enumerated, capsys, argv, counted):
    # zeta, pow and example are priced by a dry run of their plan, like the suites
    _, plans = enumerated
    for order in (0, 1, 3, 6):
        plans.clear()
        term_products[0] = 0
        assert main([*argv, "--n" if argv[0] == "example" else "--order", str(order)]) == 0
        (dry,) = [plan for plan in plans if not plan.live]
        assert term_products[0] <= dry.cost, (order, term_products[0], dry.cost)
    assert (term_products[0] > 0) == counted  # at order 6
    capsys.readouterr()


def test_term_products_count_every_ghost_step_packed_or_not(term_products, monkeypatch):
    # zeta of P^20: its psi_r ghosts have 21 terms and psi_1 is dense, so
    # the exp recurrence packs from its second step, the first its rule is
    # asked at; the count must be the same sum over the steps as when every
    # step runs the dict loop
    m = lefschetz.projective_class(20)
    psi = [lefschetz.adams(m, r) for r in range(1, 9)]
    steps = []
    step = lefschetz._PackedRecurrence.step
    monkeypatch.setattr(lefschetz._PackedRecurrence, "step", lambda rec, n: steps.append(n) or step(rec, n))
    coeffs = lefschetz.ghost_exp(psi)
    assert steps == list(range(2, 9))
    expected = sum(terms(psi[k - 1]) * terms(coeffs[n - k]) for n in range(1, 9) for k in range(1, n))
    assert term_products[0] == expected > 0
    term_products[0] = 0
    monkeypatch.setattr(lefschetz, "_packs", lambda *sizes: False)
    assert lefschetz.ghost_exp(psi) == coeffs
    assert term_products[0] == expected and steps == list(range(2, 9))

# The bounds each suite that builds series refuses with under a budget of 1, by order.
# They are closed forms of the order alone, so any change to a cost bound
# shows here.  A Z[L] lane with no terms (of empty, finite:5,5 and the sums
# that hold them) is priced like a one-term lane, N(N+1)/2 loop steps per
# zeta series; a lone lane is priced by itself, so ring-axioms pays for no
# stand-in lane.
BOUNDS = {
    "ring-axioms": {0: 1624, 8: 262680, 22: 5346304, 27: 10526404},
    "statement1": {0: 48, 8: 109020, 22: 2513394, 27: 4933614},
    "statement2": {0: 240, 8: 305392, 22: 9652828, 27: 20299678},
    "power-axioms": {0: 76, 8: 264188, 22: 9365938, 27: 20120743},
    "identities": {0: 46, 8: 132888, 22: 4292554, 27: 9080792},
    # these make their series to a fixed order, so one price holds at every order:
    # weil (order 10), squarefree (6) and example-p1 (8)
    "weil": {0: 880, 8: 880, 30: 880},
    "squarefree": {0: 552, 8: 552, 30: 552},
    "example-p1": {0: 2760, 8: 2760, 30: 2760},
}


@pytest.mark.parametrize("suite", list(BOUNDS))
def test_suite_budgets_are_pinned(suite):
    for order, bound in BOUNDS[suite].items():
        with pytest.raises(BudgetExceededError) as refused:
            run_suite(suite, order, (2,), budget=1)
        assert refused.value.needed == bound, (order, refused.value.needed)


# The highest orders each algebra suite accepts under the default budget,
# as README states them.
ACCEPTED_ORDERS = {"ring-axioms": 26, "statement1": 33, "statement2": 22, "power-axioms": 22, "identities": 27}


@pytest.mark.parametrize("suite", list(ACCEPTED_ORDERS))
def test_accepted_orders_are_the_readme_ones(suite):
    accepted = []
    for order in range(61):
        with pytest.raises(BudgetExceededError) as refused:
            run_suite(suite, order, (2,), budget=1)
        if refused.value.needed <= DEFAULT_BUDGET:
            accepted.append(order)
    assert accepted == list(range(ACCEPTED_ORDERS[suite] + 1))


@pytest.mark.parametrize("suite", list(SUITES))
def test_dry_pass_builds_nothing(monkeypatch, suite):
    # a refusal prices every series, multiply and enumeration, and builds,
    # draws or counts none of them, so it is immediate at any order
    def built(*args):
        raise AssertionError("a dry pass called the engine")

    engine = ("kapranov_zeta", "config_series_pair", "power_pow", "geometric_series", "one_plus", "zeta_series")
    oracles = ("_marked_union_pass", "enumerate_projective", "count_squarefree_monic", "count_power_configs")
    for name in (*engine, *oracles, "_divide", "_random_poly"):
        monkeypatch.setattr(suites, name, built)
    monkeypatch.setattr(TruncatedSeries, "__mul__", built)
    monkeypatch.setattr(suites.MarkedP1Scene, "standard", built)
    monkeypatch.setattr(suites.FiniteScene, "from_sizes", built)
    for order in (0, 8, 10**9):
        with pytest.raises(BudgetExceededError):
            run_suite(suite, order, (2,), budget=1)


# -- budgets of the oracle suites ---------------------------------------------------


@pytest.fixture
def enumerated(monkeypatch):
    # the steps of every enumeration an oracle charges in a live pass (the
    # pair-spec grammar charges term products, which are no enumeration), and
    # of every marked-union pass, which charges nothing itself; and the plans
    # made, whose dry enumeration list the suite checks up front
    spent, plans = [], []
    charge, union_pass = oracle.charge, suites._marked_union_pass

    class Recorded(suites._Plan):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            plans.append(self)

    def recorded(needed, what, budget):
        if "enumeration" in what and any(plan.live for plan in plans):
            spent.append(needed)
        charge(needed, what, budget)

    def passed(n, q, marks):
        # the values the pass builds: every point at every mark, at least one
        total, on_marks = union_pass(n, q, marks)
        spent.append(total * max(1, len(marks)))
        return total, on_marks

    monkeypatch.setattr(oracle, "charge", recorded)
    monkeypatch.setattr(suites, "_marked_union_pass", passed)
    monkeypatch.setattr(suites, "_Plan", Recorded)
    return spent, plans


@pytest.mark.parametrize("fields", [(2, 3, 5), (7, 11)])
@pytest.mark.parametrize("suite", ["example-p1", "squarefree", "ring-axioms", "eq3-finite"])
def test_up_front_totals_cover_their_oracles(enumerated, suite, fields):
    spent, plans = enumerated
    assert run_suite(suite, 4, fields)["pass"]
    (total,) = [sum(steps for steps, _ in plan.enumerations) for plan in plans if not plan.live]
    assert 0 < sum(spent) <= total, (sum(spent), total)
