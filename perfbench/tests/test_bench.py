"""Self-tests of the benchmark: its checks must be able to fail, and the tracer must not change results.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import measure, program, run, tracer, workloads

ROOT = Path(__file__).resolve().parents[2]
MODS = program.load()
EXPECTED = run.load_expected()


@pytest.fixture(autouse=True)
def alarm():
    previous = measure.install_alarm()
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


def ops_of(name: str, seed: int = 1) -> list[workloads.Op]:
    return [workloads.build(op, MODS) for op in workloads.select(workloads.WORKLOADS[name], seed)]


def verify_op(suite: str) -> workloads.Op:
    index = workloads.SUITE_NAMES.index(suite)
    return workloads.build(workloads.candidate(workloads.VERIFY_ALL, index, 0), MODS)


def replace_call(op: workloads.Op, call) -> workloads.Op:
    return dataclasses.replace(op, call=call)


# -- output checks ---------------------------------------------------------------------


def test_every_candidate_has_a_stored_digest():
    keys = {
        workloads.candidate(w, slot, cand).key
        for w in workloads.WORKLOADS.values()
        for slot in range(len(w.slots))
        for cand in range(w.pool)
    }
    assert keys == set(EXPECTED)


def test_unperturbed_results_pass():
    for op in (verify_op("weil"), ops_of("series-deep")[0]):
        assert measure.run_op(op, 0, 10.0, EXPECTED[op.input.key]).failure is None


def test_perturbed_verify_output_counts_as_failed():
    op = verify_op("weil")
    code, text = op.call()
    perturbed = replace_call(op, lambda: (code, text.replace('"pass": true', '"pass": false', 1)))
    record = measure.run_op(perturbed, 0, 10.0, EXPECTED[op.input.key])
    assert record.failure == "output digest differs from the stored one"


def test_perturbed_series_coefficient_counts_as_failed():
    op = ops_of("series-deep")[0]
    result = op.call()
    one = MODS["pairs"].PairClass.one()
    bumped = MODS["series"].TruncatedSeries(result.coeffs[:-1] + (result.coeffs[-1] + one,))
    record = measure.run_op(replace_call(op, lambda: bumped), 0, 10.0, EXPECTED[op.input.key])
    assert record.failure == "output digest differs from the stored one"


def test_nonzero_exit_code_counts_as_failed():
    op = verify_op("weil")
    record = measure.run_op(replace_call(op, lambda: (1, "")), 0, 10.0, EXPECTED[op.input.key])
    assert record.failure == "exit code 1"


def test_raising_op_counts_as_failed():
    def boom():
        raise ArithmeticError("bad")

    record = measure.run_op(replace_call(verify_op("weil"), boom), 0, 10.0, "0" * 64)
    assert record.failure == "raised ArithmeticError: bad"


def test_op_past_its_ceiling_fails_and_the_pass_goes_on(monkeypatch):
    def spin():
        while True:
            pass

    monkeypatch.setattr(measure, "OP_CEILING_S", 0.2)
    fast = verify_op("weil")
    stuck = replace_call(fast, spin)
    record = measure.run_pass([stuck, fast], EXPECTED, deadline=float("inf"))
    assert record.complete
    assert record.ops[0].failure == "exceeded its 0.2 s ceiling"
    assert 0.2 <= record.ops[0].seconds < 2.0
    assert record.ops[1].failure is None


def test_times_are_scaled_by_the_reference_task_around_each_op():
    assert measure.speed_scale([measure.REFERENCE_NOMINAL_S] * 4) == 1.0
    assert measure.speed_scale([2 * measure.REFERENCE_NOMINAL_S] * 4) == 0.5
    record = measure.run_op(verify_op("weil"), 0, 10.0, EXPECTED[verify_op("weil").input.key])
    assert record.scale > 0 and record.scaled == record.seconds * record.scale
    assert measure.PassRecord([record, record]).scaled == 2 * record.scaled


# -- inputs -------------------------------------------------------------------------------


def test_verify_all_runs_the_engine_suites_in_order():
    assert workloads.SUITE_NAMES == tuple(MODS["suites"].SUITES)


def spec_degree(spec: list) -> int:
    """L-degree of a catalog pair spec, from the spec alone."""
    if spec[0] == "prod":
        return spec_degree(spec[1]) + spec_degree(spec[2])
    if spec[0] in ("pn", "pn-hyp"):
        return spec[1]
    return 1 if spec[0] in ("p1-marked", "affine-marked") else 0


def input_degree(op: workloads.OpInput) -> int:
    """Largest L-degree among an op's input classes."""
    spec = op.spec
    if "pair" in spec:
        return spec_degree(spec["pair"])
    if spec["base"] == "geometric":
        return spec_degree(spec["exponent"])
    return max(len(poly) - 1 for pair in spec["base"] + [spec["exponent"]] for poly in pair)


def shape(ops: list[workloads.OpInput]) -> list[tuple]:
    return [
        (op.kind, op.order, tracer.bucket_label("deg", tracer.DEG_BUCKETS, input_degree(op)))
        for op in ops
    ]


@pytest.mark.parametrize("name", ["series-deep", "wide-class"])
def test_second_seed_changes_inputs_but_not_their_shape(name):
    workload = workloads.WORKLOADS[name]
    first, again, second = (workloads.select(workload, s) for s in (1, 1, 2))
    assert first == again
    assert [op.spec for op in first] != [op.spec for op in second]
    assert shape(first) == shape(second)


# -- tracer ------------------------------------------------------------------------------


def bindings() -> dict:
    """Every object the tracer may patch, keyed by where it is bound."""
    found = {}
    for owner in [program.package(), *MODS.values()]:
        for attr, obj in vars(owner).items():
            found[(owner.__name__, attr)] = obj
            if inspect.isclass(obj) and obj.__module__.startswith(program.PACKAGE):
                for key, raw in vars(obj).items():
                    found[(obj.__qualname__, key)] = raw
            if isinstance(obj, dict):
                for key, value in obj.items():
                    found[(owner.__name__, attr, key)] = value
            if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
                for f in dataclasses.fields(obj):
                    found[(owner.__name__, attr, f.name)] = getattr(obj, f.name)
    return found


def test_install_wraps_every_binding_and_uninstall_restores_them():
    before = bindings()
    spans = tracer.Tracer()
    spans.install(MODS, program.package())
    try:
        poly = MODS["lefschetz"].MotivicPolynomial
        assert MODS["power"].zeta_series is not before[("motivic_pairs.power", "zeta_series")]
        assert MODS["cli"].run_suite is MODS["suites"].run_suite
        assert MODS["power"].PAIR_RING.zeta is MODS["power"].kapranov_zeta
        assert vars(poly)["__rmul__"] is vars(poly)["__mul__"]
        assert MODS["suites"].SUITES["weil"].__wrapped__ is before[("motivic_pairs.suites", "suite_weil")]
    finally:
        spans.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def traced_pass(ops, spans):
    spans.install(MODS, program.package())
    try:
        record = measure.run_pass(ops, EXPECTED, deadline=float("inf"))
        return record, spans.fold()
    finally:
        spans.uninstall()


def outputs(ops) -> list[bytes]:
    return [workloads.outcome(op.input, op.call())[1] for op in ops]


@pytest.mark.parametrize("name", ["verify-all", "series-deep", "wide-class"])
def test_traced_pass_gives_identical_outputs_and_bounded_self_time(name):
    ops = ops_of(name)
    if name == "verify-all":  # cheap suites only; eq3-finite alone calls count_power_configs
        ops = [op for op in ops if op.label in ("statement1", "example-p1", "weil", "squarefree")]
    plain = outputs(ops)
    record, folded = traced_pass(ops, tracer.Tracer())
    assert [r.failure for r in record.ops] == [None] * len(ops)
    spans = tracer.Tracer()
    spans.install(MODS, program.package())
    try:
        assert outputs(ops) == plain
    finally:
        spans.uninstall()
    assert 0 < tracer.self_seconds_total(folded) <= record.seconds
    metrics = tracer.layer_metrics(folded)
    bypassed = [k for k in metrics if k.split(".")[0] in ("oracle", "geometry", "field")]
    assert len(bypassed) == 16
    if name == "verify-all":
        assert metrics["field.ops"] > 0 and metrics["oracle.enumerate_projective.calls"] > 0
    else:
        assert {k: metrics[k] for k in bypassed} == dict.fromkeys(bypassed, 0)


def test_traced_counts_repeat_exactly():
    ops = ops_of("series-deep")[:6]
    counts = []
    for _ in range(2):
        _, folded = traced_pass(ops, tracer.Tracer())
        metrics = tracer.layer_metrics(folded)
        counts.append({k: v for k, v in metrics.items() if k.endswith(("calls", "_products", "field.ops"))})
    assert counts[0] == counts[1]
    assert counts[0]["series.mul.calls"] > 0 and counts[0]["lefschetz.mul.term_products"] > 0


# -- the contract ----------------------------------------------------------------------------


def test_benchmark_json_lists_exactly_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [m["name"] for m in spec["per_layer"]] == tracer.per_layer_names()
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])


def test_without_engine_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-all", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
