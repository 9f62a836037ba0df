"""Benchmark of the motivic-pairs engine: one command, every workload, exact output checks.

Usage, from the repository root:

    python3 perfbench/run.py                      # every workload, each in a fresh process
    python3 perfbench/run.py --trace 1            # the same, reporting per-layer metrics
    python3 perfbench/run.py --workload series-deep --seed 7 --seconds 30 --trace 0

A run builds the workload's inputs from `--seed`, runs whole passes over
its op list for `--seconds`, checks every op's exit code and output
digest, and prints each metric with its unit.  Times are scaled to a
fixed machine speed by a reference task timed around every op and every
set-up (see `measure.py`).  The last line of stdout is
one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer
metrics with `--trace 1`.  Each run also writes its environment and
details under `.perfbench/`.

Exit codes: 0 the run finished (see `correct`), 2 the engine source is
missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import measure, program, tracer, workloads  # noqa: E402

EXPECTED = Path(__file__).resolve().parent / "expected.json"
OUT_DIR = ROOT / ".perfbench"
HARD_LIMIT_S = 150.0  # no op starts later than this after process start
SETUP_SAMPLES = 5  # this process plus four fresh probe processes
SETUP_REFERENCE_SAMPLES = 3  # reference-task timings on each side of a set-up
E2E_UNITS = {"setup_s": "s", "pass_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mib": "MiB"}


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if name.startswith("suites.") or last == "self_s" or ".self_s." in name:
        return "s"
    if last.endswith("_per_s"):
        return "1/s"
    return {"max_degree": "degree", "max_coeff_bits": "bits", "overhead_ratio": "ratio"}.get(last, "count")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all", *workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def set_up(workload: workloads.Workload, seed: int) -> tuple[dict, list[workloads.Op], float]:
    """Import the engine and build the run's inputs; the scaled elapsed time is one set-up sample."""
    before = measure.reference_times(SETUP_REFERENCE_SAMPLES)
    start = time.perf_counter()
    mods = program.load()
    ops = [workloads.build(op, mods) for op in workloads.select(workload, seed)]
    elapsed = time.perf_counter() - start
    scale = measure.speed_scale(before + measure.reference_times(SETUP_REFERENCE_SAMPLES))
    return mods, ops, elapsed * scale


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, as that process measured it."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
    )
    return float(done.stdout.split()[-1])


def load_expected() -> dict[str, str]:
    return json.loads(EXPECTED.read_text())["digests"] if EXPECTED.is_file() else {}


def failures(passes: list[measure.PassRecord], ops: list[workloads.Op]) -> list[dict]:
    return [
        {"op": ops[r.index].input.key, "label": ops[r.index].label, "failure": r.failure}
        for p in passes for r in p.ops if r.failure
    ]


def suite_seconds(passes: list[measure.PassRecord], ops: list[workloads.Op]) -> dict[str, float]:
    """Median untraced scaled latency of each verify op, by suite; 0 for suites the workload skips."""
    by_suite: dict[str, list[float]] = {}
    for p in passes:
        for r in p.ops:
            op = ops[r.index].input
            if op.kind == "verify":
                by_suite.setdefault(op.spec["suite"], []).append(r.scaled)
    return {
        f"suites.{name}.s": statistics.median(by_suite[name]) if name in by_suite else 0.0
        for name in tracer.SUITE_NAMES
    }


def run_untraced(workload, ops, expected, seconds, setup_samples) -> tuple[dict, dict]:
    start = time.perf_counter()
    passes = measure.run_passes(ops, expected, start + seconds, STARTED + HARD_LIMIT_S)
    e2e = measure.end_to_end(passes, workload.tail_percentile)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "pass_s": e2e["pass_s"],
        "op_p50_ms": e2e["op_p50_ms"],
        "op_tail_ms": e2e["op_tail_ms"],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {**e2e, "setup_samples_s": setup_samples, "failures": failures(passes, ops)}
    return metrics, details


def run_traced(mods, ops, expected, seconds) -> tuple[dict, dict, list[dict]]:
    """Untraced passes for half the time, then traced passes over the same inputs."""
    start = time.perf_counter()
    deadline = STARTED + HARD_LIMIT_S
    plain = measure.run_passes(ops, expected, start + seconds / 2, deadline)
    spans = tracer.Tracer()
    spans.install(mods, program.package())
    traced: list[measure.PassRecord] = []
    folds: list[dict] = []
    try:
        while not traced or time.perf_counter() < start + seconds:
            record = measure.run_pass(
                ops, expected, deadline, after_op=lambda r: spans.repair() if r.failure else None
            )
            folds.append(spans.fold())
            traced.append(record)
            if not record.complete:
                break
    finally:
        spans.uninstall()
    layers = tracer.combine([tracer.layer_metrics(f) for f in folds])
    layers.update(suite_seconds(plain, ops))
    plain_s, traced_s = measure.pass_seconds(plain), measure.pass_seconds(traced)
    layers["trace.overhead_ratio"] = traced_s / plain_s
    passes = plain + traced
    attempted = sum(len(p.ops) for p in passes)
    failed = len(failures(passes, ops))
    details = {
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "untraced_passes": len(plain),
        "traced_passes": len(traced),
        "untraced_pass_s": plain_s,
        "traced_pass_s": traced_s,
        "spans_per_pass": folds[0]["spans"],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "self_s_total_per_pass": [tracer.self_seconds_total(f) for f in folds],
        "traced_wall_s_per_pass": [p.seconds for p in traced],
        "speed_scale_median": statistics.median(r.scale for p in passes for r in p.ops),
        "failures": failures(passes, ops),
    }
    return layers, details, folds


def report_line(workload: str, name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{workload:<12} {name:<40} {value!r:>22} {unit:<6} {note}".rstrip())


def write_out(name: str, payload: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / name).write_text(json.dumps(payload, indent=1, sort_keys=True, default=str) + "\n")


def run_workload(args: argparse.Namespace) -> int:
    workload = workloads.WORKLOADS[args.workload]
    try:
        mods, ops, own_setup = set_up(workload, args.seed)
    except program.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.probe_setup:
        print(repr(own_setup))
        return 0
    expected = load_expected()
    env = program.environment(workload=workload.name, seed=args.seed, seconds=args.seconds, trace=args.trace)
    print("# env " + json.dumps(env, sort_keys=True))
    measure.install_alarm()
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, details, folds = run_traced(mods, ops, expected, args.seconds)
        units = {name: layer_unit(name) for name in tracer.per_layer_names()}
        write_out(f"{tag}-spans.json", {"env": env, "passes": folds})
        for name in units:
            report_line(workload.name, name, metrics[name], units[name])
    else:
        samples = [own_setup] + [probe_setup(workload.name, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        metrics, details = run_untraced(workload, ops, expected, args.seconds, samples)
        units = E2E_UNITS
        notes = {
            "setup_s": f"median of {len(samples)} fresh-process set-ups",
            "pass_s": f"median of {details['passes']} passes of {len(ops)} ops",
            "op_p50_ms": f"{details['op_samples']} samples",
            "op_tail_ms": f"p{details['op_tail_percentile']}, {details['op_tail_beyond']} of "
            f"{details['op_samples']} samples beyond",
        }
        print(f"# times are scaled to the speed at which the reference task takes "
              f"{measure.REFERENCE_NOMINAL_S * 1e3:g} ms; median scale {details['speed_scale_median']:.4f}")
        for name in E2E_UNITS:
            report_line(workload.name, name, metrics[name], units[name], notes.get(name, ""))
        report_line(workload.name, "fail_ratio", details["fail_ratio"], "ratio",
                    f"{details['failed']} failed of {details['attempted']} attempted")
    for failure in details["failures"][:20]:
        print(f"# FAILED {failure['op']} ({failure['label']}): {failure['failure']}")
    write_out(f"{tag}.json", {"env": env, "metrics": metrics, "details": details})
    result = {
        "correct": details["failed"] == 0,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=200, check=False, cwd=ROOT,
        )
        lines = done.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if done.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with code {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
