"""Timing passes of ops with an in-process ceiling, and exact output checks.

The ceiling is a `signal.setitimer` alarm in the measuring process
itself: no thread or child process watches the op.  An op that runs past
it is interrupted, recorded as failed, and the run goes on with the next
op.  Output checks (rendering plus SHA-256) run after the timed interval.

Reported times are scaled to a fixed machine speed.  The benchmark runs
on shared hosts whose speed swings by up to 2x for tens of seconds at a
time, which moves raw medians of whole runs by more than any bound worth
setting.  So a fixed reference task, pure-Python integer polynomial
products like the engine's own inner loops, is timed right before and
right after every op, and the op's time is scaled by
`REFERENCE_NOMINAL_S / reference time`: the time the op would take on a
machine that runs the reference task in `REFERENCE_NOMINAL_S`.  The task
is benchmark code, not engine code, so a change to the engine moves the
scaled times exactly as it moves the raw ones; the raw figures are kept
in each run's details.
"""

from __future__ import annotations

import hashlib
import math
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .workloads import Op, outcome

OP_CEILING_S = 20.0  # about 10x the slowest op at the parent commit
REFERENCE_NOMINAL_S = 0.0015  # reference-task time of the speed reported times are scaled to
REFERENCE_SAMPLES = 2  # reference-task timings on each side of an op


class OpTimeout(BaseException):
    """Raised by the alarm when an op outlives its ceiling.

    A BaseException, so that no `except Exception` inside the engine can
    swallow it.
    """


def _on_alarm(signum: int, frame: object) -> None:
    raise OpTimeout


def install_alarm() -> object:
    """Route SIGALRM to OpTimeout; returns the previous handler."""
    return signal.signal(signal.SIGALRM, _on_alarm)


def reference_task() -> int:
    """Fixed work of the engine's kind: products of sparse dict polynomials with int coefficients."""
    a = {i: (i * 7919) % 97 - 48 for i in range(60)}
    b = {i: (i * 104729) % 89 - 44 for i in range(60)}
    for _ in range(3):
        c: dict[int, int] = {}
        for i, x in a.items():
            for j, y in b.items():
                c[i + j] = c.get(i + j, 0) + x * y
        a = {k: v % 1000003 for k, v in c.items() if k < 60}
    return len(c)


def reference_times(samples: int = REFERENCE_SAMPLES) -> list[float]:
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        reference_task()
        times.append(time.perf_counter() - start)
    return times


def speed_scale(reference: list[float]) -> float:
    """Factor from raw seconds to seconds at the nominal speed, given reference-task timings."""
    return REFERENCE_NOMINAL_S / statistics.median(reference)


@dataclass
class OpRecord:
    index: int  # position of the op in the pass
    seconds: float  # raw wall time of the call
    failure: str | None  # None when the op passed every check
    scale: float = 1.0  # speed_scale of the reference timings around the call

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


@dataclass
class PassRecord:
    ops: list[OpRecord] = field(default_factory=list)
    complete: bool = False

    @property
    def seconds(self) -> float:
        return sum(r.seconds for r in self.ops)

    @property
    def scaled(self) -> float:
        return sum(r.scaled for r in self.ops)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_op(op: Op, index: int, ceiling: float, expected: str | None) -> OpRecord:
    """Time one call, then check its exit code and output digest outside the timing.

    The reference task is timed on both sides of the call, outside it.
    """
    before = reference_times()
    record = _checked_call(op, index, ceiling, expected)
    record.scale = speed_scale(before + reference_times())
    return record


def _checked_call(op: Op, index: int, ceiling: float, expected: str | None) -> OpRecord:
    signal.setitimer(signal.ITIMER_REAL, ceiling)
    start = time.perf_counter()
    try:
        try:
            result = op.call()
        finally:
            # The alarm may fire before this line runs; the handlers below catch it.
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
    except OpTimeout:
        return OpRecord(index, time.perf_counter() - start, f"exceeded its {ceiling:.1f} s ceiling")
    except Exception as exc:  # any engine error is a failed op; the run goes on
        return OpRecord(index, time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}")
    code, data = outcome(op.input, result)
    if code != 0:
        return OpRecord(index, elapsed, f"exit code {code}")
    if expected is None:
        return OpRecord(index, elapsed, "no expected digest stored")
    if digest(data) != expected:
        return OpRecord(index, elapsed, "output digest differs from the stored one")
    return OpRecord(index, elapsed, None)


def run_pass(
    ops: Sequence[Op],
    expected: dict[str, str],
    deadline: float,
    after_op: Callable[[OpRecord], None] | None = None,
) -> PassRecord:
    """Run every op once, in order; stop early only at the hard deadline."""
    record = PassRecord()
    for index, op in enumerate(ops):
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            return record
        rec = run_op(op, index, min(OP_CEILING_S, remaining), expected.get(op.input.key))
        record.ops.append(rec)
        if after_op is not None:
            after_op(rec)
    record.complete = True
    return record


def run_passes(
    ops: Sequence[Op],
    expected: dict[str, str],
    until: float,
    deadline: float,
) -> list[PassRecord]:
    """Whole passes until `until` has passed (at least one), none started after `deadline`."""
    passes = []
    while not passes or time.perf_counter() < until:
        record = run_pass(ops, expected, deadline)
        passes.append(record)
        if not record.complete:
            break
    return passes


# -- statistics -------------------------------------------------------------------


def nearest_rank(values: Sequence[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples ranked above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def pass_seconds(passes: Sequence[PassRecord], raw: bool = False) -> float:
    """Median summed (scaled, or raw) op time of the complete passes (of all, if none completed)."""
    complete = [p for p in passes if p.complete] or list(passes)
    return statistics.median(p.seconds if raw else p.scaled for p in complete)


def end_to_end(passes: Sequence[PassRecord], tail_percentile: int) -> dict:
    """Latency and failure figures of an untraced run, in scaled time; raw figures beside them."""
    records = [r for p in passes for r in p.ops]
    samples = [r.scaled for r in records]
    raw = [r.seconds for r in records]
    failed = sum(1 for r in records if r.failure)
    tail, beyond = nearest_rank(samples, tail_percentile)
    return {
        "pass_s": pass_seconds(passes),
        "passes": sum(1 for p in passes if p.complete),
        "op_p50_ms": statistics.median(samples) * 1e3,
        "op_tail_ms": tail * 1e3,
        "raw_pass_s": pass_seconds(passes, raw=True),
        "raw_op_p50_ms": statistics.median(raw) * 1e3,
        "raw_op_tail_ms": nearest_rank(raw, tail_percentile)[0] * 1e3,
        "speed_scale_median": statistics.median(r.scale for r in records),
        "op_tail_percentile": tail_percentile,
        "op_tail_beyond": beyond,
        "op_samples": len(samples),
        "attempted": len(samples),
        "failed": failed,
        "fail_ratio": failed / len(samples),
    }
