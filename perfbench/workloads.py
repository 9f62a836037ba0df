"""The benchmark's workloads: fixed op shapes, seeded inputs, canonical outputs.

A workload is a fixed list of slots.  A slot fixes the operation and its
truncation order N; its input is one of `pool` candidates, each drawn
from its own fixed seed, and the run's `--seed` picks one candidate per
slot.  So every seed runs the same op mix over the same N and L-degree
buckets with different inputs, and the expected SHA-256 of every
candidate's output can be stored once (`expected.json`, written by
`make_expected.py`) and checked on any seed.

Inputs are plain data (nested lists of ints and catalog names) until
`build` turns them into engine objects; that step is part of set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from types import ModuleType
from typing import Callable

POOL = 32  # candidates per slot of a seeded workload
NONZERO = tuple(c for c in range(-4, 5) if c)


@dataclass(frozen=True)
class Slot:
    kind: str  # "verify", "power_pow", "kapranov_zeta" or "config_series_pair"
    order: int  # truncation order N
    draw: Callable[[random.Random], dict]  # one candidate input as plain data


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # A high percentile with at least ten op samples beyond it in a run of
    # the default length, placed in the middle of the samples of one op
    # shape; fixed, so that runs of different speed report the same one.
    tail_percentile: int
    pool: int
    slots: tuple[Slot, ...]


@dataclass(frozen=True)
class OpInput:
    key: str  # "<workload>/<slot>/<candidate>": the expected-digest key
    kind: str
    order: int
    spec: dict


@dataclass(frozen=True)
class Op:
    input: OpInput
    label: str
    call: Callable[[], object]


# -- input drawing (plain data, no engine objects) ------------------------------


def _poly(rng: random.Random, degree: int, values: tuple[int, ...] = NONZERO) -> list[int]:
    # Every coefficient nonzero: the term count, and with it the cost, is
    # fixed by the degree instead of by how many zeros a draw happened to hit.
    return [rng.choice(values) for _ in range(degree + 1)]


def _pair(rng: random.Random, degree: int, values: tuple[int, ...] = NONZERO) -> list[list[int]]:
    return [_poly(rng, degree, values), _poly(rng, degree, values)]


def _draw_series_pow(order: int) -> Callable[[random.Random], dict]:
    def draw(rng: random.Random) -> dict:
        return {
            "base": [_pair(rng, 3) for _ in range(order)],
            "exponent": _pair(rng, 1, (-3, -2, -1, 1, 2, 3)),
        }
    return draw


def _draw_small_class(rng: random.Random) -> dict:
    family = rng.choice(("pn", "pn-hyp", "p1-marked", "affine-marked", "finite"))
    if family == "pn":
        spec = ["pn", rng.randint(2, 4)]
    elif family == "pn-hyp":
        n = rng.randint(2, 4)
        spec = ["pn-hyp", n, rng.randint(1, n + 1)]
    elif family in ("p1-marked", "affine-marked"):
        spec = [family, rng.randint(0, 4)]
    else:
        size = rng.randint(2, 6)
        spec = ["finite", size, rng.randint(0, size)]
    return {"pair": spec}


def _pn(lo: int, hi: int) -> Callable[[random.Random], list]:
    return lambda rng: ["pn", rng.randint(lo, hi)]


def _hyp(lo: int, hi: int) -> Callable[[random.Random], list]:
    return lambda rng: ["pn-hyp", rng.randint(lo, hi), rng.randint(1, 4)]


def _prod(left: Callable, right: Callable) -> Callable[[random.Random], list]:
    return lambda rng: ["prod", left(rng), right(rng)]


def _wide(spec: Callable[[random.Random], list], geometric: bool = False) -> Callable[[random.Random], dict]:
    if geometric:
        return lambda rng: {"base": "geometric", "exponent": spec(rng)}
    return lambda rng: {"pair": spec(rng)}


# -- the workloads ----------------------------------------------------------------

SUITE_NAMES = (
    "ring-axioms", "statement1", "statement2", "power-axioms", "identities",
    "example-p1", "eq3-finite", "weil", "squarefree",
)

VERIFY_ALL = Workload(
    name="verify-all",
    why="the certification command users run: every suite at the defaults, many tiny calls, "
    "the only workload where the oracle, CLI and rendering layers work",
    # The middle of the samples of the second-slowest of its nine ops
    # (power-axioms); p75 and p90 fall near the edge of one op's samples.
    tail_percentile=83,
    pool=1,
    slots=tuple(Slot("verify", 8, lambda rng, name=name: {"suite": name}) for name in SUITE_NAMES),
)

# The seeded workloads are laid out so that their reported percentiles land
# inside a run of slots of one shape, never on the step between two
# shapes: there a different draw of one slot moves the figure by the whole
# step.  In series-deep the median falls in the middle of nine N=10
# power_pow slots and p90 among four N=16 ones; in wide-class the median
# falls among seven zeta slots of pn-hyp at N=4 and p90 among five config
# slots of pn-hyp at N=3.  The other slots, each once, keep the op mix.

SERIES_DEEP = Workload(
    name="series-deep",
    why="pair power_pow of random unit series at N 8-16, zeta/config of small classes at N 8-20: "
    "factor_exponents peeling and series multiply/divide loops dominate, Z[L] products stay small",
    tail_percentile=90,
    pool=POOL,
    slots=(
        Slot("kapranov_zeta", 8, _draw_small_class),
        Slot("config_series_pair", 8, _draw_small_class),
        *(Slot("power_pow", 8, _draw_series_pow(8)) for _ in range(2)),
        *(Slot("power_pow", 10, _draw_series_pow(10)) for _ in range(9)),
        *(Slot("power_pow", 12, _draw_series_pow(12)) for _ in range(3)),
        Slot("kapranov_zeta", 14, _draw_small_class),
        Slot("config_series_pair", 14, _draw_small_class),
        Slot("power_pow", 14, _draw_series_pow(14)),
        *(Slot("power_pow", 16, _draw_series_pow(16)) for _ in range(4)),
        Slot("kapranov_zeta", 20, _draw_small_class),
        Slot("config_series_pair", 20, _draw_small_class),
    ),
)

WIDE_CLASS = Workload(
    name="wide-class",
    why="orders 3-5 on projective spaces of dimension 20-200 and their products: the per-monomial "
    "zeta loop and large sparse Z[L] products dominate, series loops run few steps",
    tail_percentile=90,
    pool=POOL,
    slots=(
        *(Slot("config_series_pair", 3, _wide(_hyp(190, 200))) for _ in range(5)),
        Slot("kapranov_zeta", 3, _wide(_prod(_pn(44, 48), _hyp(56, 60)))),
        *(Slot("kapranov_zeta", 4, _wide(_hyp(100, 108))) for _ in range(7)),
        Slot("power_pow", 4, _wide(_hyp(80, 88), geometric=True)),
        Slot("config_series_pair", 4, _wide(_prod(_pn(32, 35), _pn(40, 43)))),
        Slot("kapranov_zeta", 5, _wide(_pn(44, 48))),
        Slot("config_series_pair", 5, _wide(_hyp(50, 56))),
        Slot("power_pow", 5, _wide(_pn(38, 42), geometric=True)),
        Slot("power_pow", 5, _wide(_prod(_hyp(20, 25), _pn(30, 35)), geometric=True)),
    ),
)

WORKLOADS = {w.name: w for w in (VERIFY_ALL, SERIES_DEEP, WIDE_CLASS)}


def candidate(workload: Workload, slot_index: int, cand: int) -> OpInput:
    """Candidate `cand` of a slot; independent of the run seed."""
    slot = workload.slots[slot_index]
    rng = random.Random(f"perfbench/{workload.name}/{slot_index}/{cand}")
    return OpInput(f"{workload.name}/{slot_index}/{cand}", slot.kind, slot.order, slot.draw(rng))


def select(workload: Workload, seed: int) -> list[OpInput]:
    """The run's inputs: one candidate per slot, picked by the seed."""
    picker = random.Random(f"perfbench/select/{workload.name}/{seed}")
    return [candidate(workload, i, picker.randrange(workload.pool)) for i in range(len(workload.slots))]


# -- engine objects and calls -------------------------------------------------------


def _catalog_pair(spec: list, pairs: ModuleType):
    if spec[0] == "prod":
        return _catalog_pair(spec[1], pairs) * _catalog_pair(spec[2], pairs)
    return pairs.catalog(spec[0], *spec[1:])


def _coeff_pair(coeffs: list[list[int]], mods: dict[str, ModuleType]):
    poly = mods["lefschetz"].MotivicPolynomial
    amb, comp = (poly(dict(enumerate(c))) for c in coeffs)
    return mods["pairs"].PairClass(amb, comp)


def run_cli(cli: ModuleType, argv: list[str]) -> tuple[int, str]:
    """`cli.main(argv)` with stdout captured; a usage error's SystemExit becomes its code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def _spec_label(spec: list) -> str:
    if spec[0] == "prod":
        return f"prod({_spec_label(spec[1])},{_spec_label(spec[2])})"
    params = ",".join(str(p) for p in spec[1:])
    return f"{spec[0]}:{params}" if params else spec[0]


def build(op: OpInput, mods: dict[str, ModuleType]) -> Op:
    """Turn plain-data input into engine objects and a zero-argument call.

    Engine functions are looked up on their module when the call runs,
    not here, so a tracer patched in after set-up sees every call.
    """
    spec, order = op.spec, op.order
    if op.kind == "verify":
        argv = ["verify", "--suite", spec["suite"]]
        cli = mods["cli"]
        return Op(op, spec["suite"], lambda: run_cli(cli, argv))
    power = mods["power"]
    if op.kind == "power_pow":
        if spec["base"] == "geometric":
            base = power.PAIR_RING.geometric_series(order)
            exponent = _catalog_pair(spec["exponent"], mods["pairs"])
            label = f"power_pow N={order} geometric^{_spec_label(spec['exponent'])}"
        else:
            one = mods["pairs"].PairClass.one()
            coeffs = (one,) + tuple(_coeff_pair(c, mods) for c in spec["base"])
            base = mods["series"].TruncatedSeries(coeffs)
            exponent = _coeff_pair(spec["exponent"], mods)
            label = f"power_pow N={order} random-base^random-pair"
        return Op(op, label, lambda: power.power_pow(base, exponent, power.PAIR_RING))
    pair = _catalog_pair(spec["pair"], mods["pairs"])
    label = f"{op.kind} N={order} {_spec_label(spec['pair'])}"
    if op.kind == "kapranov_zeta":
        return Op(op, label, lambda: power.kapranov_zeta(pair, order))
    if op.kind == "config_series_pair":
        return Op(op, label, lambda: power.config_series_pair(pair, order))
    raise ValueError(f"unknown op kind {op.kind!r}")


def outcome(op: OpInput, result: object) -> tuple[int, bytes]:
    """Exit code and canonical output bytes of one op's result.

    A verify op's output is its exact stdout, which must stay
    byte-identical; a series is rendered the way the CLI's JSON output
    renders it, with sorted keys and no whitespace.
    """
    if op.kind == "verify":
        code, text = result
        return code, text.encode()
    obj = result.to_json(lambda c: c.to_json())
    return 0, json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
