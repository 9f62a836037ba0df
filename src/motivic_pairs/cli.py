"""Batch command line over the whole engine.

Subcommands:
  zeta     symmetric-power series of a pair class
  pow      series exponential A(t)^pair
  example  both pipelines of the marked-line example plus counting checks
  verify   named verification suites with a JSON or text report

Pair specs name catalog entries with colon-separated parameters
(`point`, `finite:3,1`, `p1-marked:2`, `pn-hyp:2,2`) and combine with
`sum(...)`, `prod(...)` and `neg(...)`; the grammar lives in `pairs`.

`zeta`, `pow` and `example` run on the plan the suites run on
(`suites._planned`): a dry pass prices every series and enumeration
they make, and over the budget they refuse before building any, under
their own names.  So this module holds no price: it parses arguments,
renders results and maps outcomes to exit codes.

Exit codes: 0 success, 1 verification or equality failure, 2 usage
error, 3 budget exhausted (an enumeration, or the term products that
`zeta`, `pow`, `example` or a suite would need, over the step budget),
4 internal error (any other exception, reported in one stderr line
without a traceback).  A reader that closes stdout early does not change
the exit code and prints nothing to stderr.  Identical invocations print
byte-identical output: suites run sequentially in a fixed order and all
sampling inside them is constant-seeded.  JSON output is exactly
`json.dumps(obj, indent=2)`, byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import sys
from typing import Any, Callable, Sequence

from .field import is_prime
from .lefschetz import lane_memo
from .oracle import DEFAULT_BUDGET, BudgetExceededError
from .pairs import _PARAM, PairClass, catalog, parse_pair_spec
from .suites import SUITES, _planned, run_suite


# -- rendering -------------------------------------------------------------------


def _table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(header)
    ]
    lines = [" | ".join(h.ljust(w) for h, w in zip(header, widths))]
    for row in rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


_escape = json.encoder.encode_basestring_ascii  # the C escaper json.dumps uses


def _render(obj: object, pad: str = "\n") -> str:
    """`json.dumps(obj, indent=2)`, byte for byte: C escaping, one join per container.

    `json`'s own indented encoder is pure Python.  A non-string key raises `TypeError`.
    """
    kind = type(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is str:
        return _escape(obj)
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (dict, list, tuple)) and obj:
        inner = pad + "  "
        if isinstance(obj, dict):
            items = [_escape(k) + ": " + _render(v, inner) for k, v in obj.items()]
            return "{" + inner + ("," + inner).join(items) + pad + "}"
        items = [int.__repr__(v) if type(v) is int else _render(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    return json.dumps(obj)


def _print_planned(what: str, order: int, make: Callable[[Any], Any], fmt: str) -> int:
    # the pair series `make` makes on a plan, refused under `what` when its
    # price is over the budget (it lists no enumeration)
    [(series,)] = _planned((what, what), order, DEFAULT_BUDGET, lambda plan: [make(plan)])
    if fmt == "json":
        print(_render(series.to_json(lambda c: c.to_json())))
        return 0
    rows = [
        (f"t^{n}", str(c.amb), str(c.comp), str(c.subvariety))
        for n, c in enumerate(series.coeffs)
    ]
    print(_table(("deg", "ambient", "complement", "subvariety"), rows))
    return 0


# -- subcommands -----------------------------------------------------------------


def cmd_zeta(pair: PairClass, order: int, fmt: str) -> int:
    return _print_planned(f"zeta series to order {order}", order, lambda plan: plan.zeta(pair), fmt)


def cmd_pow(kind: str, tail: Sequence[PairClass], exponent: PairClass, order: int, fmt: str) -> int:
    def power(plan: Any) -> Any:
        return plan.pow(plan.geometric() if kind == "geometric" else plan.one_plus(*tail), exponent)

    return _print_planned(f"series exponential to order {order}", order, power, fmt)


def cmd_example(n: int, s: int, fields: tuple[int, ...], fmt: str) -> int:
    # every scene, then all of them, is priced before any is built: building millions of marks is slow by itself
    [(zeta,), unions] = _planned(
        (f"zeta series of p1-marked:{s} to order {n}", "example enumerations"),
        n,
        DEFAULT_BUDGET,
        lambda plan: [plan.zeta(catalog("p1-marked", s))],
        lambda plan: {q: plan.scene(n, q, s) for q in fields if n >= 1 and s <= q + 1},
    )
    direct = catalog("pn-hyp", n, s)
    lam = zeta.coefficient(n)
    equal = direct == lam
    counts: list[dict] = []
    for q in fields:
        if s > q + 1:
            counts.append({"q": q, "skipped": f"needs s <= {q + 1} over F_{q}"})
            continue
        if n < 1:
            counts.append({"q": q, "skipped": "enumeration needs n >= 1"})
            continue
        total, complement = unions[q]
        enumerated = total - complement
        from_class = direct.subvariety.evaluate(q)
        counts.append(
            {
                "q": q,
                "union_enumerated": enumerated,
                "union_class": from_class,
                "pass": enumerated == from_class,
            }
        )
    ok = equal and all(c.get("pass", True) for c in counts)
    if fmt == "json":
        report = {
            "n": n,
            "s": s,
            "lambda": lam.to_json(),
            "direct": direct.to_json(),
            "equal": equal,
            "counts": counts,
        }
        print(_render(report))
    else:
        print(f"direct: {direct}")
        print(f"lambda: {lam}")
        print(f"equal: {'yes' if equal else 'NO'}")
        for c in counts:
            if "skipped" in c:
                print(f"q={c['q']}: skipped ({c['skipped']})")
            else:
                verdict = "ok" if c["pass"] else "MISMATCH"
                print(
                    f"q={c['q']}: union of marked hyperplanes has "
                    f"{c['union_enumerated']} points enumerated, "
                    f"{c['union_class']} from the class ({verdict})"
                )
    return 0 if ok else 1


def cmd_verify(suite: str, order: int, fields: tuple[int, ...], budget: int, fmt: str) -> int:
    names = list(SUITES) if suite == "all" else [suite]
    reports = [run_suite(nm, order, fields, budget) for nm in names]
    report = {
        "order": order,
        "fields": list(fields),
        "budget": budget,
        "suites": reports,
        "pass": all(r["pass"] for r in reports),
    }
    if fmt == "json":
        print(_render(report))
    else:
        for suite_report in reports:
            rows = suite_report["rows"]
            failed = [row for row in rows if not row["pass"]]
            status = "all passed" if not failed else f"{len(failed)} FAILED"
            print(f"suite {suite_report['suite']}: {len(rows)} checks, {status}")
            for row in failed:
                print(f"  FAIL {json.dumps(row)}")
        print(f"overall: {'PASS' if report['pass'] else 'FAIL'}")
    return 0 if report["pass"] else 1


# -- entry point -----------------------------------------------------------------


@functools.cache  # parse_args keeps no state: one parser serves every command
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motivic-pairs",
        description="Exact engine for classes of variety pairs and their power series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, default_fmt: str = "text") -> None:
        p.add_argument("--order", type=int, default=8, help="truncation order N (default 8)")
        p.add_argument(
            "--format", choices=("text", "json"), default=default_fmt, dest="fmt",
            help=f"output format (default {default_fmt})",
        )

    zeta_p = sub.add_parser("zeta", help="symmetric-power series of a pair")
    zeta_p.add_argument(
        "--pair", required=True,
        help="pair spec, e.g. p1-marked:2 or sum(pn:1,neg(point))",
    )
    add_common(zeta_p)

    pow_p = sub.add_parser("pow", help="series exponential A(t)^pair")
    pow_p.add_argument(
        "--base", required=True, choices=("geometric", "one-plus-t", "coeffs"),
        help="base series: 1/(1-t), 1+t, or explicit --coeff list",
    )
    pow_p.add_argument(
        "--coeff", action="append", default=[], metavar="SPEC",
        help="with --base coeffs: pair spec of the t^i coefficient, repeatable (i = 1, 2, ...)",
    )
    pow_p.add_argument("--pair", required=True, help="exponent pair spec")
    add_common(pow_p)

    example_p = sub.add_parser("example", help="marked-line worked example with counting checks")
    example_p.add_argument("--n", type=int, required=True, help="symmetric power")
    example_p.add_argument("--s", type=int, required=True, help="number of marked points")
    example_p.add_argument("--q", default="2,3,5", help="comma-separated prime field sizes")
    example_p.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt",
    )

    verify_p = sub.add_parser("verify", help="run verification suites")
    verify_p.add_argument("--suite", required=True, choices=tuple(SUITES) + ("all",))
    add_common(verify_p, "json")
    verify_p.add_argument("--q", default="2,3,5", help="comma-separated prime field sizes")
    verify_p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    return parser


def _parse_fields(text: str) -> tuple[int, ...]:
    """The field sizes of --q: comma-separated parameters as in a pair spec (pairs._PARAM), each prime, each once."""
    if not text.strip():
        raise ValueError("at least one field size is required")
    items = text.split(",")
    if not all(map(_PARAM.fullmatch, items)):
        raise ValueError(f"bad field size list {text!r}")
    fields = tuple(map(int, items))
    for i, q in enumerate(fields):
        if not is_prime(q):
            raise ValueError(f"field sizes must be prime, got {q}")
        if q in fields[:i]:
            raise ValueError(f"field size {q} is given more than once")
    return fields


def _run(args: argparse.Namespace) -> int:
    if args.command == "zeta":
        return cmd_zeta(parse_pair_spec(args.pair), args.order, args.fmt)
    if args.command == "pow":
        if args.base != "coeffs" and args.coeff:
            raise ValueError("--coeff only applies with --base coeffs")
        tail = [PairClass.one()] if args.base == "one-plus-t" else [parse_pair_spec(s) for s in args.coeff]
        return cmd_pow(args.base, tail, parse_pair_spec(args.pair), args.order, args.fmt)
    if args.command == "example":
        if args.n < 0 or args.s < 0:
            raise ValueError("n and s must be non-negative")
        return cmd_example(args.n, args.s, _parse_fields(args.q), args.fmt)
    return cmd_verify(args.suite, args.order, _parse_fields(args.q), args.budget, args.fmt)


def _write(text: str, code: int) -> int:
    """Write a command's whole output to stdout and return its exit code.

    A reader that closes stdout early (`| head`) is not a failure: the
    verdict is already decided, so it stands.  The rest of the output goes
    to the null device, so the flush at interpreter exit has nowhere to
    fail either; a stdout with no file descriptor (a StringIO, say) needs
    nothing more.
    """
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            return code
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = io.StringIO()  # the command prints here; _write passes it on
    try:
        with lane_memo(), contextlib.redirect_stdout(out):  # each lane series once per command
            code = _run(args)
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        parser.error(str(exc))
        return 2  # unreachable; parser.error exits
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    return _write(out.getvalue(), code)


if __name__ == "__main__":
    raise SystemExit(main())
