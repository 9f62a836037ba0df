"""Batch command line over the whole engine.

Subcommands:
  zeta     symmetric-power series of a pair class
  pow      series exponential A(t)^pair
  example  both pipelines of the marked-line example plus counting checks
  verify   named verification suites with a JSON or text report

Pair specs name catalog entries with colon-separated parameters
(`point`, `finite:3,1`, `p1-marked:2`, `pn-hyp:2,2`) and combine with
`sum(...)`, `prod(...)` and `neg(...)`; the grammar lives in `pairs`.

Exit codes: 0 success, 1 verification or equality failure, 2 usage
error, 3 enumeration budget exhausted.  Identical invocations print
byte-identical output: suites run sequentially in a fixed order and all
sampling inside them is constant-seeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .field import is_prime
from .geometry import MarkedP1Scene, hyperplane_union_class, sym_pair_p1_direct, sym_pair_p1_lambda
from .oracle import DEFAULT_BUDGET, BudgetExceededError, count_marked_union
from .pairs import PairClass, parse_pair_spec
from .power import PAIR_RING, kapranov_zeta, power_pow
from .series import TruncatedSeries
from .suites import SUITES, run_suite


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


def _print_pair_series(series: TruncatedSeries, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(series.to_json(lambda c: c.to_json()), indent=2))
        return
    rows = [
        (f"t^{n}", str(c.amb), str(c.comp), str(c.subvariety))
        for n, c in enumerate(series.coeffs)
    ]
    print(_table(("deg", "ambient", "complement", "subvariety"), rows))


# -- subcommands -----------------------------------------------------------------


def cmd_zeta(pair: PairClass, order: int, fmt: str) -> int:
    _print_pair_series(kapranov_zeta(pair, order), fmt)
    return 0


def _base_series(kind: str, coeff_specs: Sequence[str], order: int) -> TruncatedSeries:
    if kind == "geometric":
        return PAIR_RING.geometric_series(order)
    if kind == "one-plus-t":
        return PAIR_RING.one_plus_t(order)
    return PAIR_RING.one_plus([parse_pair_spec(s) for s in coeff_specs], order)


def cmd_pow(base: TruncatedSeries, exponent: PairClass, fmt: str) -> int:
    _print_pair_series(power_pow(base, exponent, PAIR_RING), fmt)
    return 0


def cmd_example(n: int, s: int, fields: tuple[int, ...], fmt: str) -> int:
    direct = sym_pair_p1_direct(n, s)
    lam = sym_pair_p1_lambda(n, s)
    equal = direct == lam
    counts: list[dict] = []
    for q in fields:
        if s > q + 1:
            counts.append({"q": q, "skipped": f"needs s <= {q + 1} over F_{q}"})
            continue
        if n < 1:
            counts.append({"q": q, "skipped": "enumeration needs n >= 1"})
            continue
        enumerated = count_marked_union(n, q, MarkedP1Scene.standard(s, q))
        from_class = hyperplane_union_class(n, s).evaluate(q)
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
        print(json.dumps(report, indent=2))
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
    try:
        reports = [run_suite(nm, order, fields, budget) for nm in names]
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    report = {
        "order": order,
        "fields": list(fields),
        "budget": budget,
        "suites": reports,
        "pass": all(r["pass"] for r in reports),
    }
    if fmt == "json":
        print(json.dumps(report, indent=2))
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
    verify_p.add_argument("--order", type=int, default=8)
    verify_p.add_argument("--q", default="2,3,5", help="comma-separated prime field sizes")
    verify_p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    verify_p.add_argument(
        "--format", choices=("text", "json"), default="json", dest="fmt",
    )
    return parser


def _parse_fields(text: str) -> tuple[int, ...]:
    try:
        fields = tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise ValueError(f"bad field size list {text!r}") from None
    if not fields:
        raise ValueError("at least one field size is required")
    for q in fields:
        if not is_prime(q):
            raise ValueError(f"field sizes must be prime, got {q}")
    return fields


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "zeta":
            return cmd_zeta(parse_pair_spec(args.pair), args.order, args.fmt)
        if args.command == "pow":
            if args.base != "coeffs" and args.coeff:
                raise ValueError("--coeff only applies with --base coeffs")
            base = _base_series(args.base, args.coeff, args.order)
            return cmd_pow(base, parse_pair_spec(args.pair), args.fmt)
        if args.command == "example":
            if args.n < 0 or args.s < 0:
                raise ValueError("n and s must be non-negative")
            return cmd_example(args.n, args.s, _parse_fields(args.q), args.fmt)
        return cmd_verify(args.suite, args.order, _parse_fields(args.q), args.budget, args.fmt)
    except ValueError as exc:
        parser.error(str(exc))
        return 2  # unreachable; parser.error exits


if __name__ == "__main__":
    raise SystemExit(main())
