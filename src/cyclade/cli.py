"""Command-line front end: graph pipelines, expression expansion, measure
inspection, and the verification registry."""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

import mpmath

from .exact import CyclotomicNumber, series_from_integers
from .exprs import MAX_ORDER, MAX_VERTICES, parse_measure_expr, parse_xi_expr
from .graphs import EXCEPTIONAL_TAGS, FAMILY_TAGS, GraphFamily, build_ade, loop_counts
from .measures import (
    cyclotomic_expansion,
    level,
    pushforward_real,
    t_series_of_measure,
    _even_moments,
)
from .transforms import graph_t_series, xi_expand
from . import verify as verify_mod


def _fr(value: Fraction) -> object:
    """Fractions as JSON-safe values: int when integral, 'p/q' otherwise."""
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def format_cyclo(z: CyclotomicNumber) -> str:
    """Exact coordinates of a cyclotomic number, w being the primitive root."""
    if z.is_rational():
        return str(_fr(z.coeffs[0] if z.coeffs else Fraction(0)))
    parts = []
    for i, c in enumerate(z.coeffs):
        if c == 0:
            continue
        mag = str(_fr(abs(c)))
        term = mag if i == 0 else (f"w^{i}" if abs(c) == 1 else f"{mag}*w^{i}")
        parts.append(("- " if c < 0 else "+ " if parts else "") + term)
    return " ".join(parts) if parts else "0"


def format_decimal(z: CyclotomicNumber) -> str:
    v = z.numeric(dps=30)
    with mpmath.workdps(30):
        if abs(mpmath.im(v)) < mpmath.mpf("1e-25"):
            return mpmath.nstr(mpmath.re(v), 15)
        return mpmath.nstr(v, 15)


def _emit_series(values, fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps({"values": [_fr(v) for v in values]}, indent=2) + "\n")
    elif fmt == "csv":
        out.write(",".join(str(_fr(v)) for v in values) + "\n")
    else:
        out.write(", ".join(str(_fr(v)) for v in values) + "\n")


def _emit_table(columns, rows, fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps([dict(zip(columns, row)) for row in rows], indent=2) + "\n")
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        out.write(buf.getvalue())
    else:
        widths = [max(len(str(c)), *(len(str(r[i])) for r in rows)) if rows else len(str(c))
                  for i, c in enumerate(columns)]
        out.write("  ".join(str(c).ljust(w) for c, w in zip(columns, widths)).rstrip() + "\n")
        for row in rows:
            out.write("  ".join(str(v).ljust(w) for v, w in zip(row, widths)).rstrip() + "\n")


def _family(args, parser) -> GraphFamily:
    tag = args.family
    if tag not in FAMILY_TAGS:
        parser.error(f"unknown family {tag!r}; choose from {', '.join(FAMILY_TAGS)}")
    if tag in EXCEPTIONAL_TAGS:
        fam = GraphFamily(tag)
        if args.param not in (None, fam.param):
            parser.error(f"family {tag} has parameter {fam.param}, got --param {args.param}")
        return fam
    if args.param is None:
        parser.error(f"family {tag} needs --param")
    return GraphFamily(tag, args.param)


def _int_in_range(low, high: int):
    """argparse type for an integer from low (None: unbounded) to high."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value
    return parse


_ORDER = _int_in_range(0, MAX_ORDER)
_PARAM = _int_in_range(None, MAX_VERTICES)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclade",
        description="Exact T series and circular spectral measures of the ADE graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--out", metavar="PATH", help="write output to a file")
        return p

    p = add("graph-loops", "closed walk counts at the root of an ADE graph")
    p.add_argument("--family", required=True)
    p.add_argument("--param", type=_PARAM)
    p.add_argument("--order", type=_ORDER, default=64)

    p = add("graph-tseries", "T series of an ADE graph via the loop pipeline")
    p.add_argument("--family", required=True)
    p.add_argument("--param", type=_PARAM)
    p.add_argument("--order", type=_ORDER, default=64)

    p = add("xi-expand", "series expansion of a xi expression")
    p.add_argument("--expr", required=True)
    p.add_argument("--order", type=_ORDER, default=64)

    p = add("measure-show", "atoms and weights of a measure expression")
    p.add_argument("--expr", required=True)

    p = add("measure-moments", "moments 0..count of a measure expression")
    p.add_argument("--expr", required=True)
    p.add_argument("--count", type=_ORDER, default=8)

    p = add("measure-tseries", "T series of a measure expression")
    p.add_argument("--expr", required=True)
    p.add_argument("--order", type=_ORDER, default=64)

    p = add("measure-pushforward", "real pushforward atoms of a measure")
    p.add_argument("--expr", required=True)

    p = add("expand", "coefficients of a measure over the density basis")
    p.add_argument("--expr", required=True)
    p.add_argument("--support", type=_int_in_range(1, MAX_ORDER),
                   help="support parameter n (default: smallest admissible)")

    p = add("level", "smallest density degree expressing the measure")
    p.add_argument("--expr", required=True)

    p = add("verify", "run the verification registry")
    p.add_argument("--order", type=_ORDER, default=64)
    p.add_argument("--only", metavar="GLOB", help="run only matching check ids")

    return parser


def dispatch(args, parser) -> int:
    out = sys.stdout
    sink = None
    if args.out:
        sink = open(args.out, "w", encoding="utf-8", newline="")
        out = sink
    try:
        return _dispatch(args, parser, out)
    finally:
        if sink is not None:
            sink.close()


def _dispatch(args, parser, out) -> int:
    cmd = args.command
    if cmd == "graph-loops":
        fam = _family(args, parser)
        _emit_series(loop_counts(build_ade(fam), args.order), args.format, out)
        return 0
    if cmd == "graph-tseries":
        fam = _family(args, parser)
        counts = series_from_integers(loop_counts(build_ade(fam), args.order))
        _emit_series(graph_t_series(counts, args.order).coeffs, args.format, out)
        return 0
    if cmd == "xi-expand":
        series = xi_expand(parse_xi_expr(args.expr), args.order)
        _emit_series(series.coeffs, args.format, out)
        return 0
    if cmd == "measure-show":
        e = parse_measure_expr(args.expr)
        rows = [[j, e.order, format_cyclo(w), format_decimal(w)]
                for j, w in enumerate(e.weights) if not w.is_zero()]
        _emit_table(["position", "order", "weight", "weight_decimal"], rows, args.format, out)
        return 0
    if cmd == "measure-moments":
        # odd moments vanish, as each orbit holds u and -u
        nums, den = _even_moments(parse_measure_expr(args.expr), args.count // 2)
        values = [0 if k % 2 else Fraction(nums[k // 2], den) for k in range(args.count + 1)]
        _emit_series(values, args.format, out)
        return 0
    if cmd == "measure-tseries":
        series = t_series_of_measure(parse_measure_expr(args.expr), args.order)
        _emit_series(series.coeffs, args.format, out)
        return 0
    if cmd == "measure-pushforward":
        real = pushforward_real(parse_measure_expr(args.expr))
        rows = [[format_cyclo(x), format_decimal(x), format_cyclo(w), format_decimal(w)]
                for x, w in real.atoms]
        _emit_table(["location", "location_decimal", "weight", "weight_decimal"],
                    rows, args.format, out)
        return 0
    if cmd == "expand":
        e = parse_measure_expr(args.expr)
        n = args.support
        if n is None:
            support = e.minimal_support_order()
            n = 1 if support is None else support // 2
        result = cyclotomic_expansion(e, n)
        rows = [[l, str(_fr(c))] for l, c in sorted(result.coefficients.items())]
        rows.append(["residual_ok", str(result.residual_ok).lower()])
        _emit_table(["index", "coefficient"], rows, args.format, out)
        return 0
    if cmd == "level":
        value = level(parse_measure_expr(args.expr))
        _emit_series([value], args.format, out)
        return 0
    if cmd == "verify":
        report = verify_mod.run_all(order=args.order, only=args.only)
        if args.format == "json":
            out.write(report.to_json())
        elif args.format == "csv":
            rows = [[r.check_id, r.status, r.details] for r in report.results]
            _emit_table(["id", "status", "details"], rows, "csv", out)
        else:
            out.write(report.to_markdown())
        return 1 if report.failures else 0
    parser.error(f"unknown command {cmd!r}")
    return 2


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return dispatch(args, parser)
    except (ValueError, ArithmeticError, OSError, RecursionError) as exc:
        # every cyclade error is a ValueError or an ArithmeticError; OSError
        # is an --out path that cannot be written, RecursionError an
        # expression nested too deeply for the parser
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
