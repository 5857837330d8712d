"""Command-line front end: graph pipelines, expression expansion, measure
inspection, and the verification registry."""

from __future__ import annotations

import argparse
import csv
import io
import sys
from fractions import Fraction

from .exact import CyclotomicNumber, series_from_integers
from .exprs import parse_measure_expr, parse_xi_expr
from .graphs import EXCEPTIONAL_TAGS, FAMILY_TAGS, GraphFamily, build_ade, loop_counts
from .measures import (
    cyclotomic_expansion,
    level,
    pushforward_real,
    t_series_of_measure,
    _even_moments,
)
from .transforms import _KEPT_ORDER as MAX_ORDER, graph_t_series, xi_expand
from . import verify as verify_mod


def _fr(value: Fraction) -> object:
    """Fractions as JSON-safe values: int when integral, 'p/q' otherwise."""
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def format_cyclo(z: CyclotomicNumber) -> str:
    """Exact coordinates of a cyclotomic number, w being the primitive root."""
    if z.is_rational():
        return str(_fr(z.coeffs[0]))
    parts = []
    for i, c in enumerate(z.coeffs):
        if c == 0:
            continue
        mag = str(_fr(abs(c)))
        term = mag if i == 0 else (f"w^{i}" if abs(c) == 1 else f"{mag}*w^{i}")
        parts.append(("- " if c < 0 else "+ " if parts else "") + term)
    return " ".join(parts)


def format_decimal(z: CyclotomicNumber) -> str:
    import mpmath  # kept off the import path: only decimal display needs it

    v = z.numeric(dps=30)
    with mpmath.workdps(30):
        return mpmath.nstr(mpmath.re(v) if z.is_real() else v, 15)


def _emit_series(values, fmt: str) -> str:
    if fmt == "json":
        import json  # only --format json needs it
        return json.dumps({"values": [_fr(v) for v in values]}, indent=2) + "\n"
    sep = "," if fmt == "csv" else ", "
    return sep.join(str(_fr(v)) for v in values) + "\n"


def _emit_table(columns, rows, fmt: str) -> str:
    if fmt == "json":
        import json  # only --format json needs it
        return json.dumps([dict(zip(columns, row)) for row in rows], indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        return buf.getvalue()
    widths = [max(len(str(c)), *(len(str(r[i])) for r in rows)) if rows else len(str(c))
              for i, c in enumerate(columns)]
    return "".join("  ".join(str(v).ljust(w) for v, w in zip(row, widths)).rstrip() + "\n"
                   for row in [columns, *rows])


def _family(args, parser) -> GraphFamily:
    tag = args.family
    if tag in EXCEPTIONAL_TAGS:
        fam = GraphFamily(tag)
        if args.param not in (None, fam.param):
            parser.error(f"family {tag} has parameter {fam.param}, got --param {args.param}")
        return fam
    if args.param is None:
        parser.error(f"family {tag} needs --param")
    return GraphFamily(tag, args.param)


def _int_in_range(low, high: int):
    """argparse type for an integer from low (None: unbounded) to high,
    written in ASCII digits with an optional leading -: int() would also
    read a sign +, spaces, underscores and other scripts' digits."""
    def parse(text: str) -> int:
        digits = text[1:] if text[:1] == "-" else text
        try:
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value
    return parse


# Largest graph parameter (the vertex count; one less for Dtilde) and, as
# MAX_ORDER, imported from transforms, the largest series order or moment
# count the CLI accepts.  At the caps verify --order 512 takes about 1.2 s
# (1.0-1.5 s, python -m cyclade) and peaks at about 32 MB RSS, 13 MB of it
# the formula theta's binomial table, which transforms keeps up to this
# order; graph-tseries at both caps takes 0.11-0.14 s and, a graph being
# neighbour lists, peaks at about 18 MB RSS (python -m cyclade, median of 5,
# 2-vCPU Xeon VM, Python 3.11).
MAX_VERTICES = 4000

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

    for name, help_text in (("graph-loops", "closed walk counts at the root of an ADE graph"),
                            ("graph-tseries", "T series of an ADE graph via the loop pipeline")):
        p = add(name, help_text)
        p.add_argument("--family", required=True, choices=FAMILY_TAGS)
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
    """Run the command, then write its text once, to stdout or to --out, so
    a command that fails leaves an --out file as it was."""
    code, text = _dispatch(args, parser)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as sink:
            sink.write(text)
    else:
        sys.stdout.write(text)
    return code


def _dispatch(args, parser) -> tuple:
    """(exit code, output text) of the command."""
    cmd = args.command
    if cmd == "graph-loops":
        fam = _family(args, parser)
        return 0, _emit_series(loop_counts(build_ade(fam), args.order), args.format)
    if cmd == "graph-tseries":
        fam = _family(args, parser)
        counts = series_from_integers(loop_counts(build_ade(fam), args.order))
        return 0, _emit_series(graph_t_series(counts, args.order).coeffs, args.format)
    if cmd == "xi-expand":
        series = xi_expand(parse_xi_expr(args.expr), args.order)
        return 0, _emit_series(series.coeffs, args.format)
    if cmd == "measure-show":
        e = parse_measure_expr(args.expr)
        # each orbit's weight formatted once, for all its positions
        shown = [None if w.is_zero() else [format_cyclo(w), format_decimal(w)] for w in e.reps]
        rows = [[j, e.order, *text] for j in range(e.order) if (text := shown[e.orbit(j)])]
        return 0, _emit_table(["position", "order", "weight", "weight_decimal"], rows,
                              args.format)
    if cmd == "measure-moments":
        # odd moments vanish, as each orbit holds u and -u
        nums, den = _even_moments(parse_measure_expr(args.expr), args.count // 2)
        values = [0 if k % 2 else Fraction(nums[k // 2], den) for k in range(args.count + 1)]
        return 0, _emit_series(values, args.format)
    if cmd == "measure-tseries":
        series = t_series_of_measure(parse_measure_expr(args.expr), args.order)
        return 0, _emit_series(series.coeffs, args.format)
    if cmd == "measure-pushforward":
        real = pushforward_real(parse_measure_expr(args.expr))
        rows = [[format_cyclo(x), format_decimal(x), format_cyclo(w), format_decimal(w)]
                for x, w in real.atoms]
        return 0, _emit_table(["location", "location_decimal", "weight", "weight_decimal"],
                              rows, args.format)
    if cmd == "expand":
        e = parse_measure_expr(args.expr)
        n = args.support
        if n is None:
            support = e.minimal_support_order()
            n = 1 if support is None else support // 2
        result = cyclotomic_expansion(e, n)
        rows = [[l, str(_fr(c))] for l, c in sorted(result.coefficients.items())]
        rows.append(["residual_ok", str(result.residual_ok).lower()])
        return 0, _emit_table(["index", "coefficient"], rows, args.format)
    if cmd == "level":
        return 0, _emit_series([level(parse_measure_expr(args.expr))], args.format)
    report = verify_mod.run_all(order=args.order, only=args.only)
    if args.format == "json":
        text = report.to_json()
    elif args.format == "csv":
        text = _emit_table(["id", "status", "details"],
                           [[r.check_id, r.status, r.details] for r in report.results], "csv")
    else:
        text = report.to_markdown()
    return (1 if report.failures else 0), text


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
