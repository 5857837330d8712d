"""Recursive-descent parsers for the xi and measure expression languages.

Both parsers report failures with the source position and the tokens they
would have accepted there.  The measure parser first builds a small syntax
tree (so expressions can be pretty-printed and normalized) and evaluates it
to a CyclotomicMeasure on demand.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List

from .measures import (
    BASE_KINDS,
    DENSITY_POLYS,
    CyclotomicMeasure,
    basic_measure,
    density_measure,
    lincomb,
)
from .transforms import XiExpression, XiFactor


class ParseError(ValueError):
    def __init__(self, message: str, position: int, expected=()):
        self.position = position
        self.expected = tuple(expected)
        hint = f" (expected {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{message} at position {position}{hint}")


class EvaluationError(ValueError):
    """Structurally valid expression with no meaning (bad atom, scalar result,
    product of two measures, ...)."""


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            raise ParseError(f"unexpected {self.describe()}", self.pos, (repr(ch),))

    def describe(self) -> str:
        c = self.peek()
        return f"character {c!r}" if c else "end of input"

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError(f"unexpected {self.describe()}", start, ("integer",))
        return int(self.text[start:self.pos])

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        return self.text[start:self.pos]

    def primes(self) -> int:
        count = 0
        while self.pos < len(self.text) and self.text[self.pos] == "'":
            self.pos += 1
            count += 1
        return count

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


# ---------------------------------------------------------------------------
# xi expressions
# ---------------------------------------------------------------------------

def parse_xi_expr(text: str) -> XiExpression:
    """Parse xi(...), xi'(...) or xi''(...); factors are integers with an
    optional + suffix, numerator and denominator separated by a colon."""
    s = _Scanner(text)
    s.skip_ws()
    if s.name() != "xi":
        raise ParseError(f"unexpected {s.describe()}", s.pos, ("'xi'",))
    marks = s.primes()
    if marks > 2:
        raise ParseError("too many prime marks", s.pos, ("at most ''",))
    normalizer = ("", "prime", "doubleprime")[marks]
    s.expect("(")
    num = _xi_factor_list(s)
    s.expect(":")
    den = _xi_factor_list(s)
    s.expect(")")
    if not s.at_end():
        raise ParseError(f"unexpected {s.describe()}", s.pos, ("end of input",))
    return XiExpression(tuple(num), tuple(den), normalizer)


def _xi_factor_list(s: _Scanner) -> List[XiFactor]:
    factors = []
    if s.peek() in (":", ")"):
        return factors
    while True:
        pos = s.pos
        n = s.integer()
        if n < 1:
            raise ParseError("factor exponent must be positive", pos, ("positive integer",))
        factors.append(XiFactor(n, s.take("+")))
        if not s.take(","):
            return factors


def format_xi(expr: XiExpression) -> str:
    return expr.text()


# ---------------------------------------------------------------------------
# measure expressions
# ---------------------------------------------------------------------------

# syntax tree nodes:
#   ("sum", first, [(op, node), ...])   op in "+-"
#   ("term", [node, ...], divisor or None)
#   ("rat", Fraction)
#   ("atom", name, primes, n)
#   ("paren", node)

def parse_measure_ast(text: str):
    s = _Scanner(text)
    node = _sum(s)
    if not s.at_end():
        raise ParseError(f"unexpected {s.describe()}", s.pos, ("end of input",))
    return node


def _sum(s: _Scanner):
    first = _term(s)
    rest = []
    while s.peek() in ("+", "-"):
        op = s.peek()
        s.pos += 1
        rest.append((op, _term(s)))
    return ("sum", first, rest)


def _term(s: _Scanner):
    factors = [_factor(s)]
    while s.take("*"):
        factors.append(_factor(s))
    divisor = None
    if s.take("/"):
        divisor = s.integer()
    return ("term", factors, divisor)


def _factor(s: _Scanner):
    c = s.peek()
    if c == "(":
        s.pos += 1
        inner = _sum(s)
        s.expect(")")
        return ("paren", inner)
    if c.isdigit():
        value = Fraction(s.integer())
        if s.peek() == "/":
            # a rational scalar like 3/2; leave the slash to the term when a
            # non-integer follows (that case is a parse error anyway)
            save = s.pos
            s.pos += 1
            if s.peek().isdigit():
                divisor = s.integer()
                if divisor == 0:
                    raise EvaluationError("division by zero")
                value /= divisor
            else:
                s.pos = save
        return ("rat", value)
    if c.isalpha():
        pos = s.pos
        name = s.name()
        if name not in ("d", "alpha", "beta", "gamma"):
            raise ParseError(f"unknown atom name {name!r}", pos,
                             ("'d'", "'alpha'", "'beta'", "'gamma'"))
        primes = s.primes()
        s.expect("_")
        n = s.integer()
        return ("atom", name, primes, n)
    raise ParseError(f"unexpected {s.describe()}", s.pos,
                     ("integer", "atom", "'('"))


def format_measure_expr(node) -> str:
    """Canonical text for a measure syntax tree (spaces around + and -)."""
    kind = node[0]
    if kind == "sum":
        out = format_measure_expr(node[1])
        for op, term in node[2]:
            out += f" {op} {format_measure_expr(term)}"
        return out
    if kind == "term":
        text = "*".join(format_measure_expr(f) for f in node[1])
        if node[2] is not None:
            text += f"/{node[2]}"
        return text
    if kind == "paren":
        return f"({format_measure_expr(node[1])})"
    if kind == "rat":
        v = node[1]
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if kind == "atom":
        _, name, primes, n = node
        marks = "'" * primes
        return f"{name}{marks}_{n}"
    raise ValueError(f"bad node {node!r}")


# Largest support order (the order of the roots of unity carrying the atoms)
# of one parsed atom, and of a sum, which lives on the lcm of its terms'
# supports; beyond it one measure takes seconds and then runs away.
MAX_ATOM_SUPPORT = 1000

# Largest graph parameter (the vertex count; one less for Dtilde) and the
# largest series order or moment count the CLI accepts.  At the caps the
# slowest commands, verify --order 512 and graph-tseries at both caps, take
# about 4.0 s and 1.5 s (2-vCPU VM, Python 3.11); a graph is stored as
# neighbour lists, so graph-tseries peaks at about 23 MB RSS at the caps.
MAX_VERTICES = 4000
MAX_ORDER = 512

# support order of an atom over its parameter n, by number of primes
_SUPPORT_FACTOR = (2, 4, 12, 6)


def _eval_atom(name: str, primes: int, n: int):
    if n < 1:
        raise EvaluationError(f"atom parameter must be positive: {name}_{n}")
    if name == "d" and primes > 3:
        raise EvaluationError(f"'d' takes at most three primes, got {primes}")
    if name != "d" and primes > 2:
        raise EvaluationError(f"{name!r} takes at most two primes, got {primes}")
    support = _SUPPORT_FACTOR[primes] * n
    if support > MAX_ATOM_SUPPORT:
        marks = "'" * primes
        raise EvaluationError(
            f"atom {name}{marks}_{n} has support order {support}, "
            f"above the limit {MAX_ATOM_SUPPORT}")
    if name == "d":
        return basic_measure(BASE_KINDS[primes], n)
    return density_measure(DENSITY_POLYS[name], BASE_KINDS[primes], n)


def _eval(node):
    kind = node[0]
    if kind == "rat":
        return node[1]
    if kind == "atom":
        return _eval_atom(node[1], node[2], node[3])
    if kind == "paren":
        return _eval(node[1])
    if kind == "term":
        value = _eval(node[1][0])
        for f in node[1][1:]:
            value = _mul(value, _eval(f))
        if node[2] is not None:
            if node[2] == 0:
                raise EvaluationError("division by zero")
            value = _mul(value, Fraction(1, node[2]))
        return value
    if kind == "sum":
        value = _eval(node[1])
        for op, term in node[2]:
            rhs = _eval(term)
            if op == "-":
                rhs = _mul(rhs, Fraction(-1))
            value = _add(value, rhs)
        return value
    raise ValueError(f"bad node {node!r}")


def _mul(a, b):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a * b
    if isinstance(a, Fraction):
        return lincomb([(a, b)])
    if isinstance(b, Fraction):
        return lincomb([(b, a)])
    raise EvaluationError("cannot multiply two measures")


def _add(a, b):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a + b
    if isinstance(a, CyclotomicMeasure) and isinstance(b, CyclotomicMeasure):
        support = math.lcm(a.order, b.order)
        if support > MAX_ATOM_SUPPORT:
            raise EvaluationError(
                f"sum has support order {support}, above the limit {MAX_ATOM_SUPPORT}")
        return lincomb([(Fraction(1), a), (Fraction(1), b)])
    raise EvaluationError("cannot add a scalar and a measure")


def parse_measure_expr(text: str) -> CyclotomicMeasure:
    """Parse and evaluate a measure expression."""
    value = _eval(parse_measure_ast(text))
    if not isinstance(value, CyclotomicMeasure):
        raise EvaluationError("expression evaluates to a scalar, not a measure")
    return value
