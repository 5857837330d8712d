"""Recursive-descent parsers for the xi and measure expression languages.

Both parsers report syntax errors with the source position and the tokens they
would have accepted there.  The xi parser reads k prime marks as one more
denominator factor (1 - q^k).  The measure parser builds no syntax tree: it
evaluates the expression left to right as it parses it, with the operators
of measures and scalars, and raises the first error it meets.  An operator's
error is raised once its right operand is read, so an error inside that
operand comes first: "2 - d_1 * d_2" fails at the "*" (position 8), not at
the "-".  An evaluation error gives a source position too: the atom's first
character, the operator or the divisor it was raised at, or 0 for a scalar
result.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List

from .measures import BASE_KINDS, CyclotomicMeasure, atom_measure
from .transforms import XiExpression, XiFactor


class ParseError(ValueError):
    def __init__(self, message: str, position: int, expected=()):
        self.position = position
        self.expected = tuple(expected)
        hint = f" (expected {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{message} at position {position}{hint}")


class EvaluationError(ValueError):
    """Structurally valid expression with no meaning (bad atom, scalar result,
    product of two measures, ...), with the source position it was found at."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} at position {position}")


def _is_digit(c: str) -> bool:
    return "0" <= c <= "9"  # not str.isdigit, which takes any script's digits


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
        while self.pos < len(self.text) and _is_digit(self.text[self.pos]):
            self.pos += 1
        if self.pos == start:
            raise ParseError(f"unexpected {self.describe()}", start, ("integer",))
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # beyond the interpreter's integer conversion limit
            raise ParseError(f"integer literal of {self.pos - start} digits is too long",
                             start) from None

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        return self.text[start:self.pos]

    def primes(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] == "'":
            self.pos += 1
        return self.pos - start

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


# ---------------------------------------------------------------------------
# xi expressions
# ---------------------------------------------------------------------------

def parse_xi_expr(text: str) -> XiExpression:
    """Parse xi(...), xi'(...) or xi''(...); factors are integers with an
    optional + suffix, numerator and denominator separated by a colon.  k
    prime marks append the factor (1 - q^k) to the denominator, so xi'(3+:3)
    and xi(3+:3,1) are one value."""
    s = _Scanner(text)
    name = s.name()
    if name != "xi":
        message = f"unknown form name {name!r}" if name else f"unexpected {s.describe()}"
        raise ParseError(message, s.pos - len(name), ("'xi'",))
    marks = s.primes()
    if marks > 2:
        raise ParseError("too many prime marks", s.pos, ("at most ''",))
    s.expect("(")
    num = _xi_factor_list(s)
    s.expect(":")
    den = _xi_factor_list(s)
    s.expect(")")
    if not s.at_end():
        raise ParseError(f"unexpected {s.describe()}", s.pos, ("end of input",))
    if marks:
        den.append(XiFactor(marks, False))
    return XiExpression(tuple(num), tuple(den))


def _xi_factor_list(s: _Scanner) -> List[XiFactor]:
    factors = []
    if s.peek() in (":", ")"):
        return factors
    while True:
        s.skip_ws()
        pos = s.pos
        n = s.integer()
        if n < 1:
            raise ParseError("factor exponent must be positive", pos, ("positive integer",))
        factors.append(XiFactor(n, s.take("+")))
        if not s.take(","):
            return factors


# ---------------------------------------------------------------------------
# measure expressions
# ---------------------------------------------------------------------------

# Largest support order (the order of the roots of unity carrying the atoms)
# of one parsed atom, and of a sum, which lives on the lcm of its terms'
# supports; beyond it one measure takes seconds and then runs away.
MAX_ATOM_SUPPORT = 1000

# support order of an atom over its parameter n, by number of primes
_SUPPORT_FACTOR = (2, 4, 12, 6)

# Each rule returns a scalar, an int until a division makes it a Fraction,
# or a measure, whose order is the lcm of its atoms' supports.


def _sum(s: _Scanner):
    value = _term(s)
    while s.peek() in ("+", "-"):
        op, pos = s.peek(), s.pos
        s.pos += 1
        value = _add(value, _term(s), pos, op == "-")
    return value


def _term(s: _Scanner):
    """factor (("*" factor) | ("/" integer))*, read left to right."""
    value = _factor(s)
    while s.peek() in ("*", "/"):
        op, pos = s.peek(), s.pos
        s.pos += 1
        if op == "*":
            value = _mul(value, _factor(s), pos)
        else:
            s.skip_ws()
            pos = s.pos
            divisor = s.integer()
            if divisor == 0:
                raise EvaluationError("division by zero", pos)
            value = _mul(value, Fraction(1, divisor), pos)
    return value


def _factor(s: _Scanner):
    c = s.peek()
    if c == "(":
        s.pos += 1
        value = _sum(s)
        s.expect(")")
        return value
    if _is_digit(c):
        return s.integer()
    if c.isalpha():
        pos = s.pos
        name = s.name()
        if name not in ("d", "alpha", "beta", "gamma"):
            raise ParseError(f"unknown atom name {name!r}", pos,
                             ("'d'", "'alpha'", "'beta'", "'gamma'"))
        primes = s.primes()
        s.expect("_")
        return _eval_atom(name, primes, s.integer(), pos)
    raise ParseError(f"unexpected {s.describe()}", s.pos,
                     ("integer", "atom", "'('"))


def _eval_atom(name: str, primes: int, n: int, pos: int):
    if n < 1:
        raise EvaluationError(f"atom parameter must be positive: {name}_{n}", pos)
    if name == "d" and primes > 3:
        raise EvaluationError(f"'d' takes at most three primes, got {primes}", pos)
    if name != "d" and primes > 2:
        raise EvaluationError(f"{name!r} takes at most two primes, got {primes}", pos)
    support = _SUPPORT_FACTOR[primes] * n
    if support > MAX_ATOM_SUPPORT:
        marks = "'" * primes
        raise EvaluationError(
            f"atom {name}{marks}_{n} has support order {support}, "
            f"above the limit {MAX_ATOM_SUPPORT}", pos)
    return atom_measure(name, BASE_KINDS[primes], n)


def _mul(a, b, pos: int):
    if isinstance(a, CyclotomicMeasure) and isinstance(b, CyclotomicMeasure):
        raise EvaluationError("cannot multiply two measures", pos)
    return a * b


def _add(a, b, pos: int, subtract: bool):
    measure = isinstance(a, CyclotomicMeasure)
    if measure != isinstance(b, CyclotomicMeasure):
        raise EvaluationError("cannot add a scalar and a measure", pos)
    if measure:
        support = math.lcm(a.order, b.order)
        if support > MAX_ATOM_SUPPORT:
            raise EvaluationError(
                f"sum has support order {support}, above the limit {MAX_ATOM_SUPPORT}", pos)
    return a - b if subtract else a + b


def parse_measure_expr(text: str) -> CyclotomicMeasure:
    """Parse and evaluate a measure expression; a lone atom is the memoized
    atom itself."""
    s = _Scanner(text)
    value = _sum(s)
    if not s.at_end():
        raise ParseError(f"unexpected {s.describe()}", s.pos, ("end of input",))
    if not isinstance(value, CyclotomicMeasure):
        raise EvaluationError("expression evaluates to a scalar, not a measure", 0)
    return value
