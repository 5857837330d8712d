"""The loop-count to theta to T pipeline, and the xi calculus of rational
functions built from (1 - q^n) and (1 + q^n) factors: a xi form is its
numerator and denominator factor lists, and nothing else.  A SeriesFraction
is an integer numerator over such a factor list; xi forms, closed forms and
measures are compared as fractions, by cross-multiplication."""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import accumulate, islice, repeat, zip_longest
from operator import add, floordiv, mul, sub
from typing import Iterable, NamedTuple, Sequence, Tuple

from ._value import FrozenValue
from .exact import (PowerSeries, _check_order, _divide_factor, _over_lcm, _times_factor,
                    series_from_integers)
from .graphs import GraphFamily


class DegreeTooLarge(ValueError):
    """Closed-form T needs deg P strictly below the support parameter."""


class XiFactor(NamedTuple):
    exponent: int
    plus: bool  # True for (1 + q^n), False for (1 - q^n)


class XiExpression(FrozenValue):
    """A formal product of (1 +- q^n) factors over another; each exponent is
    an int n >= 1 and each plus flag a bool.  The prime marks of xi' and
    xi'' are no field: each is one more (1 - q^k) factor, k the number of
    marks, in the denominator.

    Structural equality is intentional (expressions are table keys); equality
    as rational functions is that of their `fraction`s, decided by
    cross-multiplication.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Tuple[XiFactor, ...] = (),
                 denominator: Tuple[XiFactor, ...] = ()):
        for f in numerator + denominator:
            if type(f.exponent) is not int or f.exponent < 1:
                raise ValueError(f"factor exponent must be an int >= 1, got {f.exponent!r}")
            if type(f.plus) is not bool:
                raise ValueError(f"factor plus flag must be a bool, got {f.plus!r}")
        self._freeze(numerator, denominator)

    def fraction(self) -> SeriesFraction:
        """The rational function: the product of the numerator factors over
        the denominator factor list."""
        return SeriesFraction(_times_factors((1,), self.numerator), self.denominator)


def xi(num=(), den=()) -> XiExpression:
    """Convenience constructor: xi([n1, (n2, True), ...], [m1, ...])."""
    return XiExpression(tuple(map(_factor, num)), tuple(map(_factor, den)))


def _factor(f) -> XiFactor:
    if isinstance(f, tuple):  # an XiFactor too
        return XiFactor(f[0], f[1])
    return XiFactor(f, False)


class SeriesFraction:
    """The power series nums(q) / (scale * prod (1 +- q^a)): nums an integer
    tuple, constant term first, factors the (a, plus) pairs, a >= 1, as a xi
    form holds them, and scale a positive int.  Each factor has constant
    term 1, so two are equal exactly when their cross products are, each
    formed by the factor kernel of exact: no polynomial product is needed."""

    __slots__ = ("nums", "factors", "scale")

    def __init__(self, nums: Iterable[int], factors: Iterable = (), scale: int = 1):
        self.nums, self.factors, self.scale = tuple(nums), tuple(factors), scale

    def cross(self, other: "SeriesFraction") -> Tuple[list, list]:
        """Each numerator times the other's scale and the other's factors
        that it lacks, the two padded to one length."""
        mine, theirs = list(self.factors), list(other.factors)
        for f in self.factors:
            if f in theirs:
                mine.remove(f)
                theirs.remove(f)
        a = _times_factors(self.nums, theirs, other.scale)
        b = _times_factors(other.nums, mine, self.scale)
        return a + [0] * (len(b) - len(a)), b + [0] * (len(a) - len(b))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SeriesFraction):
            return NotImplemented
        a, b = self.cross(other)
        return a == b

    def expand(self, order: int) -> PowerSeries:
        """The series to the order: a running sum per factor."""
        _check_order(order)
        out = [*self.nums[: order + 1], *[0] * (order + 1 - len(self.nums))]
        for a, plus in self.factors:
            _divide_factor(out, a, plus)
        return series_from_integers(out, self.scale)


def _times_factors(nums: Sequence[int], factors: Sequence, scale: int = 1) -> list:
    """scale * nums(q) * prod (1 +- q^a) over the (a, plus) factors, in full."""
    out = [v * scale for v in nums] + [0] * sum(a for a, _ in factors)
    for a, plus in factors:
        _times_factor(out, a, plus)
    return out


def fraction_sum(terms: Iterable) -> SeriesFraction:
    """The sum of coef * q^shift * f over the (coef, f, shift) terms, coef an
    int or a Fraction, over the union of the denominators: each term's
    shifted numerator times the factors of the union that it lacks; one
    term with coefficient 1 and shift 0 is its own fraction."""
    terms = [(Fraction(c), f, s) for c, f, s in terms]
    if len(terms) == 1 and terms[0][0] == 1 and terms[0][2] == 0:
        return terms[0][1]
    union = Counter()
    for _, f, _ in terms:
        union |= Counter(f.factors)
    scale = math.lcm(*[c.denominator * f.scale for c, f, _ in terms])
    total = []
    for c, f, shift in terms:
        lacking = list((union - Counter(f.factors)).elements())
        part = _times_factors((0,) * shift + f.nums, lacking,
                              c.numerator * (scale // (c.denominator * f.scale)))
        total = [x + y for x, y in zip_longest(total, part, fillvalue=0)]
    return SeriesFraction(total, union.elements(), scale)


def xi_expand(expr: XiExpression, order: int) -> PowerSeries:
    """Exact series expansion of the rational function to the given order:
    the numerator's product truncated there, over the denominator factors."""
    _check_order(order)
    out = [1] + [0] * order
    for n, plus in expr.numerator:
        _times_factor(out, n, plus)
    return SeriesFraction(out, expr.denominator).expand(order)


# ---------------------------------------------------------------------------
# Poincare series -> theta series -> T series
# ---------------------------------------------------------------------------

def _integer_counts(counts: PowerSeries, order: int) -> tuple:
    """Validate the loop counts and return them up to the order as ints."""
    _check_order(order)
    if counts.order < order:
        raise ValueError("need loop counts up to the requested order")
    if counts.den != 1:
        raise ValueError("loop counts must be integers")
    if counts.nums[0] != 1:
        raise ValueError("loop count sequence must start at 1")
    return counts.nums[: order + 1]


# The columns of the binomial table are kept up to this order, which is
# cli.MAX_ORDER; a call above it makes its own columns and drops them.
_KEPT_ORDER = 512
_COLUMNS = []


def _binomial_columns(order: int):
    """Columns r = 0..order-1 of the table C(2k, k - r), rows k = r + 1..order
    (the diagonal, C(2k, 0) = 1, left out), each a fresh list made from the
    one before by C(2k, k - r - 1) = C(2k, k - r) (k - r) / (k + r + 1)."""
    col = list(map(math.comb, range(2, 2 * order + 1, 2), range(1, order + 1)))
    for r in range(order):
        yield col
        col = list(map(floordiv, map(mul, col[1:], range(2, order - r + 1)),
                       range(2 * r + 3, order + r + 2)))


def theta_from_poincare_formula(counts: PowerSeries, order: int) -> PowerSeries:
    """Theta coefficients from the loop counts by the binomial moment identity
    c_k = C(2k, k) m_0 + sum_(r=1..k) C(2k, k - r) m_r, m_0 = c_0, which is
    (2cos t)^(2k) = C(2k, k) + sum_r C(2k, k - r) 2cos(2rt) read through the
    loop-count functional; theta_0 = c_0, theta_1 = m_1 + 1, theta_r = m_r.

    The table C(2k, k - r) is unit lower-triangular, so m comes out by
    forward substitution, in integers with no division.  It runs
    right-looking: once m_r is known, m_r times column r is taken off the
    remaining counts in one pass, skipped for m_r = 0 and a plain sum or
    difference for m_r = -1, 1.  The columns depend on no input, so they are
    kept, and rebuilt when a larger order arrives, up to order 512 (0.09 MB
    at order 64, 0.72 MB at 160, 13.1 MB at 512); above it each call makes
    its columns one at a time and drops them, so its memory stays linear in
    the order.  The inverse of the table is the alternating binomial sum
    theta_r = sum_k (-1)^(r-k) 2r/(r+k) C(r+k, r-k) c_k, r >= 1.
    """
    global _COLUMNS
    rest = _integer_counts(counts, order)
    if len(_COLUMNS) < order <= _KEPT_ORDER:
        _COLUMNS = list(_binomial_columns(order))
    cols = _COLUMNS if order <= len(_COLUMNS) else _binomial_columns(order)
    # rest[i:] are the counts of rows r..order less the columns taken off
    out, i = [], 0
    for col in islice(cols, order):
        m = rest[i]
        out.append(m)
        i += 1
        if m == 0:
            continue
        if m == 1:
            rest = list(map(sub, islice(rest, i, None), col))
        elif m == -1:
            rest = list(map(add, islice(rest, i, None), col))
        else:
            rest = list(map(sub, islice(rest, i, None), map(mul, col, repeat(m))))
        i = 0
    out.append(rest[i])
    if order >= 1:
        out[1] += 1
    return series_from_integers(out)


def theta_from_poincare_subst(counts: PowerSeries, order: int) -> PowerSeries:
    """Theta series computed literally: q plus (1-q)/(1+q) times the loop
    generating function F evaluated at g = q/(1+q)^2.

    F(g) is evaluated by Horner's rule in g, h <- c_i + g*h, so no power of g
    is formed; h will still be multiplied by g^i, so only its first
    order - i + 1 terms can reach the result.  The loop keeps the alternating
    form w_n = (-1)^(n+i) h_n, in which dividing by (1+q) is a plain running
    sum, so one step is w <- [(-1)^i c_i] + accumulate(accumulate(w)).  In
    the same form the prefactor is multiplication by (1+q) and one running
    sum.  All of it runs in integers, in O(order^2) additions.
    """
    c = _integer_counts(counts, order)
    w = []
    for i in range(order, -1, -1):
        w = [c[i] if i % 2 == 0 else -c[i]] + list(accumulate(accumulate(w)))
    out = [x if n % 2 == 0 else -x
           for n, x in enumerate(accumulate(map(add, w, [0] + w)))]
    if order >= 1:
        out[1] += 1
    return series_from_integers(out)


def t_from_theta(theta: PowerSeries) -> PowerSeries:
    """(theta - q)/(1 - q) at the same order; a running sum in coefficients."""
    nums = list(theta.nums)
    if theta.order >= 1:
        nums[1] -= theta.den
    return series_from_integers(list(accumulate(nums)), theta.den)


def graph_t_series(counts: PowerSeries, order: int) -> PowerSeries:
    return t_from_theta(theta_from_poincare_subst(counts, order))


def closed_form_fraction(poly: Sequence, n: int, variant: str) -> SeriesFraction:
    """(P(q) +- q^n P(1/q)) / ((1-q)(1 -+ q^n)), P given by its rational
    coefficients, constant term first.

    The unprimed variant takes + and (1 - q^n); the primed variant takes -
    and (1 + q^n).  Requires deg P < n and P(0) = 1, which makes the
    numerator a genuine polynomial; deg P is the index of the last nonzero
    coefficient.  The numerator is written straight into an integer list
    over the common denominator of P, coefficient s of P at s and, with the
    sign, at n - s.
    """
    if variant not in ("unprimed", "primed"):
        raise ValueError(f"unknown variant {variant!r}")
    degree = max((s for s, v in enumerate(poly) if v), default=-1)
    if degree >= n:
        raise DegreeTooLarge(f"deg {degree} >= {n}")
    if degree < 0 or poly[0] != 1:
        raise ValueError("polynomial must have constant term 1")
    sign = 1 if variant == "unprimed" else -1
    nums, den = _over_lcm(poly[: degree + 1])
    out = [0] * (n + 1)
    for s, v in enumerate(nums):
        out[s] += v
        out[n - s] += sign * v
    return SeriesFraction(out, ((1, False), (n, variant == "primed")), den)


# ---------------------------------------------------------------------------
# The closed-form T table for the ten families
# ---------------------------------------------------------------------------

_EXCEPTIONAL_T = {
    "E6": xi([8], [3, (6, True)]),
    "E7": xi([12], [4, (9, True)]),
    "E8": xi([(5, True), (9, True)], [(15, True)]),
    "E6tilde": xi([(6, True)], [3, 4]),
    "E7tilde": xi([(9, True)], [4, 6]),
    "E8tilde": xi([(15, True)], [6, 10]),
}


def theorem_2_5_lookup(family: GraphFamily) -> XiExpression:
    """The closed-form T series of the family as a xi expression."""
    tag, m = family.tag, family.param
    if tag == "A":
        return xi([m], [m + 1])
    if tag == "D":
        return xi([(m - 2, True)], [(m - 1, True)])
    if tag == "Atilde":
        n = m // 2
        return xi([(n, True)], [n, 1])
    if tag == "Dtilde":
        n = m - 2
        return xi([(n + 1, True)], [n, 2])
    return _EXCEPTIONAL_T[tag]
