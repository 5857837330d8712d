"""The loop-count to theta to T pipeline, and the xi calculus of rational
functions built from (1 - q^n) and (1 + q^n) factors."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import add
from typing import NamedTuple, Tuple

from .exact import PowerSeries, QPolynomial, _over_lcm, series_from_integers
from .graphs import GraphFamily, UnsupportedFamily


class DegreeTooLarge(ValueError):
    """Closed-form T needs deg P strictly below the support parameter."""


class XiFactor(NamedTuple):
    exponent: int
    plus: bool  # True for (1 + q^n), False for (1 - q^n)

    def text(self) -> str:
        return f"{self.exponent}+" if self.plus else str(self.exponent)


NORMALIZERS = ("", "prime", "doubleprime")


@dataclass(frozen=True)
class XiExpression:
    """A formal product of (1 +- q^n) factors over another, with an optional
    extra (1 - q) or (1 - q^2) divisor.

    Structural equality is intentional (expressions are table keys); equality
    as rational functions is `equivalent`, decided by series expansion.
    """

    numerator: Tuple[XiFactor, ...] = ()
    denominator: Tuple[XiFactor, ...] = ()
    normalizer: str = ""

    def __post_init__(self):
        if self.normalizer not in NORMALIZERS:
            raise ValueError(f"bad normalizer {self.normalizer!r}")
        for f in self.numerator + self.denominator:
            if f.exponent < 1:
                raise ValueError("factor exponents must be positive")

    def text(self) -> str:
        mark = {"": "", "prime": "'", "doubleprime": "''"}[self.normalizer]
        num = ",".join(f.text() for f in self.numerator)
        den = ",".join(f.text() for f in self.denominator)
        return f"xi{mark}({num}:{den})"

    def equivalent(self, other: "XiExpression", order: int = 64) -> bool:
        return xi_expand(self, order) == xi_expand(other, order)


def xi(*args, **kwargs) -> XiExpression:
    """Convenience constructor: xi([n1, (n2, True), ...], [m1, ...], normalizer)."""
    num, den = (), ()
    if args:
        num = tuple(_factor(f) for f in args[0])
    if len(args) > 1:
        den = tuple(_factor(f) for f in args[1])
    return XiExpression(num, den, kwargs.get("normalizer", ""))


def _factor(f) -> XiFactor:
    if isinstance(f, XiFactor):
        return f
    if isinstance(f, tuple):
        return XiFactor(int(f[0]), bool(f[1]))
    return XiFactor(int(f), False)


def xi_expand(expr: XiExpression, order: int) -> PowerSeries:
    """Exact series expansion of the rational function to the given order."""
    out = [0] * (order + 1)
    out[0] = 1
    for n, plus in expr.numerator:
        sign = 1 if plus else -1
        for i in range(order, n - 1, -1):
            out[i] += sign * out[i - n]
    divisors = [(f.exponent, f.plus) for f in expr.denominator]
    if expr.normalizer == "prime":
        divisors.append((1, False))
    elif expr.normalizer == "doubleprime":
        divisors.append((2, False))
    for n, plus in divisors:
        _divide(out, n, plus)
    return series_from_integers(out)


def _divide(out: list, n: int, plus: bool) -> None:
    """out <- out / (1 +- q^n) in place, truncated at its length: a running
    sum with stride n."""
    sign = -1 if plus else 1
    for i in range(n, len(out)):
        out[i] += sign * out[i - n]


# ---------------------------------------------------------------------------
# Poincare series -> theta series -> T series
# ---------------------------------------------------------------------------

def _scaled_counts(counts: PowerSeries, order: int) -> Tuple[tuple, int]:
    """Validate the loop counts and return (c, D): the counts up to the order
    as the integers c_i = D * counts_i over their denominator D, which is 1
    for genuine loop counts."""
    if counts.order < order:
        raise ValueError("need loop counts up to the requested order")
    if counts.nums[0] != counts.den:
        raise ValueError("loop count sequence must start at 1")
    return counts.nums[: order + 1], counts.den


def theta_from_poincare_formula(counts: PowerSeries, order: int) -> PowerSeries:
    """Theta coefficients from the loop counts via the alternating binomial
    sum, theta_r = sum_k (-1)^(r-k) 2r/(r+k) C(r+k, r-k) c_k.

    Row r of those weights is the coefficient list of V_r(y) = C_r(y - 2),
    where C_r(2cos t) = 2cos(rt): V_0 = 2, V_1 = y - 2 and
    V_(r+1) = (y - 2) V_r - V_(r-1).  So the row sums a_j = sum_k [y^k]V_r
    c_(k+j), for j <= order - r, obey a'_j = a_(j+1) - 2 a_j - a''_j, with a''
    the row before, and theta_r = a_0: additions only, no binomial.

    The variable change behind theta contributes a standalone linear term on
    top of the sum, and the sum's r = 0 term is indeterminate; both boundary
    values are fixed so that this path agrees with the substitution path.
    The sums run in integers over the common denominator of the counts.
    """
    c, d = _scaled_counts(counts, order)
    prev = [x + x for x in c]
    row = [y - x - x for x, y in zip(c, c[1:])]
    out = [c[0]]
    for _ in range(order):
        out.append(row[0])
        row, prev = [y - x - x - z for x, y, z in zip(row, row[1:], prev)], row
    if order >= 1:
        out[1] += d
    return series_from_integers(out, d)


def theta_from_poincare_subst(counts: PowerSeries, order: int) -> PowerSeries:
    """Theta series computed literally: q plus (1-q)/(1+q) times the loop
    generating function F evaluated at g = q/(1+q)^2.

    F(g) is evaluated by Horner's rule in g, h <- c_i + g*h, so no power of g
    is formed; h will still be multiplied by g^i, so only its first
    order - i + 1 terms can reach the result.  The loop keeps the alternating
    form w_n = (-1)^(n+i) h_n, in which dividing by (1+q) is a plain running
    sum, so one step is w <- [(-1)^i c_i] + accumulate(accumulate(w)).  In
    the same form the prefactor is multiplication by (1+q) and one running
    sum.  All of it runs in integers over the common denominator of the
    counts, in O(order^2) additions.
    """
    c, d = _scaled_counts(counts, order)
    w = []
    for i in range(order, -1, -1):
        w = [c[i] if i % 2 == 0 else -c[i]] + list(accumulate(accumulate(w)))
    out = [x if n % 2 == 0 else -x
           for n, x in enumerate(accumulate(map(add, w, [0] + w)))]
    if order >= 1:
        out[1] += d
    return series_from_integers(out, d)


def t_from_theta(theta: PowerSeries) -> PowerSeries:
    """(theta - q)/(1 - q) at the same order; a running sum in coefficients."""
    nums = list(theta.nums)
    if theta.order >= 1:
        nums[1] -= theta.den
    return series_from_integers(list(accumulate(nums)), theta.den)


def graph_t_series(counts: PowerSeries, order: int) -> PowerSeries:
    return t_from_theta(theta_from_poincare_subst(counts, order))


def t_closed_form(poly: QPolynomial, n: int, variant: str,
                  order: int = 64) -> PowerSeries:
    """Expansion of (P(q) +- q^n P(1/q)) / ((1-q)(1 -+ q^n)).

    The unprimed variant takes + and (1 - q^n); the primed variant takes -
    and (1 + q^n).  Requires deg P < n and P(0) = 1, which makes the
    numerator a genuine polynomial.  The numerator is written straight
    into an integer list over the common denominator of P, coefficient s of
    P at s and, with the sign, at n - s; the two divisions are running sums.
    """
    if variant not in ("unprimed", "primed"):
        raise ValueError(f"unknown variant {variant!r}")
    if poly.degree >= n:
        raise DegreeTooLarge(f"deg {poly.degree} >= {n}")
    if poly.is_zero() or poly.coeffs[0] != 1:
        raise ValueError("polynomial must have constant term 1")
    sign = 1 if variant == "unprimed" else -1
    nums, den = _over_lcm(poly.coeffs)
    out = [0] * (order + 1)
    for s, v in enumerate(nums):
        if s <= order:
            out[s] += v
        if n - s <= order:
            out[n - s] += sign * v
    _divide(out, 1, False)
    _divide(out, n, variant == "primed")
    return series_from_integers(out, den)


# ---------------------------------------------------------------------------
# The closed-form T table for the ten families
# ---------------------------------------------------------------------------

def theorem_2_5_lookup(family: GraphFamily) -> XiExpression:
    """The closed-form T series of the family as a xi expression."""
    tag, m = family.tag, family.param
    if tag == "A":
        if m < 2:
            raise UnsupportedFamily("A table needs at least 2 vertices")
        return xi([m], [m + 1])
    if tag == "D":
        if m < 3:
            raise UnsupportedFamily("D table needs at least 3 vertices")
        return xi([(m - 2, True)], [(m - 1, True)])
    if tag == "Atilde":
        if m < 2 or m % 2:
            raise UnsupportedFamily("Atilde table needs an even vertex count")
        n = m // 2
        return xi([(n, True)], [n], normalizer="prime")
    if tag == "Dtilde":
        if m < 4:
            raise UnsupportedFamily("Dtilde table needs parameter >= 4")
        n = m - 2
        return xi([(n + 1, True)], [n], normalizer="doubleprime")
    table = {
        "E6": xi([8], [3, (6, True)]),
        "E7": xi([12], [4, (9, True)]),
        "E8": xi([(5, True), (9, True)], [(15, True)]),
        "E6tilde": xi([(6, True)], [3, 4]),
        "E7tilde": xi([(9, True)], [4, 6]),
        "E8tilde": xi([(15, True)], [6, 10]),
    }
    if tag in table:
        return table[tag]
    raise UnsupportedFamily(f"no T table entry for {tag!r}")
