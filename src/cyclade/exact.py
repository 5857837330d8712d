"""Exact arithmetic substrate: cyclotomic polynomials, truncated power
series, and cyclotomic field elements in canonically reduced form.

Everything here is immutable and pure.  Rational numbers are
``fractions.Fraction``; cyclotomic field
elements are coordinate vectors over the power basis of the N-th cyclotomic
field, reduced modulo the N-th cyclotomic polynomial.  Cyclotomic numbers
and power series store their coordinates as integers over one positive
denominator in lowest terms, so structural equality decides field equality;
``.coeffs`` derives the Fractions.  A polynomial is the tuple of its
coefficients, constant term first (ints for a cyclotomic polynomial); all
arithmetic, polynomial arithmetic included, runs on integer lists over one
denominator.  The two classes, and the measures of the measures module,
share one set of operators, and one in-place kernel multiplies or divides
such a list by (1 +- q^d): the Mobius product of cyclotomic_poly, and the
xi forms, closed forms and series fractions of transforms, whose cross
products it forms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple


class NotRational(ArithmeticError):
    """A cyclotomic number expected to be rational has irrational parts."""


class ZeroConstantTerm(ArithmeticError):
    """Series inversion needs a nonzero constant term."""


class NonzeroConstantTerm(ArithmeticError):
    """Series composition needs the inner series to vanish at 0."""


class OrderMismatch(ValueError):
    """Truncated series of different orders were compared."""


def _check_order(value: int, name: str = "order") -> None:
    """The one refusal of a negative order, or of a negative power of q."""
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")


# ---------------------------------------------------------------------------
# Cyclotomic polynomials
# ---------------------------------------------------------------------------

def _mobius_pairs(order: int) -> List[Tuple[int, int]]:
    """(q, mu(q)) for the squarefree divisors q of order, 1 first."""
    pairs = [(1, 1)]
    for p in range(2, order + 1):
        if order % p == 0 and all(p % f for f in range(2, p)):
            pairs += [(q * p, -mu) for q, mu in pairs]
    return pairs


@lru_cache(maxsize=None)
def cyclotomic_poly(order: int) -> Tuple[int, ...]:
    """The monic polynomial whose roots are the primitive order-th roots of
    unity, as its integer coefficients, constant term first.

    For order > 1 it is the product of (1 - x^d)^mu(order/d) over the
    divisors d, a polynomial of degree phi(order).  Only the d with
    order/d squarefree contribute, and the product runs in integers as power
    series truncated at that degree, by the (1 +- x^d) factor kernel that
    the xi forms share.
    """
    if order == 1:
        return (-1, 1)
    out = [1] + [0] * euler_phi(order)
    for q, mu in _mobius_pairs(order):
        (_times_factor if mu == 1 else _divide_factor)(out, order // q, False)
    return tuple(out)


def _times_factor(out: list, d: int, plus: bool) -> None:
    """out <- out * (1 +- q^d) in place, + if plus, truncated at its
    length: a difference with stride d, from the top down."""
    sign = 1 if plus else -1
    for i in range(len(out) - 1, d - 1, -1):
        out[i] += sign * out[i - d]


def _divide_factor(out: list, d: int, plus: bool) -> None:
    """out <- out / (1 +- q^d) in place, + if plus, truncated at its
    length: a running sum with stride d."""
    sign = -1 if plus else 1
    for i in range(d, len(out)):
        out[i] += sign * out[i - d]


@lru_cache(maxsize=None)
def euler_phi(order: int) -> int:
    """The number of k in 1..order coprime to order, sum mu(q) order/q."""
    if order < 1:
        raise ValueError("order must be positive")
    return sum(mu * (order // q) for q, mu in _mobius_pairs(order))


@lru_cache(maxsize=None)
def _reduction_rows(order: int):
    """Canonical coordinates of each power of the primitive root.

    Row e lists the nonzero coordinates (i, c) of the e-th power in the
    power basis, for e up to max(order - 1, 2*phi - 2), which covers
    products of two reduced elements as well as exponent wrap-around.  The
    cyclotomic polynomial is monic with integer coefficients, so every c is
    an int.
    """
    phi = euler_phi(order)
    tail = cyclotomic_poly(order)[:phi]
    top = max(order - 1, 2 * phi - 2)
    dense = [[int(i == e) for i in range(phi)] for e in range(phi)]
    for e in range(phi, top + 1):
        prev = dense[e - 1]
        row = [0] + prev[: phi - 1]
        over = prev[phi - 1]
        if over:
            for i in range(phi):
                row[i] -= over * tail[i]
        dense.append(row)
    return tuple(tuple((i, c) for i, c in enumerate(row) if c) for row in dense)


_ZERO = Fraction(0)


def _over_lcm(values: Iterable) -> Tuple[list, int]:
    """Rationals as integers over their least common denominator."""
    fs = list(values)
    if not fs or type(fs[0]) is int and all(type(v) is int for v in fs):
        return fs, 1
    fs = [v if type(v) is Fraction else Fraction(v) for v in fs]
    den = math.lcm(*[f.denominator for f in fs])
    return [f.numerator * (den // f.denominator) for f in fs], den


class _IntegersOverDenominator:
    """Storage shared by CyclotomicNumber, PowerSeries and
    measures.CyclotomicMeasure: the coordinates are the integers nums over
    one positive denominator den, with gcd(den, *nums) = 1, so the stored
    form is canonical and equal values have equal fields.  It defines ==
    and + - * and their reflected forms once, on two hooks of each class:
    _align(other) gives both operands in one form, or None for an operand
    of another type, and _product multiplies two aligned ones; an int or a
    Fraction scales any of them."""

    __slots__ = ("order", "nums", "den")

    def _fill(self, order: int, coeffs: Iterable, size: int) -> None:
        """The public constructors: any rationals, size of them."""
        nums, den = _over_lcm(coeffs)
        if len(nums) != size:
            raise ValueError(f"need {size} coordinates at order {order}, got {len(nums)}")
        self.order, self.nums, self.den = order, tuple(nums), den

    @property
    def coeffs(self) -> tuple:
        """The coordinates as Fractions, derived on each read."""
        den = self.den
        return tuple([Fraction(v, den) if v else _ZERO for v in self.nums])

    def __eq__(self, other) -> bool:
        """Equal stored fields once aligned; only series can be left at two
        orders, and comparing them raises OrderMismatch."""
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        if a.order != b.order:
            raise OrderMismatch(f"comparing order {a.order} with {b.order}")
        return a.nums == b.nums and a.den == b.den

    __hash__ = None  # equality lifts across orders; use .coeffs at a fixed order as a key

    def __neg__(self):
        return _normalized(type(self), self.order, [-v for v in self.nums], self.den)

    def _plus(self, other, sign: int = 1):
        """self + sign * other over the lcm of the denominators; zip keeps
        the shorter length, for series the smaller order."""
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        return _normalized(type(self), min(self.order, other.order),
                           [x * fa + y * fb for x, y in zip(self.nums, other.nums)], den)

    def __add__(self, other):
        pair = self._align(other)
        return NotImplemented if pair is None else pair[0]._plus(pair[1])

    __radd__ = __add__

    def __sub__(self, other):
        pair = self._align(other)
        return NotImplemented if pair is None else pair[0]._plus(pair[1], -1)

    def __rsub__(self, other):
        pair = self._align(other)
        return NotImplemented if pair is None else pair[1]._plus(pair[0], -1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _normalized(type(self), self.order, [v * other.numerator for v in self.nums],
                               self.den * other.denominator)
        pair = self._align(other)
        return NotImplemented if pair is None else pair[0]._product(pair[1])

    __rmul__ = __mul__


def _normalized(cls, order: int, nums, den: int):
    """The internal constructor of the three classes: nums / den, divided by the
    gcd of den and nums and with den made positive; the length of nums is
    the caller's to get right."""
    if den != 1:
        g = math.gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums = [v // g for v in nums]
            den //= g
    z = object.__new__(cls)
    z.order = order
    z.nums = tuple(nums)
    z.den = den
    return z


# ---------------------------------------------------------------------------
# Cyclotomic numbers
# ---------------------------------------------------------------------------

class CyclotomicNumber(_IntegersOverDenominator):
    """An element of the field of order-th roots of unity.

    Coordinates are over the power basis of length phi(order) and are always
    canonically reduced, so equality of coordinates is equality in the field.
    Operands at different orders are lifted to the least common order first.
    """

    __slots__ = ()

    def __init__(self, order: int, coeffs: Sequence):
        """Public constructor: takes any rationals and checks the length;
        arithmetic inside this module builds through _normalized."""
        self._fill(order, coeffs, euler_phi(order))

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def is_real(self) -> bool:
        return self == cyclo_conj(self)

    def _align(self, other):
        """Both operands at their least common order, a rational read at
        the order of self; None for an operand of another type."""
        if isinstance(other, (int, Fraction)):
            return self, _cyclo_rational(self.order, other.numerator, other.denominator)
        if not isinstance(other, CyclotomicNumber):
            return None
        if self.order == other.order:
            return self, other
        m = math.lcm(self.order, other.order)
        return cyclo_embed(self, m), cyclo_embed(other, m)

    def _product(self, other) -> "CyclotomicNumber":
        ys = [(j, y) for j, y in enumerate(other.nums) if y]
        conv = [0] * (2 * euler_phi(self.order) - 1)
        for i, x in enumerate(self.nums):
            if x:
                for j, y in ys:
                    conv[i + j] += x * y
        return cyclo_from_integers(self.order, enumerate(conv), self.den * other.den)

    def numeric(self, dps: int = 30):
        """Complex value at the given working precision (mpmath)."""
        import mpmath  # kept off the import path: only decimal display needs it

        with mpmath.workdps(dps):
            total = mpmath.mpc(0)
            for j, c in enumerate(self.coeffs):
                if c:
                    total += mpmath.mpf(c.numerator) / c.denominator * mpmath.root(1, self.order, j)
            return total

    def __repr__(self):
        return f"CyclotomicNumber(order={self.order}, coeffs={[str(c) for c in self.coeffs]})"


def cyclo_make(order: int, exponent_weights: Mapping[int, object]) -> CyclotomicNumber:
    """Weighted sum of powers of the primitive order-th root, reduced."""
    nums, den = _over_lcm(exponent_weights.values())
    return cyclo_from_integers(order, zip(exponent_weights, nums), den)


def cyclo_from_integers(order: int, terms: Iterable[Tuple[int, int]],
                        denominator: int) -> CyclotomicNumber:
    """The sum of v/denominator times the e-th power of the primitive root
    over the pairs (e, v), reduced in integer arithmetic: the exact core
    under cyclo_make, products, embedding, conjugation and moments."""
    rows = _reduction_rows(order)
    out = [0] * euler_phi(order)
    for e, v in terms:
        if v:
            for i, c in rows[e % order]:
                out[i] += v * c
    return _normalized(CyclotomicNumber, order, out, denominator)


def _cyclo_rational(order: int, num: int, den: int = 1) -> CyclotomicNumber:
    """num / den, den > 0, in the order-th field, in lowest terms: no Fraction made."""
    g = math.gcd(num, den)
    z = object.__new__(CyclotomicNumber)
    z.order, z.nums, z.den = order, (num // g,) + (0,) * (euler_phi(order) - 1), den // g
    return z


def cyclo_embed(z: CyclotomicNumber, order: int) -> CyclotomicNumber:
    """The same field element expressed at a multiple of its order."""
    if order % z.order != 0:
        raise ValueError(f"{order} is not a multiple of order {z.order}")
    if order == z.order:
        return z
    step = order // z.order
    return cyclo_from_integers(order, [(j * step, v) for j, v in enumerate(z.nums) if v], z.den)


def cyclo_conj(z: CyclotomicNumber) -> CyclotomicNumber:
    """Complex conjugation, the field automorphism zeta -> zeta^-1 of
    Q(zeta_N), reduced at the order of z.  It fixes exactly the real
    elements, the rationals among them, so `is_real` is z == cyclo_conj(z)
    and z + cyclo_conj(z) is twice the real part of z."""
    n = z.order
    return cyclo_from_integers(n, [((n - j) % n, v) for j, v in enumerate(z.nums) if v], z.den)


def cyclo_as_rational(z: CyclotomicNumber) -> Fraction:
    """The rational value of z, or NotRational if z is not in the prime field."""
    if not z.is_rational():
        raise NotRational(f"nonzero non-constant coordinates in {z!r}")
    return Fraction(z.nums[0], z.den)


# ---------------------------------------------------------------------------
# Truncated power series over Q
# ---------------------------------------------------------------------------

class PowerSeries(_IntegersOverDenominator):
    """Power series truncated at an explicit order (inclusive).

    Arithmetic truncates to the smaller order of its operands, and both it
    and == read a rational as the constant series; comparing two series of
    different orders raises OrderMismatch.
    """

    __slots__ = ()

    def __init__(self, order: int, coeffs: Iterable):
        """Public constructor: takes any rationals and checks the length;
        arithmetic inside this module builds through _normalized."""
        _check_order(order)
        self._fill(order, coeffs, order + 1)

    @classmethod
    def from_list(cls, coeffs: Sequence, order: Optional[int] = None) -> "PowerSeries":
        if order is None:
            order = len(coeffs) - 1
        cs = list(coeffs[: order + 1])
        cs += [0] * (order + 1 - len(cs))
        return cls(order, cs)

    @classmethod
    def zero(cls, order: int) -> "PowerSeries":
        _check_order(order)
        return series_from_integers([0] * (order + 1))

    def _align(self, other):
        """A rational is read as the constant series of the order of self;
        None for an operand of another type."""
        if isinstance(other, (int, Fraction)):
            return self, series_from_integers([other.numerator] + [0] * self.order,
                                              other.denominator)
        return (self, other) if isinstance(other, PowerSeries) else None

    def _product(self, other) -> "PowerSeries":
        k = min(self.order, other.order)
        ys = [(j, y) for j, y in enumerate(other.nums[: k + 1]) if y]
        out = [0] * (k + 1)
        for i, x in enumerate(self.nums[: k + 1]):
            if x:
                for j, y in ys:
                    if i + j > k:
                        break
                    out[i + j] += x * y
        return series_from_integers(out, self.den * other.den)

    def shift(self, k: int) -> "PowerSeries":
        """Multiply by q**k, k >= 0, truncating at the same order."""
        _check_order(k, "power")
        return series_from_integers(([0] * k + list(self.nums))[: self.order + 1], self.den)

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order > 7 else ""
        return f"PowerSeries(order={self.order}, [{head}{tail}])"


def series_from_integers(nums: Sequence[int], denominator: int = 1) -> PowerSeries:
    """The series with coefficients v/denominator over nums, of order
    len(nums) - 1: the series twin of cyclo_from_integers."""
    return _normalized(PowerSeries, len(nums) - 1, nums, denominator)


def series_invert(s: PowerSeries) -> PowerSeries:
    """The multiplicative inverse up to the order of s."""
    a = s.nums
    if a[0] == 0:
        raise ZeroConstantTerm("cannot invert a series with zero constant term")
    # 1/s = den/A for the integer series A = a; the coefficient t_i of 1/A is
    # T_i / a0^(i+1) with T_0 = 1 and T_i = -sum_j a_j T_(i-j) a0^(j-1)
    powers = [a[0] ** e for e in range(s.order + 2)]
    t = [1]
    for i in range(1, s.order + 1):
        t.append(-sum(a[j] * t[i - j] * powers[j - 1] for j in range(1, i + 1) if a[j]))
    return series_from_integers([s.den * v * powers[s.order - i] for i, v in enumerate(t)],
                                powers[s.order + 1])


@lru_cache(maxsize=8)
def _inner_powers(coeffs: tuple, order: int):
    g = PowerSeries(order, coeffs)
    powers = [series_from_integers([1] + [0] * order)]
    for _ in range(order):
        powers.append(powers[-1] * g)
    return tuple(powers)


def series_compose(f: PowerSeries, g: PowerSeries) -> PowerSeries:
    """f(g(q)) truncated to the common order; g must vanish at 0."""
    if g.nums[0] != 0:
        raise NonzeroConstantTerm("inner series must have zero constant term")
    k = min(f.order, g.order)
    powers = _inner_powers(g.coeffs[: k + 1], k)
    used = [i for i, c in enumerate(f.nums[: k + 1]) if c]
    den = math.lcm(*[powers[i].den for i in used])
    out = [0] * (k + 1)
    for i in used:
        # g**i has valuation i, so only the first k - i + 1 terms matter
        c, pc = f.nums[i] * (den // powers[i].den), powers[i].nums
        for j in range(i, k + 1):
            if pc[j]:
                out[j] += c * pc[j]
    return series_from_integers(out, den * f.den)


# ---------------------------------------------------------------------------
# Exact linear algebra
# ---------------------------------------------------------------------------

def _solve_columns(cols: Sequence[Sequence[int]], rhs: Sequence[int],
                   den: int) -> Optional[list]:
    """Solve A x = rhs / den, A given by its integer columns, by one
    fraction-free Gaussian elimination.

    Each column, followed by its integer combination of the columns, is
    reduced against the pivot vectors found so far by cross-multiplication,
    then divided by its content; a nonzero remainder becomes a pivot, so a
    column is a pivot exactly when it is independent of those before it.
    rhs / den is then reduced against the pivots in column order, keeping
    rhs / den = A x + residual with x in Fractions, by cross-multiplication,
    then division by the gcd with the denominator.

    Returns the canonical solution, Fractions with the free variables zero
    and the greedy pivot columns carrying the coefficients, or None when
    the residual is not zero.  Pivots come in column order, so a consistent
    prefix's solution, padded with zeros, is every longer system's.  The
    solution depends only on the linear relations among the columns and
    rhs, and any injective Q-linear map of the rows leaves it unchanged.
    """
    pivots = []  # (pivot row, vector then its combination of the columns)
    for j, col in enumerate(cols):
        vec = [*col, *[0] * j, 1]
        for row, pvec in pivots:
            a = vec[row]
            if a:
                g = math.gcd(a, pvec[row])
                a, b = a // g, pvec[row] // g
                vec = [b * v - a * w for v, w in zip_longest(vec, pvec, fillvalue=0)]
        row = next((i for i in range(len(col)) if vec[i]), None)
        if row is not None:
            g = math.gcd(*vec)
            pivots.append((row, [v // g for v in vec]))
    size, x = len(rhs), [_ZERO] * len(cols)
    for row, vec in pivots:
        r, p = rhs[row], vec[row]
        if r:
            # rhs - (r / (den p)) times the pivot vector and its combination
            den *= p
            for j, c in enumerate(vec[size:]):
                if c:
                    x[j] += Fraction(r * c, den)
            rhs = [p * v - r * w for v, w in zip(rhs, vec)]
            g = math.gcd(den, *rhs) * (1 if den > 0 else -1)
            rhs, den = [v // g for v in rhs], den // g
    return None if any(rhs) else x


def solve_linear_system(rows: Sequence[Sequence[Fraction]],
                        rhs: Sequence[Fraction]) -> Optional[list]:
    """Solve A x = b over the rationals by _solve_columns, each column
    scaled to integers and the solution scaled back: the canonical
    solution, or None when the system is inconsistent; no rows give [].
    """
    cols = [_over_lcm(col) for col in zip(*rows)]
    x = _solve_columns([col for col, _ in cols], *_over_lcm(rhs))
    return None if x is None else [v * scale for v, (_, scale) in zip(x, cols)]
