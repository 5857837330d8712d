"""Exact arithmetic substrate: rational polynomials as coefficient records,
truncated power series, and cyclotomic field elements in canonically
reduced form.

Everything here is immutable and pure.  Rational numbers are
``fractions.Fraction`` (re-exported as ``Rational``); cyclotomic field
elements are coordinate vectors over the power basis of the N-th cyclotomic
field, reduced modulo the N-th cyclotomic polynomial.  Cyclotomic numbers
and power series store their coordinates as integers over one positive
denominator in lowest terms, so structural equality decides field equality;
``.coeffs`` derives the Fractions.  A polynomial is only a record of its
coefficients: all arithmetic, polynomial arithmetic included, runs on
integer lists over one denominator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Optional, Sequence, Tuple

import mpmath

Rational = Fraction


class NotRational(ArithmeticError):
    """A cyclotomic number expected to be rational has irrational parts."""


class ZeroConstantTerm(ArithmeticError):
    """Series inversion needs a nonzero constant term."""


class NonzeroConstantTerm(ArithmeticError):
    """Series composition needs the inner series to vanish at 0."""


class OrderMismatch(ValueError):
    """Truncated series of different orders were compared."""


# ---------------------------------------------------------------------------
# Polynomials over Q
# ---------------------------------------------------------------------------

class QPolynomial:
    """Dense rational coefficients, constant term first: a plain value with
    no arithmetic, read by its consumers through ``coeffs``.

    Trailing zeros are stripped on construction; the zero polynomial has an
    empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if isinstance(other, QPolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"QPolynomial({list(self.coeffs)!r})"


@lru_cache(maxsize=None)
def cyclotomic_poly(order: int) -> QPolynomial:
    """The monic polynomial whose roots are the primitive order-th roots of
    unity.

    For order > 1 it is the product of (1 - x^d)^mu(order/d) over the
    divisors d, a polynomial of degree phi(order).  Only the d with
    order/d squarefree contribute, and the product runs in integers as power
    series truncated at that degree: multiplying by 1 - x^d is a difference
    and dividing by it a running sum with stride d.
    """
    if order < 1:
        raise ValueError("order must be positive")
    if order == 1:
        return QPolynomial([-1, 1])
    primes = [p for p in range(2, order + 1)
              if order % p == 0 and all(p % f for f in range(2, p))]
    phi = order
    for p in primes:
        phi = phi // p * (p - 1)
    mobius = [(1, 1)]  # (q, mu(q)) for the squarefree divisors q
    for p in primes:
        mobius += [(q * p, -mu) for q, mu in mobius]
    out = [1] + [0] * phi
    for q, mu in mobius:
        d = order // q
        if d > phi:
            continue
        if mu == 1:
            for i in range(phi, d - 1, -1):
                out[i] -= out[i - d]
        else:
            for i in range(d, phi + 1):
                out[i] += out[i - d]
    return QPolynomial(out)


@lru_cache(maxsize=None)
def euler_phi(order: int) -> int:
    return cyclotomic_poly(order).degree


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
    tail = [int(c) for c in cyclotomic_poly(order).coeffs[:phi]]
    top = max(order - 1, 2 * phi - 2)
    dense = []
    for e in range(phi):
        row = [0] * phi
        row[e] = 1
        dense.append(row)
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
    fs = [v if type(v) is Fraction else Fraction(v) for v in values]
    den = math.lcm(*[f.denominator for f in fs])
    return [f.numerator * (den // f.denominator) for f in fs], den


class _IntegersOverDenominator:
    """Storage shared by CyclotomicNumber and PowerSeries: the coordinates
    are the integers nums over one positive denominator den, with
    gcd(den, *nums) = 1, so the stored form is canonical and equal values
    have equal fields."""

    __slots__ = ("order", "nums", "den")

    def _fill(self, order: int, coeffs: Iterable, size: int) -> None:
        """The public constructors: any rationals, size of them."""
        nums, den = _over_lcm(coeffs)
        if order < 0 or len(nums) != size:
            raise ValueError(f"need {size} coordinates at order {order}, got {len(nums)}")
        self.order, self.nums, self.den = order, tuple(nums), den

    @property
    def coeffs(self) -> tuple:
        """The coordinates as Fractions, derived on each read."""
        den = self.den
        return tuple([Fraction(v, den) if v else _ZERO for v in self.nums])

    def __neg__(self):
        return _normalized(type(self), self.order, [-v for v in self.nums], self.den)

    def _plus(self, other, sign: int = 1):
        """self + sign * other over the lcm of the denominators; zip keeps
        the shorter length, for series the smaller order."""
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        return _normalized(type(self), min(self.order, other.order),
                           [x * fa + y * fb for x, y in zip(self.nums, other.nums)], den)

    def _times_rational(self, value):
        f = Fraction(value)
        return _normalized(type(self), self.order, [v * f.numerator for v in self.nums],
                           self.den * f.denominator)


def _normalized(cls, order: int, nums, den: int):
    """The internal constructor of both classes: nums / den, divided by the
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

    @classmethod
    def from_rational(cls, value, order: int = 1) -> "CyclotomicNumber":
        v = Fraction(value)
        return _normalized(cls, order, (v.numerator,) + (0,) * (euler_phi(order) - 1),
                           v.denominator)

    @classmethod
    def zero(cls, order: int = 1) -> "CyclotomicNumber":
        return cls.from_rational(0, order)

    @classmethod
    def one(cls, order: int = 1) -> "CyclotomicNumber":
        return cls.from_rational(1, order)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def is_real(self) -> bool:
        return self == cyclo_conj(self)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CyclotomicNumber.from_rational(other, 1)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        a, b = _common_order(self, other)
        return a.nums == b.nums and a.den == b.den

    __hash__ = None  # equality lifts across orders; use .coeffs at a fixed order as a key

    def __add__(self, other) -> "CyclotomicNumber":
        other = _as_cyclo(other)
        if other is None:
            return NotImplemented
        a, b = _common_order(self, other)
        return a._plus(b)

    __radd__ = __add__

    def __sub__(self, other) -> "CyclotomicNumber":
        other = _as_cyclo(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "CyclotomicNumber":
        other = _as_cyclo(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "CyclotomicNumber":
        if isinstance(other, (int, Fraction)):
            return self._times_rational(other)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        a, b = _common_order(self, other)
        ys = [(j, y) for j, y in enumerate(b.nums) if y]
        conv = [0] * (2 * euler_phi(a.order) - 1)
        for i, x in enumerate(a.nums):
            if x:
                for j, y in ys:
                    conv[i + j] += x * y
        return cyclo_from_integers(a.order, enumerate(conv), a.den * b.den)

    __rmul__ = __mul__

    def numeric(self, dps: int = 30):
        """Complex value at the given working precision (mpmath)."""
        with mpmath.workdps(dps):
            total = mpmath.mpc(0)
            for j, c in enumerate(self.coeffs):
                if c:
                    total += mpmath.mpf(c.numerator) / c.denominator * mpmath.root(1, self.order, j)
            return total

    def __repr__(self):
        return f"CyclotomicNumber(order={self.order}, coeffs={[str(c) for c in self.coeffs]})"


def _as_cyclo(x) -> Optional[CyclotomicNumber]:
    if isinstance(x, CyclotomicNumber):
        return x
    if isinstance(x, (int, Fraction)):
        return CyclotomicNumber.from_rational(x, 1)
    return None


def _common_order(a: CyclotomicNumber, b: CyclotomicNumber):
    if a.order == b.order:
        return a, b
    m = math.lcm(a.order, b.order)
    return cyclo_embed(a, m), cyclo_embed(b, m)


def cyclo_make(order: int, exponent_weights: Mapping[int, object]) -> CyclotomicNumber:
    """Weighted sum of powers of the primitive order-th root, reduced."""
    if order < 1:
        raise ValueError("order must be positive")
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


def root_of_unity(order: int, exponent: int = 1) -> CyclotomicNumber:
    return cyclo_make(order, {exponent: 1})


def cyclo_embed(z: CyclotomicNumber, order: int) -> CyclotomicNumber:
    """The same field element expressed at a multiple of its order."""
    if order % z.order != 0:
        raise ValueError(f"{order} is not a multiple of order {z.order}")
    if order == z.order:
        return z
    step = order // z.order
    return cyclo_from_integers(order, [(j * step, v) for j, v in enumerate(z.nums) if v], z.den)


def cyclo_conj(z: CyclotomicNumber) -> CyclotomicNumber:
    """Complex conjugation: the automorphism sending the root to its inverse."""
    n = z.order
    return cyclo_from_integers(n, [((n - j) % n, v) for j, v in enumerate(z.nums) if v], z.den)


def cyclo_as_rational(z: CyclotomicNumber) -> Fraction:
    """The rational value of z, or NotRational if z is not in the prime field."""
    if not z.is_rational():
        raise NotRational(f"nonzero non-constant coordinates in {z!r}")
    return Fraction(z.nums[0], z.den)


def sign_of_real(z: CyclotomicNumber) -> int:
    """Sign of a real cyclotomic number: exact zero test first, then a
    guarded high-precision evaluation (raises if the magnitude cannot be
    separated from zero, which does not happen for the weights in scope)."""
    if z.is_zero():
        return 0
    if not z.is_real():
        raise ValueError("sign is defined for real elements only")
    with mpmath.workdps(60):
        v = mpmath.re(z.numeric(dps=60))
        if abs(v) < mpmath.mpf("1e-40"):
            raise ArithmeticError("cannot certify sign numerically")
        return 1 if v > 0 else -1


# ---------------------------------------------------------------------------
# Truncated power series over Q
# ---------------------------------------------------------------------------

class PowerSeries(_IntegersOverDenominator):
    """Power series truncated at an explicit order (inclusive).

    Arithmetic truncates to the smaller order of its operands; comparing two
    series of different orders raises OrderMismatch.
    """

    __slots__ = ()

    def __init__(self, order: int, coeffs: Iterable):
        """Public constructor: takes any rationals and checks the length;
        arithmetic inside this module builds through _normalized."""
        self._fill(order, coeffs, order + 1)

    @classmethod
    def from_list(cls, coeffs: Sequence, order: Optional[int] = None) -> "PowerSeries":
        if order is None:
            order = len(coeffs) - 1
        cs = list(coeffs[: order + 1])
        cs += [Fraction(0)] * (order + 1 - len(cs))
        return cls(order, cs)

    @classmethod
    def zero(cls, order: int) -> "PowerSeries":
        return series_from_integers([0] * (order + 1))

    @classmethod
    def one(cls, order: int) -> "PowerSeries":
        return cls.from_list([1], order)

    @classmethod
    def monomial(cls, k: int, order: int) -> "PowerSeries":
        cs = [0] * (order + 1)
        if k <= order:
            cs[k] = 1
        return series_from_integers(cs)

    def truncate(self, order: int) -> "PowerSeries":
        if order > self.order:
            raise OrderMismatch(f"cannot extend order {self.order} to {order}")
        return series_from_integers(self.nums[: order + 1], self.den)

    def __getitem__(self, i: int) -> Fraction:
        return Fraction(self.nums[i], self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        if self.order != other.order:
            raise OrderMismatch(f"comparing order {self.order} with {other.order}")
        return self.nums == other.nums and self.den == other.den

    __hash__ = None

    def _combine(self, other, sign: int) -> "PowerSeries":
        if isinstance(other, (int, Fraction)):
            other = PowerSeries.from_list([other], self.order)
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self._plus(other, sign)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._times_rational(other)
        if not isinstance(other, PowerSeries):
            return NotImplemented
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

    __rmul__ = __mul__

    def shift(self, k: int) -> "PowerSeries":
        """Multiply by q**k, truncating at the same order."""
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
    powers = [PowerSeries.one(order)]
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

class _ColumnElimination:
    """Gaussian elimination of A x = b fed one column of A at a time, so a
    caller can ask for a solution after any prefix of the columns.

    Columns and b map row keys to values.  A column is reduced against the
    pivot vectors kept so far, each stored with its combination of the
    columns; a nonzero remainder becomes a new pivot, and b is reduced
    against it at once, keeping b = A x + residual.
    """

    def __init__(self, rhs: Mapping):
        self._ncols = 0
        self._pivots: list = []  # (pivot row, vector, its combination of the columns)
        self._residual = {k: v for k, v in rhs.items() if v}
        self._x: dict = {}

    def add_column(self, col: Mapping) -> None:
        vec = {k: v for k, v in col.items() if v}
        combo = {self._ncols: Fraction(1)}
        self._ncols += 1
        for row, pvec, pcombo in self._pivots:
            if row in vec:
                f = vec[row] / pvec[row]
                _subtract_multiple(vec, f, pvec)
                _subtract_multiple(combo, f, pcombo)
        if vec:
            row = next(iter(vec))
            coord = self._residual.get(row, _ZERO) / vec[row]
            _subtract_multiple(self._residual, coord, vec)
            _subtract_multiple(self._x, -coord, combo)
            self._pivots.append((row, vec, combo))

    def solution(self) -> Optional[list]:
        """The canonical solution over the columns added so far, free
        variables zero, or None while the system is inconsistent."""
        if self._residual:
            return None
        return [self._x.get(j, _ZERO) for j in range(self._ncols)]


def _subtract_multiple(vec: dict, f, other: Mapping) -> None:
    """vec -= f * other in place, dropping the entries that become zero."""
    for k, v in other.items():
        w = vec.get(k, _ZERO) - f * v
        if w:
            vec[k] = w
        else:
            vec.pop(k, None)


def solve_linear_system(rows: Sequence[Sequence[Fraction]],
                        rhs: Sequence[Fraction]) -> Optional[list]:
    """Solve A x = b over the rationals by column-at-a-time elimination.

    Returns the canonical solution, Fractions with the free variables zero
    and the greedy pivot columns carrying the coefficients, or None when the
    system is inconsistent; no rows give [].
    """
    elim = _ColumnElimination({i: Fraction(rhs[i]) for i in range(len(rows))})
    for j in range(len(rows[0]) if rows else 0):
        elim.add_column({i: Fraction(row[j]) for i, row in enumerate(rows)})
    return elim.solution()
