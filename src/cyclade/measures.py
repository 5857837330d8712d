"""Atomic measures on roots of unity, stored by their even moments.

A measure lives on the N-th roots of unity, N even, and is symmetric under
u -> 1/u and u -> -u.  Every measure built here has rational moments, and it
is stored as one sequence of integers: nums[k] / den is its moment 2k for
k < n, n = N/2, with gcd(den, *nums) = 1 so that equal measures at one
order have equal fields.  Odd moments vanish, as each orbit holds u and -u.
Every atom has u^N = 1 and the measure is symmetric under u -> 1/u, so the
even moments satisfy the reflection identity moment 2(k + n) = moment 2k
and moment 2(n - k) = moment -2k = moment 2k: the stored period gives them
all.  The weights are derived on each read by the inverse transform, one
orbit weight for the atoms u, 1/u, -u and -1/u.

Only display and the weight checks read the weights; all else runs on the
sequences: the uniform measures have closed forms, a density scatters each
nonzero base moment over its coefficients, the T series is the expansion of
one fraction over (1 - q)(1 - q^n), is_probability reads the signs.  A
measure is a value of the operator set that exact gives cyclotomic numbers
and series: == and + - lift two measures to a common period by repeating
their sequences, and an int or a Fraction scales one; a product of two
measures, or a sum with a scalar, is refused.
The one place that validates symmetry and realness is the public
constructor CyclotomicMeasure(N, weights), which takes the full list of N
weights and raises NotRational for a measure with an irrational moment.
Signed and sub-probability measures are first-class, is_probability is a
predicate.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

from ._value import FrozenValue
from .exact import (
    CyclotomicNumber,
    PowerSeries,
    _IntegersOverDenominator,
    cyclo_as_rational,
    cyclo_embed,
    cyclo_from_integers,
    cyclotomic_poly,
    euler_phi,
    _check_order,
    _cyclo_rational,
    _mobius_pairs,
    _normalized,
    _over_lcm,
    _solve_columns,
)
from .transforms import SeriesFraction


class SymmetryViolation(ValueError):
    """Weights are not equal across an atom's four-fold orbit."""


class SupportTooLarge(ValueError):
    """The measure has atoms outside the requested group of roots."""


BASE_KINDS = ("d", "dprime", "ddoubleprime", "dtripleprime")

# the density polynomials P, as their coefficients, constant term first
DENSITY_POLYS = {
    "alpha": (1, -1),
    "beta": (1, 0, -1),
    "gamma": (1, 0, 0, -1),
}

# memo size for basic_measure and density_measure; a registry run uses about
# 310 distinct atoms
ATOM_CACHE_SIZE = 512


class CyclotomicMeasure(_IntegersOverDenominator):
    """Finitely supported measure on the N-th roots of unity, N = order.

    nums[k] / den is the moment 2k for 0 <= k < N/2, in lowest terms; that
    is the whole state, and reps and weight derive the weights on each read.
    """

    __slots__ = ()

    def __init__(self, order: int, weights: Sequence):
        """Build from the full list of N weights, ints, Fractions or
        cyclotomic numbers of an order dividing N, checking that they are
        real and equal on each orbit; NotRational for the first irrational
        moment, as cyclo_as_rational reports it."""
        if order < 2 or order % 2:
            raise ValueError("support order must be even and at least 2")
        if len(weights) != order:
            raise ValueError(f"need {order} weights, got {len(weights)}")
        for j, w in enumerate(weights):
            if not isinstance(w, (int, Fraction, CyclotomicNumber)):
                raise TypeError(f"weight at position {j} is a {type(w).__name__}, "
                                "not an int, a Fraction or a CyclotomicNumber")
            if isinstance(w, CyclotomicNumber) and order % w.order:
                raise ValueError(f"weight at position {j} lies in the field of order "
                                 f"{w.order}, which does not divide {order}")
        ws = [_cyclo_rational(order, w.numerator, w.denominator) if isinstance(w, (int, Fraction))
              else cyclo_embed(w, order) for w in weights]
        n = order // 2
        for j, w in enumerate(ws):
            if not w.is_real():
                raise SymmetryViolation(f"weight at position {j} is not real")
            if w != ws[(-j) % order] or w != ws[(j + n) % order]:
                raise SymmetryViolation(f"orbit of position {j} has unequal weights")
        # moment 2k = sum_j w_j z^(2jk) over the common denominator of the
        # weights, for k <= n/2; the reflection identity gives the rest
        wden = math.lcm(*[w.den for w in ws])
        coords = [(i, j, v * (wden // w.den)) for j, w in enumerate(ws)
                  for i, v in enumerate(w.nums) if v]
        block = [cyclo_as_rational(cyclo_from_integers(
            order, [(i + 2 * j * k, v) for i, j, v in coords], wden))
            for k in range(n // 2 + 1)]
        nums, den = _over_lcm(block[min(k, n - k)] for k in range(n))
        self.order, self.nums, self.den = order, tuple(nums), den

    def _orbit_weights(self, orbits) -> Tuple[CyclotomicNumber, ...]:
        """w(z^r) = (1/N) sum_k M_k z^(-2rk) for each orbit r, M_k the moment
        2k, one cyclo_from_integers per orbit over the nonzero moments."""
        terms = [(k, v) for k, v in enumerate(self.nums) if v]
        return tuple(cyclo_from_integers(self.order, [(-2 * r * k, v) for k, v in terms],
                                         self.order * self.den) for r in orbits)

    @property
    def reps(self) -> Tuple[CyclotomicNumber, ...]:
        """reps[r] is the weight shared by the atoms at the powers r, -r,
        r + N/2 and N/2 - r of the primitive N-th root z, for 0 <= r <= N/4,
        a real element of the N-th cyclotomic field, derived on each read."""
        return self._orbit_weights(range(self.order // 4 + 1))

    def orbit(self, j: int) -> int:
        """The r with the weight at position j in reps[r]."""
        half = self.order // 2
        r = j % half
        return min(r, half - r)

    def weight(self, j: int) -> CyclotomicNumber:
        """The weight at position j, derived for its orbit alone."""
        return self._orbit_weights((self.orbit(j),))[0]

    def orbit_size(self, r: int) -> int:
        """Number of atoms sharing the weight reps[r]."""
        return 2 if r == 0 or 4 * r == self.order else 4

    def mass(self) -> Fraction:
        return Fraction(self.nums[0], self.den)

    def is_probability(self) -> bool:
        """Whether the mass is 1 and every weight is at least 0, the signs
        decided in integers from the moments, one primitive stratum at a time.

        In the notation of level, the weight at u is W(u^2)/2, and on the
        primitive d-th roots s, d | n, n W(s) = sum_r a_r s^-r, where a_r,
        the sum of the M_k over k < n with k = r mod d, equals a_(-r).  So
        the weights there are the conjugates sigma_j(f), sigma_j: z -> z^j,
        of f = sum_r a_r z^r, z = zeta_d, over 2n.  f lies in the totally
        real field K = Q(z + 1/z) of degree h = max(1, phi(d)/2), and as
        Tr_K(f y^2) = sum_sigma sigma(f) sigma(y)^2 with K dense in its real
        span, they are all >= 0 exactly when y -> Tr_K(f y^2) is positive
        semidefinite.  On the basis C_t = z^t + z^-t, t < h, of K (C_0 = 2,
        C_t monic of degree t in C_1), C_i C_j = C_(i+j) + C_|i-j| makes its
        Gram matrix t(i+j) + t(|i-j|) up to a positive factor:
        t(m) = sum_r a_r c_d(r + m) is the trace of f z^m over Q(z), twice
        that over K for d >= 3 and even in m as f is real, and c_d(k), the
        trace of z^k, is the Ramanujan sum over the squarefree q | d of
        mu(q) (d/q) [(d/q) | k]; c_d(0) = phi(d).  The traces decide that a
        stratum is empty, its weights all 0: the trace form is nondegenerate,
        so that is every t(m) = 0, m < h.  _is_psd decides the others.
        """
        if self.mass() != 1:
            return False
        n = self.minimal_support_order() // 2
        m = self.nums[:n]
        for d in (d for d in range(1, n + 1) if n % d == 0):
            a = [(r, x) for r in range(d) if (x := sum(m[r::d]))]
            c = _ramanujan_sums(d)
            h = max(1, c[0] // 2)
            t = [sum(x * c[(r + k) % d] for r, x in a) for k in range(2 * h - 1)]
            if any(t) and not _is_psd([[t[i + j] + t[abs(i - j)] for j in range(h)]
                                       for i in range(h)]):
                return False
        return True

    def embed(self, order: int) -> "CyclotomicMeasure":
        """The same measure at a multiple of its order: the period repeated.

        Repeating nums leaves gcd(den, *nums) = 1, so the result is in
        lowest terms as built and no gcd is taken; ==, + and - reach this
        through _align on every call."""
        if order <= 0 or order % self.order:
            raise ValueError(f"{order} is not a positive multiple of {self.order}")
        if order == self.order:
            return self
        z = object.__new__(CyclotomicMeasure)
        z.order, z.nums, z.den = order, self.nums * (order // self.order), self.den
        return z

    def minimal_support_order(self) -> Optional[int]:
        """Smallest even N such that every atom is an N-th root; None if zero.

        It is twice the least period p of the even moments: by the linear
        independence of the characters k -> s^k, period p holds exactly when
        every atom u has (u^2)^p = 1."""
        m = self.nums
        if not any(m):
            return None
        n = len(m)
        return 2 * next(p for p in range(1, n + 1) if n % p == 0 and m == m[:p] * (n // p))

    def _align(self, other):
        """Both measures at the lcm of their orders, by embed; None for an
        operand of another type, a scalar included."""
        if not isinstance(other, CyclotomicMeasure):
            return None
        order = math.lcm(self.order, other.order)
        return self.embed(order), other.embed(order)

    def _product(self, other):
        raise TypeError("cannot multiply two measures")

    def __repr__(self):
        nz = sum(self.orbit_size(r) for r, w in enumerate(self.reps) if not w.is_zero())
        return f"CyclotomicMeasure(order={self.order}, atoms={nz})"


@lru_cache(maxsize=None)
def _ramanujan_sums(d: int) -> Tuple[int, ...]:
    """c_d(k) for 0 <= k < d, the trace of zeta_d^k: the sum over the
    squarefree q | d of mu(q) (d/q) [(d/q) | k]."""
    pairs = _mobius_pairs(d)
    return tuple(sum(mu * (d // q) for q, mu in pairs if k % (d // q) == 0) for k in range(d))


class RealMeasure(FrozenValue):
    """The pushforward of a circular measure by u -> (u + 1/u)^2, a view of
    the measure it stores; for a graph's circular measure, the spectral
    measure of A^2 at the root."""

    __slots__ = ("circular",)

    def __init__(self, circular: CyclotomicMeasure):
        self._freeze(circular)

    @property
    def atoms(self) -> Tuple[Tuple[CyclotomicNumber, CyclotomicNumber], ...]:
        """(location, weight) pairs of exact reals in increasing order: the
        orbit of r, if nonzero, gives one atom at 2 + u^2 + u^-2 =
        2 + 2 cos(4 pi r / N), which decreases for 0 <= r <= N/4, carrying
        the orbit's total weight."""
        e = self.circular
        return tuple((cyclo_from_integers(e.order, [(0, 2), (2 * r, 1), (-2 * r, 1)], 1),
                      w * e.orbit_size(r))
                     for r, w in reversed(list(enumerate(e.reps))) if not w.is_zero())

    def moments(self, count: int) -> List[CyclotomicNumber]:
        """Moments 0..count at the circular measure's order: with M_i =
        moment 2i = M_-i, 2 + u^2 + u^-2 maps M_i to (M_(i-1) + M_i) +
        (M_i + M_(i+1)), and moment k is M_0 after k steps."""
        m, den = _even_moments(self.circular, count)
        out = [m[0]]
        for _ in range(count):
            pairs = list(map(add, m, m[1:]))
            m = [2 * pairs[0], *map(add, pairs, pairs[1:])]
            out.append(m[0])
        return [_cyclo_rational(self.circular.order, v, den) for v in out]


class ExpansionResult(FrozenValue):
    """Coefficients of a measure over the uniform measure (index 0) and the
    degree-l polynomial densities (index l) at one support parameter.
    residual_ok is always True for an admissible n; it is kept for the CLI's
    residual_ok row and for existing callers."""

    __slots__ = ("n", "coefficients", "residual_ok")

    def __init__(self, n: int, coefficients: Dict[int, Fraction], residual_ok: bool):
        self._freeze(n, coefficients, residual_ok)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

@lru_cache(maxsize=ATOM_CACHE_SIZE)
def basic_measure(kind: str, n: int) -> CyclotomicMeasure:
    """The four uniform families: on the 2n-th roots, the odd 4n-th roots,
    and the two ternary variants obtained from the order-3n refinements.

    Moment 2k of d_n is [n | k], and that of d'_n is (-1)^(k/n) [n | k].
    Memoized: the result is shared and must not be mutated."""
    if n < 1:
        raise ValueError("parameter must be positive")
    if kind == "d":
        return _normalized(CyclotomicMeasure, 2 * n, [int(k == 0) for k in range(n)], 1)
    if kind == "dprime":
        return _normalized(CyclotomicMeasure, 4 * n,
                           [0 if k % n else (-1) ** (k // n) for k in range(2 * n)], 1)
    if kind in ("ddoubleprime", "dtripleprime"):
        base = "dprime" if kind == "ddoubleprime" else "d"
        return Fraction(1, 2) * (3 * basic_measure(base, 3 * n) - basic_measure(base, n))
    raise ValueError(f"unknown base kind {kind!r}")


@lru_cache(maxsize=ATOM_CACHE_SIZE)
def density_measure(poly: Tuple, kind: str, n: int) -> CyclotomicMeasure:
    """Multiply a base uniform measure by the density Re(P(u^2)) atom by atom.

    P is the tuple of its rational coefficients c_i, constant term first,
    and the density is the sum of c_i (u^(2i) + u^(-2i)) / 2, so moment 2k
    becomes the sum of c_i (M_(k+i) + M_(k-i)) / 2, M_j the moment 2j of
    the base measure, in integers over the denominators of P and of the
    base moments.  The sum is scattered: each nonzero M_j adds c_i M_j / 2
    to the moments 2(j - i) and 2(j + i), so the work is one pass over the
    coefficients per nonzero base moment, of which d_n has one per period
    and d'_n two.  Signed, null and sub-probability results are allowed
    (these arise for n <= deg P, where the density vanishes or folds onto
    smaller supports).
    Memoized: the result is shared and must not be mutated.
    """
    base = basic_measure(kind, n)
    pnums, pden = _over_lcm(poly)
    period = len(base.nums)
    terms = [(i, c) for i, c in enumerate(pnums) if c]
    out = [0] * period
    for j, v in enumerate(base.nums):
        if v:
            for i, c in terms:
                x = c * v
                out[(j - i) % period] += x
                out[(j + i) % period] += x
    return _normalized(CyclotomicMeasure, base.order, out, 2 * pden * base.den)


def atom_measure(name: str, kind: str, n: int) -> CyclotomicMeasure:
    """The atom name_n over the base kind: the uniform measure for "d", else
    its product with the density DENSITY_POLYS[name].  Memoized."""
    if name == "d":
        return basic_measure(kind, n)
    return density_measure(DENSITY_POLYS[name], kind, n)


# ---------------------------------------------------------------------------
# Moments, T series, pushforward
# ---------------------------------------------------------------------------

def moment(e: CyclotomicMeasure, k: int) -> CyclotomicNumber:
    """The k-th moment: the weighted sum of k-th powers of the atoms, read
    off the stored sequence.  Each orbit holds u and -u, so an odd moment is
    exactly zero."""
    m = e.nums
    return _cyclo_rational(e.order, 0 if k % 2 else m[k // 2 % len(m)], e.den)


def _even_moments(e: CyclotomicMeasure, count: int) -> Tuple[List[int], int]:
    """(nums, den) with moment 2k = nums[k] / den for k = 0 .. count: the
    stored period, repeated by the reflection identity."""
    _check_order(count)
    m = e.nums
    return list((m * (count // len(m) + 1))[: count + 1]), e.den


def t_series_of_measure(e: CyclotomicMeasure, order: int) -> PowerSeries:
    """The T series of the measure: the expansion of its fraction, as
    coefficient r of 1 + T(q)(1-q) is twice the 2r-th moment."""
    return t_fraction_of_measure(e).expand(order)


def t_fraction_of_measure(e: CyclotomicMeasure) -> SeriesFraction:
    """The T series of the measure as a fraction: the moments 2k repeat with
    period p = len(e.nums), so T = (2 sum_(k<p) nums_k q^k - den + den q^p)
    / (den (1 - q)(1 - q^p))."""
    nums = [2 * v for v in e.nums] + [e.den]
    nums[0] -= e.den
    return SeriesFraction(nums, ((1, False), (len(e.nums), False)), e.den)


def pushforward_real(e: CyclotomicMeasure) -> RealMeasure:
    """RealMeasure(e), the pushforward of e by u -> (u + 1/u)^2."""
    return RealMeasure(e)


# ---------------------------------------------------------------------------
# Expansion over polynomial densities, the level invariant and nonnegativity
# ---------------------------------------------------------------------------

def one_minus_power(l: int) -> Tuple[int, ...]:
    """The polynomial 1 - x^l, whose density Re(1 - u^(2l)) has degree l."""
    return (1,) + (0,) * (l - 1) + (-1,)


def cyclotomic_expansion(e: CyclotomicMeasure, n: int) -> ExpansionResult:
    """Expand e over the uniform measure and the densities 1 - u^(2l) at one
    support parameter n, read off the even moments of e.

    Index l and n - l give the same density contribution, so the coefficient
    map is indexed 0..n//2 with 0 naming the uniform term.

    Every basis measure lives on the 2n-th roots, whose even moments have
    period n, so e is in their span only if its even moments have period n
    too.  That holds exactly when the support order N of e divides 2n.  The
    even moment 2k is the sum over s = u^2 of W(s) s^k, where W(s) adds the
    weights at u and -u; those are equal, so W(s) is nonzero exactly when
    there are atoms at +-u.  Period n says that the sum over s of
    W(s) (s^n - 1) s^k vanishes for every k, and the characters k -> s^k of
    distinct s are linearly independent, so every W(s) (s^n - 1) is zero:
    every atom u has u^(2n) = 1, which is N dividing 2n.  So the test is
    exact.  Then e and each basis measure are fixed by the rows of
    expand_over_level, the doubled moments 2k, k <= n/2, and on them the
    system is triangular: the uniform column is 2 e_0 and column l >= 1 is
    2 e_0 - c_l e_l, c_l = 2 when 2l = n and 1 otherwise, as n divides
    k - l only at k = l and k + l only at k = l = n/2.  The one solution is
    x_l = -2 M_l / c_l and x_0 = M_0 - sum x_l = sum_(k<n) M_k, M_k the
    moment 2k.
    """
    if n < 1:
        raise ValueError("support parameter must be positive")
    support = e.minimal_support_order()
    if support is not None and (2 * n) % support:
        raise SupportTooLarge(
            f"support order {support} does not divide {2 * n}, so the moments lack period {n}")
    nums, den = _even_moments(e, n // 2)
    # w[l] / den is the sum of the moments 2k over k < n with k = +-l mod n
    w = [v if l == 0 or 2 * l == n else 2 * v for l, v in enumerate(nums)]
    coefficients = [Fraction(sum(w), den)] + [Fraction(-v, den) for v in w[1:]]
    return ExpansionResult(n, dict(enumerate(coefficients)), True)


def reconstruct_expansion(result: ExpansionResult) -> CyclotomicMeasure:
    """Rebuild the measure of an expansion result: the doubled moment
    columns of its nonzero terms, summed over one common denominator.

    For k < n the column of label l, 2[n | k] - [n | k + l] - [n | k - l],
    is nonzero only at k = 0 and k = +-l mod n, so a term x adds 2x at 0
    and, for l != 0, -x at l mod n and at -l mod n."""
    n = result.n
    labels = [l for l, c in result.coefficients.items() if c]
    xs, den = _over_lcm(result.coefficients[l] for l in labels)
    acc = [0] * n
    for l, x in zip(labels, xs):
        acc[0] += 2 * x
        if l:
            acc[l % n] -= x
            acc[-l % n] -= x
    return _normalized(CyclotomicMeasure, 2 * n, acc, 2 * den)


def _moment_column(l: int, m: int, count: int) -> List[int]:
    """Twice the moments 0, 2, ..., 2 count of the uniform measure on the
    2m-th roots, [m | k] at moment 2k, times the density 1 - u^(2l) if l > 0:
    2[m | k] - [m | k + l] - [m | k - l].  These are the columns of
    expand_over_level, its one caller; reconstruct_expansion adds the at
    most three nonzero entries of each column directly."""
    return [2 * (k % m == 0) - ((((k + l) % m == 0) + ((k - l) % m == 0)) if l else 0)
            for k in range(count + 1)]


def expand_over_level(e: CyclotomicMeasure, limit: int) -> Optional[dict]:
    """Try to write e over the uniform measures on divisor supports plus the
    degree <= limit polynomial densities on them; None when infeasible, and
    a negative limit allows no columns, so only the zero measure has an
    expansion then.

    Keys of the returned map are (l, m): the density degree (0 for uniform)
    and the support parameter m; its values are the nonzero coefficients of
    the canonical solution (free coefficients zero).

    The rows are the doubled even moments 0, 2, ..., 2 floor(n/2), with n
    half the support order.  A measure on the 2n-th roots is fixed by its
    moments 2k, k < n (an inverse DFT in u^2, by the symmetry u -> -u), and
    so by this block (the reflection identity): the map to the rows is
    Q-linear and injective, so the pivots and the canonical solution are
    those of the system over the weights.  The columns are the uniform
    ones, then those of degree 1, 2, ..., up to min(limit, n - 1), and one
    elimination solves them all at once; pivots are found in column order,
    so the canonical solution is that of the first consistent degree,
    padded with zeros.
    """
    support = e.minimal_support_order()
    if support is None:
        return {}
    n = support // 2
    nums, den = _even_moments(e, n // 2)
    labels = [(l, m) for l in range(min(limit, n - 1) + 1)
              for m in range(l + 1, n + 1) if n % m == 0]
    x = _solve_columns([_moment_column(l, m, n // 2) for l, m in labels],
                       [2 * v for v in nums], den)
    return None if x is None else {lab: c for lab, c in zip(labels, x) if c}


def level(e: CyclotomicMeasure) -> int:
    """Smallest density degree needed to express the measure over uniform
    measures and polynomial densities supported inside its root group, in
    closed form from the moments, one primitive stratum at a time.

    Let n be half the minimal support order, W(s) the total weight at the
    atoms +-u with u^2 = s, and C_t(s + 1/s) = s^t + s^-t, C_0 = 2.  The
    densities of degree <= l on the divisor supports span the sums of
    [s^m = 1] q_m(s) over m | n, each q_m a rational combination of
    C_0 .. C_l (a degree above m - 1 folds onto a lower one on the m-th
    roots).  The n-th roots split into the primitive d-th roots P_d,
    d | n, and [s^m = 1] is the sum of [s in P_d] over d | m, so by Moebius
    inversion the span is every independent choice of one such q on each
    P_d.  W(s) = (1/n) sum_k M_k s^-k, M_k the moment 2k, has rational
    coefficients, so W commutes with Galois and fits on P_d exactly when it
    fits at z = zeta_d.  With b_t the sum of M_k over k < n with
    k = +-t mod d, and M_k = M_(n-k), 2n W(z) = 2 b_0 + sum_(t>=1) b_t C_t(x),
    x = z + 1/z.  With h = phi(d)/2 the C_t(x), t < h, are a basis of
    Q(x), so d asks for the degree of this sum reduced modulo the minimal
    polynomial of x; in the C basis that polynomial is
    c_h + sum_(j>=1) c_(h+j) C_j, c_i the coefficients of the d-th
    cyclotomic polynomial, which is palindromic.  Reducing from the top
    with C_a C_b = C_(a+b) + C_|a-b| rewrites C_(a+h) over lower indices.
    The constant term never changes the degree, so index 0 is not read
    (nor kept exact), and d with h < 2 asks for degree 0.  The level is the
    largest of these degrees.  The d are taken by falling phi(d), so the
    first whose h - 1 cannot beat the best found so far ends the search.
    """
    support = e.minimal_support_order()
    if support is None:
        return 0
    n = support // 2
    m = e.nums[:n]
    best = 0
    for d in sorted((d for d in range(1, n + 1) if n % d == 0), key=euler_phi, reverse=True):
        h = euler_phi(d) // 2
        if h - 1 <= best:
            break
        a = [sum(m[r::d]) for r in range(d)]
        v = [a[t] + a[d - t] if 0 < 2 * t < d else a[t] for t in range(d // 2 + 1)]
        c = cyclotomic_poly(d)
        upper = [(j, c[h + j]) for j in range(1, h + 1) if c[h + j]]
        for top in range(d // 2, h - 1, -1):
            f, lo = v[top], top - h
            if f:
                # f C_lo times the minimal polynomial, whose term j = h
                # cancels f C_top
                v[lo] -= f * c[h]
                for j, cj in upper:
                    v[lo + j] -= f * cj
                    if lo:
                        v[abs(lo - j)] -= f * cj
        best = max(best, next((t for t in range(h - 1, 0, -1) if v[t]), 0))
    return best


def _is_psd(rows: List[List[int]]) -> bool:
    """Whether a symmetric integer matrix is positive semidefinite, by
    fraction-free symmetric elimination: a pivot p < 0, or p = 0 with a
    nonzero row a, refutes it; p = 0 with a = 0 drops the row; p > 0 leaves
    p A_22 - a a^T, the Schur complement times p, over its content."""
    while rows:
        p, *a = rows.pop(0)
        if p < 0 or p == 0 and any(a):
            return False
        rows = [row[1:] if p == 0 else [p * v - x * y for v, y in zip(row[1:], a)]
                for x, row in zip(a, rows)]
        g = math.gcd(*[v for row in rows for v in row]) or 1
        rows = [[v // g for v in row] for row in rows]
    return True
