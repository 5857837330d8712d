"""Atomic measures on roots of unity with cyclotomic weights.

A measure lives on the N-th roots of unity, N even, and is stored by orbit:
an atom u, its inverse and their negatives share one real weight, so only
the weights at the powers r = 0 .. N/4 of the primitive root are kept, and
the four-fold symmetry holds by construction.  The one place that validates
symmetry and realness is the public constructor CyclotomicMeasure(N,
weights), which takes the full list of N weights; every constructor in this
module builds the orbit representatives directly.  Signed and
sub-probability measures are first-class, is_probability is a predicate.

The reflection identity: with n = N/2, every atom has u^N = 1 and the
measure is symmetric under u -> 1/u, so the even moments satisfy
moment 2(k + n) = moment 2k and moment 2(n - k) = moment -2k = moment 2k.
Every even moment is therefore one of moments 0, 2, ..., 2 floor(n/2), the
block that _even_moments computes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from .exact import (
    CyclotomicNumber,
    NotRational,
    PowerSeries,
    QPolynomial,
    cyclo_as_rational,
    cyclo_embed,
    cyclo_from_integers,
    euler_phi,
    series_from_integers,
    sign_of_real,
    _ColumnElimination,
    _over_lcm,
    _reduction_rows,
)
from .graphs import GraphFamily


class SymmetryViolation(ValueError):
    """Weights are not equal across an atom's four-fold orbit."""


class SupportTooLarge(ValueError):
    """The measure has atoms outside the requested group of roots."""


BASE_KINDS = ("d", "dprime", "ddoubleprime", "dtripleprime")

DENSITY_POLYS = {
    "alpha": QPolynomial([1, -1]),
    "beta": QPolynomial([1, 0, -1]),
    "gamma": QPolynomial([1, 0, 0, -1]),
}

# memo size for basic_measure and density_measure; a registry run uses about
# 310 distinct atoms
ATOM_CACHE_SIZE = 512

# the constant in the level-1 affine-E formula; the printed /3 variant fails
# the series check (see the discrepancy check in the verify registry)
ETILDE_THM87_CONSTANT = Fraction(1, 2)


class CyclotomicMeasure:
    """Finitely supported measure on the N-th roots of unity, N = order.

    reps[r] is the weight shared by the atoms at the powers r, -r, r + N/2
    and N/2 - r of the primitive N-th root, for 0 <= r <= N/4; every weight
    is a real element of the N-th cyclotomic field, stored at order N.
    Instances are immutable; _block caches the even-moment block that
    _even_moments fills on first use.
    """

    __slots__ = ("order", "reps", "_block")

    def __init__(self, order: int, weights: Sequence):
        """Build from the full list of N weights, checking that they are real
        and equal on each orbit."""
        if order < 2 or order % 2:
            raise ValueError("support order must be even and at least 2")
        if len(weights) != order:
            raise ValueError(f"need {order} weights, got {len(weights)}")
        ws = []
        for w in weights:
            if isinstance(w, (int, Fraction)):
                w = CyclotomicNumber.from_rational(w, 1)
            ws.append(cyclo_embed(w, order))
        half = order // 2
        for j, w in enumerate(ws):
            if not w.is_real():
                raise SymmetryViolation(f"weight at position {j} is not real")
            if w != ws[(-j) % order] or w != ws[(j + half) % order]:
                raise SymmetryViolation(f"orbit of position {j} has unequal weights")
        self.order = order
        self.reps = tuple(ws[: order // 4 + 1])
        self._block = None

    @property
    def weights(self) -> Tuple[CyclotomicNumber, ...]:
        """All N weights, position j holding the atom at the j-th power."""
        return tuple(self.weight(j) for j in range(self.order))

    def weight(self, j: int) -> CyclotomicNumber:
        half = self.order // 2
        r = j % half
        return self.reps[min(r, half - r)]

    def orbit_size(self, r: int) -> int:
        """Number of atoms sharing the weight reps[r]."""
        return 2 if r == 0 or 4 * r == self.order else 4

    def mass(self) -> Fraction:
        nums, den = _even_moments(self, 0)
        return Fraction(nums[0], den)

    def is_zero(self) -> bool:
        return all(w.is_zero() for w in self.reps)

    def is_probability(self) -> bool:
        if self.mass() != 1:
            return False
        return all(sign_of_real(w) >= 0 for w in self.reps)

    def embed(self, order: int) -> "CyclotomicMeasure":
        if order % self.order:
            raise ValueError(f"{order} is not a multiple of {self.order}")
        if order == self.order:
            return self
        step = order // self.order
        reps = [CyclotomicNumber.zero(order)] * (order // 4 + 1)
        for r, w in enumerate(self.reps):
            if not w.is_zero():
                reps[r * step] = cyclo_embed(w, order)
        return _from_reps(order, reps)

    def minimal_support_order(self) -> Optional[int]:
        """Smallest even N such that every atom is an N-th root; None if zero.

        An orbit holds u and -u, and one of their orders is even, so the
        least common multiple of the atom orders is already even."""
        order, half = self.order, self.order // 2
        acc, found = 1, False
        for r, w in enumerate(self.reps):
            if not w.is_zero():
                found = True
                for j in (r, r + half):
                    acc = math.lcm(acc, order // math.gcd(order, j))
        return acc if found else None

    def __eq__(self, other) -> bool:
        if not isinstance(other, CyclotomicMeasure):
            return NotImplemented
        return measure_equal(self, other)

    __hash__ = None

    def __repr__(self):
        nz = sum(self.orbit_size(r) for r, w in enumerate(self.reps) if not w.is_zero())
        return f"CyclotomicMeasure(order={self.order}, atoms={nz})"


def _from_reps(order: int, reps: Sequence[CyclotomicNumber]) -> CyclotomicMeasure:
    """Internal constructor from the order // 4 + 1 orbit weights, each real
    and already at the given order."""
    e = object.__new__(CyclotomicMeasure)
    e.order = order
    e.reps = tuple(reps)
    e._block = None
    return e


@dataclass(frozen=True)
class RealMeasure:
    """The pushforward of a circular measure by u -> (u + 1/u)^2, a view of
    the measure it stores; for a graph's circular measure, the spectral
    measure of A^2 at the root."""

    circular: CyclotomicMeasure

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
        """Moments 0..count at the circular measure's order.  With M_i =
        moment 2i = M_-i of the circular measure, multiplying by 2 + u^2 +
        u^-2 maps M_i to 2 M_i + M_(i-1) + M_(i+1); moment k is M_0 after k
        steps.  NotRational unless the even moments 0 .. 2 count are rational."""
        m, den = _even_moments(self.circular, count)
        out = [m[0]]
        for _ in range(count):
            m = [2 * (m[0] + m[1])] + [2 * b + a + c for a, b, c in zip(m, m[1:], m[2:])]
            out.append(m[0])
        return [CyclotomicNumber.from_rational(Fraction(v, den), self.circular.order) for v in out]


@dataclass(frozen=True)
class ExpansionResult:
    """Coefficients of a measure over the uniform measure (index 0) and the
    degree-l polynomial densities (index l) at one support parameter;
    residual_ok says whether the exact system has a solution."""

    n: int
    coefficients: Dict[int, Fraction]
    residual_ok: bool


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

@lru_cache(maxsize=ATOM_CACHE_SIZE)
def basic_measure(kind: str, n: int) -> CyclotomicMeasure:
    """The four uniform families: on the 2n-th roots, the odd 4n-th roots,
    and the two ternary variants obtained from the order-3n refinements.

    Memoized: the result is shared and must not be mutated."""
    if n < 1:
        raise ValueError("parameter must be positive")
    if kind == "d":
        w = CyclotomicNumber.from_rational(Fraction(1, 2 * n), 2 * n)
        return _from_reps(2 * n, [w] * (n // 2 + 1))
    if kind == "dprime":
        w = CyclotomicNumber.from_rational(Fraction(1, 2 * n), 4 * n)
        zero = CyclotomicNumber.zero(4 * n)
        return _from_reps(4 * n, [w if r % 2 else zero for r in range(n + 1)])
    if kind == "ddoubleprime":
        return _combine([(3 * _H, "d", "dprime", 3 * n), (-_H, "d", "dprime", n)])
    if kind == "dtripleprime":
        return _combine([(3 * _H, "d", "d", 3 * n), (-_H, "d", "d", n)])
    raise ValueError(f"unknown base kind {kind!r}")


@lru_cache(maxsize=ATOM_CACHE_SIZE)
def density_measure(poly: QPolynomial, kind: str, n: int) -> CyclotomicMeasure:
    """Multiply a base uniform measure by the density Re(P(u^2)) atom by atom.

    At the atom u = z^r, z the primitive root, the weight is w/2 times the
    sum of c_i (z^(2ir) + z^(-2ir)) over the coefficients c_i of P, built by
    one cyclo_from_integers over the denominators of P and of the rational
    w.  Signed, null and sub-probability results are allowed (these arise
    for n <= deg P, where the density vanishes or folds onto smaller
    supports).  Memoized: the result is shared and must not be mutated.
    """
    base = basic_measure(kind, n)
    pnums, pden = _over_lcm(poly.coeffs)
    reps = []
    for r, w in enumerate(base.reps):
        terms = [(s * i * r, c * w.nums[0]) for i, c in enumerate(pnums) if c for s in (2, -2)]
        reps.append(cyclo_from_integers(base.order, terms, 2 * pden * w.den))
    return _from_reps(base.order, reps)


def lincomb(terms: Sequence[Tuple[Fraction, CyclotomicMeasure]]) -> CyclotomicMeasure:
    """Exact linear combination, lifted to the least common support order.

    Every product of a scalar and an orbit weight is lifted to integers over
    one common denominator, the terms are collected per target orbit, and
    each orbit with terms is reduced by one cyclo_from_integers."""
    if not terms:
        raise ValueError("empty combination")
    order = 1
    for _, m in terms:
        order = math.lcm(order, m.order)
    scaled = [(Fraction(scalar), m) for scalar, m in terms]
    den = math.lcm(*[c.denominator * w.den for c, m in scaled for w in m.reps])
    collected: Dict[int, list] = {}
    for c, m in scaled:
        step = order // m.order
        for r, w in enumerate(m.reps):
            if not w.is_zero():
                lift = c.numerator * (den // (c.denominator * w.den))
                collected.setdefault(r * step, []).extend(
                    (i * step, v * lift) for i, v in enumerate(w.nums) if v)
    zero = CyclotomicNumber.zero(order)
    return _from_reps(order, [cyclo_from_integers(order, collected[r], den) if r in collected
                              else zero for r in range(order // 4 + 1)])


def measure_equal(a: CyclotomicMeasure, b: CyclotomicMeasure) -> bool:
    """Atom-by-atom field equality after lifting to the common support order."""
    return first_atom_difference(a, b) is None


def first_atom_difference(a: CyclotomicMeasure, b: CyclotomicMeasure):
    """None when equal; otherwise (position, weight_a, weight_b) at the
    common support order.  Each representative r is the least position of
    its orbit, so the first differing representative is the first
    differing position."""
    order = math.lcm(a.order, b.order)
    a, b = a.embed(order), b.embed(order)
    for r, (x, y) in enumerate(zip(a.reps, b.reps)):
        if x != y:
            return r, x, y
    return None


# ---------------------------------------------------------------------------
# Moments, T series, pushforward
# ---------------------------------------------------------------------------

def _scaled_weights(e: CyclotomicMeasure):
    """(terms, den): each nonzero orbit weight w_r as (r, [(i, v)]), its
    nonzero coordinates i over the common denominator den of the weights,
    times half the orbit size."""
    den = math.lcm(*[w.den for w in e.reps])
    terms = []
    for r, w in enumerate(e.reps):
        scale = e.orbit_size(r) // 2 * (den // w.den)
        coords = [(i, v * scale) for i, v in enumerate(w.nums) if v]
        if coords:
            terms.append((r, coords))
    return terms, den


def _moment_powers(order: int, terms, k: int) -> List[int]:
    """The one moment kernel: den times the moment k (k even) over the
    powers 0 .. N-1 of the primitive root, not yet reduced; the orbit of r
    adds w_r (z^(rk) + z^(-rk)) times half its size."""
    acc = [0] * order
    for r, coords in terms:
        for shift in ((r * k) % order, (-r * k) % order):
            for i, v in coords:
                acc[(i + shift) % order] += v
    return acc


def moment(e: CyclotomicMeasure, k: int) -> CyclotomicNumber:
    """The k-th moment: the weighted sum of k-th powers of the atoms.

    Each orbit holds u and -u, so an odd moment is exactly zero.  An even
    moment is summed in integers over the common denominator of the weights.
    """
    if k % 2:
        return CyclotomicNumber.zero(e.order)
    terms, den = _scaled_weights(e)
    return cyclo_from_integers(e.order, enumerate(_moment_powers(e.order, terms, k)), den)


def _even_moments(e: CyclotomicMeasure, count: int) -> Tuple[List[int], int]:
    """(nums, den) with moment 2k = nums[k] / den for k = 0 .. count.

    The first call fills e._block with the block k = 0 .. floor(n/2),
    n = N/2, each moment reduced over the phi(N) power basis, and stops at
    the first irrational moment, keeping the message that
    cyclo_as_rational(moment(e, 2k)) gives for it; every call reads the
    block.  The rest of the moments are read off it by the reflection
    identity of the module docstring, so a count that reaches the first
    irrational k raises NotRational with that message: by the identity,
    that k is the first irrational one up to count.
    """
    if e._block is None:
        e._block = _moment_block(e)
    block, den, irrational = e._block
    if irrational is not None and count >= len(block):
        raise NotRational(irrational)
    if count < len(block):
        return block[: count + 1], den
    n = e.order // 2
    period = block + block[n - n // 2 - 1:0:-1]
    return (period * (count // n + 1))[: count + 1], den


def _moment_block(e: CyclotomicMeasure) -> Tuple[List[int], int, Optional[str]]:
    """(block, den, message): den times the moments 2k for k = 0, 1, ...
    up to floor(n/2) or up to the first irrational one, whose NotRational
    message is the third entry (None when every moment is rational)."""
    order, n = e.order, e.order // 2
    terms, den = _scaled_weights(e)
    rows, phi = _reduction_rows(order), euler_phi(order)
    block = []
    for k in range(n // 2 + 1):
        acc = _moment_powers(order, terms, 2 * k)
        out = acc[:phi]
        for t in range(phi, order):
            if acc[t]:
                for i, c in rows[t]:
                    out[i] += acc[t] * c
        if any(out[1:]):
            try:
                cyclo_as_rational(cyclo_from_integers(order, enumerate(out), den))
            except NotRational as err:
                return block, den, str(err)
        block.append(out[0])
    return block, den, None


def t_series_of_measure(e: CyclotomicMeasure, order: int) -> PowerSeries:
    """The T series of the measure from its even moments.

    Coefficient r of 1 + T(q)(1-q) is twice the 2r-th moment, and every one
    must be rational (NotRational otherwise).
    """
    nums, den = _even_moments(e, order)
    doubled = [2 * v for v in nums]
    doubled[0] -= den
    return series_from_integers(list(accumulate(doubled)), den)


def pushforward_real(e: CyclotomicMeasure) -> RealMeasure:
    """RealMeasure(e), the pushforward of e by u -> (u + 1/u)^2."""
    return RealMeasure(e)


# ---------------------------------------------------------------------------
# The measure table for the ten graph families
# ---------------------------------------------------------------------------

def atom_measure(name: str, kind: str, n: int) -> CyclotomicMeasure:
    """The atom name_n over the base kind: the uniform measure for "d", else
    its product with the density DENSITY_POLYS[name].  Memoized."""
    if name == "d":
        return basic_measure(kind, n)
    return density_measure(DENSITY_POLYS[name], kind, n)


def _combine(rows) -> CyclotomicMeasure:
    """lincomb over rows of (coefficient, atom name, base kind, parameter)."""
    return lincomb([(c, atom_measure(name, kind, n)) for c, name, kind, n in rows])


def etilde_ternary(ell: int, c: Fraction) -> CyclotomicMeasure:
    """The affine-E ternary form alpha_(l+1) + c d_l - c d_(l+1)."""
    return _combine([(1, "alpha", "d", ell + 1), (c, "d", "d", ell), (-c, "d", "d", ell + 1)])


# l of each affine-E ternary form (thm87)
ETILDE_ELL = {"E6tilde": 2, "E7tilde": 3, "E8tilde": 5}

_H, _T = Fraction(1, 2), Fraction(1, 3)
_EXCEPTIONAL_ROWS = {
    ("E6", "thm71"): [(1, "alpha", "d", 12), (_H, "d", "d", 12), (-_H, "d", "d", 6),
                      (-_H, "d", "d", 4), (_H, "d", "d", 3)],
    ("E6", "thm87"): [(Fraction(1, 6), "d", "ddoubleprime", 2),
                      (_T, "alpha", "ddoubleprime", 2), (_H, "d", "dtripleprime", 1)],
    ("E7", "thm71"): [(1, "beta", "dprime", 9), (_H, "d", "dprime", 1), (-_H, "d", "dprime", 3)],
    ("E7", "thm87"): [(2 * _T, "beta", "ddoubleprime", 3), (_T, "d", "dprime", 1)],
    ("E8", "thm71"): [(1, "alpha", "dprime", 15), (1, "gamma", "dprime", 15),
                      (-_H, "d", "dprime", 5), (-_H, "d", "dprime", 3)],
    ("E8", "thm87"): [(2 * _T, "alpha", "ddoubleprime", 5), (2 * _T, "gamma", "ddoubleprime", 5),
                      (-_T, "d", "ddoubleprime", 1)],
}


def candidate_measure(family: GraphFamily, variant: str) -> CyclotomicMeasure:
    """The closed-form circular measure of the family, in the level-0/binary
    table (thm71) or the ternary table (thm87)."""
    if variant not in ("thm71", "thm87"):
        raise ValueError(f"unknown variant {variant!r}")
    tag, m = family.tag, family.param
    if tag == "A":
        return atom_measure("alpha", "d", m + 1)
    if tag == "Atilde":
        return atom_measure("d", "d", m // 2)
    if tag == "D":
        return atom_measure("alpha", "dprime", m - 1)
    if tag == "Dtilde":
        return _combine([(_H, "d", "d", m - 2), (_H, "d", "dprime", 1)])
    if tag not in ETILDE_ELL:
        return _combine(_EXCEPTIONAL_ROWS[tag, variant])
    if variant == "thm87":
        return etilde_ternary(ETILDE_ELL[tag], ETILDE_THM87_CONSTANT)
    # the affine-E binary form (d_n + d_3 + d_2 - d_1)/2
    n = {"E6tilde": 3, "E7tilde": 4, "E8tilde": 5}[tag]
    return _combine([(_H, "d", "d", n), (_H, "d", "d", 3), (_H, "d", "d", 2), (-_H, "d", "d", 1)])


# ---------------------------------------------------------------------------
# Expansion over polynomial densities and the level invariant
# ---------------------------------------------------------------------------

def one_minus_power(l: int) -> QPolynomial:
    """The polynomial 1 - x^l, whose density Re(1 - u^(2l)) has degree l."""
    return QPolynomial([1] + [0] * (l - 1) + [-1])


def cyclotomic_expansion(e: CyclotomicMeasure, n: int) -> ExpansionResult:
    """Expand e over the uniform measure and the densities 1 - u^(2l) at one
    support parameter n, by exact linear algebra on the moment vector.

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
    exact.  With u^(2n) = 1 for every atom, the reflection identity of the
    module docstring holds for this n, so the elimination reads only the
    moments 0, 2, ..., 2 floor(n/2), the rows _level_expansion uses.
    """
    if n < 1:
        raise ValueError("support parameter must be positive")
    support = e.minimal_support_order()
    if support is not None and (2 * n) % support:
        raise SupportTooLarge(
            f"support order {support} does not divide {2 * n}, so the moments lack period {n}")
    nums, den = _even_moments(e, n // 2)
    labels = list(range(n // 2 + 1))
    elim = _ColumnElimination([2 * v for v in nums], den)
    for l in labels:
        elim.add_column(_moment_column(l, n, n // 2))
    sol = elim.solution()
    return ExpansionResult(n, {} if sol is None else dict(zip(labels, sol)), sol is not None)


def reconstruct_expansion(result: ExpansionResult) -> CyclotomicMeasure:
    """Rebuild the measure described by an expansion result."""
    n = result.n
    terms: List[Tuple[Fraction, CyclotomicMeasure]] = []
    for l, r in sorted(result.coefficients.items()):
        if r == 0:
            continue
        if l == 0:
            terms.append((r, basic_measure("d", n)))
        else:
            terms.append((r, density_measure(one_minus_power(l), "d", n)))
    if not terms:
        terms = [(Fraction(0), basic_measure("d", n))]
    return lincomb(terms)


def _moment_column(l: int, m: int, count: int) -> List[int]:
    """Twice the moments 0, 2, ..., 2 count of the uniform measure on the
    2m-th roots, [m | k] at moment 2k, times the density 1 - u^(2l) if l > 0:
    2[m | k] - [m | k + l] - [m | k - l]."""
    return [2 * (k % m == 0) - ((((k + l) % m == 0) + ((k - l) % m == 0)) if l else 0)
            for k in range(count + 1)]


def _level_expansion(e: CyclotomicMeasure, limit: int):
    """(l, coefficients) for the least l <= limit with e in the span of the
    uniform measures and the degree <= l densities on its divisor supports,
    or None; a negative limit allows no columns.

    The rows are the doubled even moments 0, 2, ..., 2 floor(n/2), with n
    half the support order.  A measure on the 2n-th roots is fixed by its
    moments 2k, k < n (an inverse DFT in u^2, by the symmetry u -> -u), and
    so by this block (the reflection identity): the map to the rows is
    Q-linear and injective, so the pivots and the canonical solution are
    those of the system over the weights.  The basis moments are rational,
    so an irrational moment means no expansion.  One elimination takes the
    uniform columns, then those of degree 1, 2, ..., and stops at the first
    consistent block: a consistent prefix's canonical solution is every
    longer system's, padded with zeros."""
    support = e.minimal_support_order()
    if support is None:
        return 0, {}
    if limit < 0:
        return None
    n = support // 2
    try:
        nums, den = _even_moments(e, n // 2)
    except NotRational:
        return None
    divisors = [m for m in range(1, n + 1) if n % m == 0]
    elim = _ColumnElimination([2 * v for v in nums], den)
    labels: List[Tuple[int, int]] = []
    for l in range(n):
        for m in divisors:
            if m > l:
                elim.add_column(_moment_column(l, m, n // 2))
                labels.append((l, m))
        sol = elim.solution()
        if sol is not None:
            return l, {lab: c for lab, c in zip(labels, sol) if c}
        if l >= limit:
            break
    return None


def expand_over_level(e: CyclotomicMeasure, limit: int) -> Optional[dict]:
    """Try to write e over the uniform measures on divisor supports plus the
    degree <= limit polynomial densities on them; None when infeasible.

    Keys of the returned map are (l, m): the density degree (0 for uniform)
    and the support parameter m; its values are the nonzero coefficients of
    the canonical solution (free coefficients zero).
    """
    found = _level_expansion(e, limit)
    return None if found is None else found[1]


def level(e: CyclotomicMeasure) -> int:
    """Smallest density degree needed to express the measure over uniform
    measures and polynomial densities supported inside its root group; one
    elimination pass, as every degree that can occur is below e.order."""
    found = _level_expansion(e, e.order)
    if found is None:
        raise ArithmeticError("measure admits no rational expansion")
    return found[0]
