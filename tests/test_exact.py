import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from cyclade.exact import (
    CyclotomicNumber,
    NotRational,
    NonzeroConstantTerm,
    OrderMismatch,
    PowerSeries,
    QPolynomial,
    ZeroConstantTerm,
    cyclo_as_rational,
    cyclo_conj,
    cyclo_embed,
    cyclo_make,
    cyclotomic_poly,
    root_of_unity,
    series_compose,
    series_invert,
    sign_of_real,
    solve_linear_system,
)
from oracles import cyclotomic_poly_by_division, divide_monic, rref_solve


def _real_part(z):
    return (z + cyclo_conj(z)) * Fraction(1, 2)


# ---------------------------------------------------------------------------
# cyclotomic polynomials
# ---------------------------------------------------------------------------

def test_cyclotomic_poly_small():
    assert cyclotomic_poly(1) == QPolynomial([-1, 1])
    assert cyclotomic_poly(2) == QPolynomial([1, 1])
    assert cyclotomic_poly(4) == QPolynomial([1, 0, 1])


def test_cyclotomic_poly_12_by_division_oracle():
    # divide x^12 - 1 by the lower-order factors, written out by hand
    x12 = [-1] + [0] * 11 + [1]
    for known in ([-1, 1], [1, 1], [1, 1, 1], [1, 0, 1], [1, -1, 1]):
        x12 = divide_monic(x12, known)
    assert x12 == [1, 0, -1, 0, 1]
    assert cyclotomic_poly(12) == QPolynomial(x12)


def test_cyclotomic_poly_matches_division_oracle():
    for n in range(1, 121):
        assert cyclotomic_poly(n) == cyclotomic_poly_by_division(n)


def _convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_poly_product_property():
    for n in range(1, 121):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                coeffs = cyclotomic_poly(d).coeffs
                assert all(c.denominator == 1 for c in coeffs)
                prod = _convolve(prod, [c.numerator for c in coeffs])
        assert prod == [-1] + [0] * (n - 1) + [1]


# ---------------------------------------------------------------------------
# cyclotomic numbers
# ---------------------------------------------------------------------------

def test_cyclo_make_examples():
    assert cyclo_make(4, {2: 1, 0: 1}).is_zero()
    assert cyclo_as_rational(cyclo_make(3, {1: 1, 2: 1})) == -1
    assert cyclo_as_rational(cyclo_make(12, {2: 1, 10: 1})) == 1


def test_cyclo_embed_examples():
    minus_one = cyclo_make(2, {1: 1})
    assert cyclo_embed(minus_one, 4) == cyclo_make(4, {2: 1})
    one = CyclotomicNumber.one(1)
    assert cyclo_embed(one, 12) == CyclotomicNumber.one(12)
    z3 = root_of_unity(3)
    assert cyclo_embed(z3, 6) == cyclo_make(6, {2: 1})
    with pytest.raises(ValueError):
        cyclo_embed(z3, 8)


def test_cyclo_embed_numeric_roundtrip():
    z = cyclo_make(3, {1: 2, 2: -1})
    lifted = cyclo_embed(z, 12)
    assert abs(z.numeric(30) - lifted.numeric(30)) < mpmath.mpf("1e-25")


def test_cyclo_conj_examples():
    i = root_of_unity(4)
    assert cyclo_conj(i) == -i
    r = CyclotomicNumber.from_rational(Fraction(5, 3), 8)
    assert cyclo_conj(r) == r
    assert _real_part(1 - root_of_unity(8, 2)) == 1


def test_cyclo_as_rational_errors():
    assert cyclo_as_rational(CyclotomicNumber.zero(6)) == 0
    sqrt2 = cyclo_make(8, {1: 1, 7: 1})
    with pytest.raises(NotRational):
        cyclo_as_rational(sqrt2)


def test_sign_of_real():
    sqrt2 = cyclo_make(8, {1: 1, 7: 1})
    assert sign_of_real(sqrt2) == 1
    assert sign_of_real(-sqrt2) == -1
    assert sign_of_real(CyclotomicNumber.zero(8)) == 0
    with pytest.raises(ValueError):
        sign_of_real(root_of_unity(4))


def test_arithmetic_coordinates_are_fractions():
    a = cyclo_make(12, {0: 3, 1: 2, 5: -1})  # int weights
    b = cyclo_make(8, {0: Fraction(1, 2), 3: 1})
    for z in (a, b, a + b, a - b, -a, a * b, a * 3, 2 * b, a + 1, 1 - b,
              cyclo_embed(a, 36), cyclo_conj(a), _real_part(b)):
        assert all(type(c) is Fraction for c in z.coeffs)
    s = PowerSeries.from_list([1, 2, 3], 5)
    t = PowerSeries(5, [0, 1, 0, 0, 0, 1])
    for series in (s + t, s - t, -s, s * t, s * 2, 3 - s, s + 1, s.shift(2),
                   s.truncate(3), series_invert(s), series_compose(s, t),
                   PowerSeries.zero(4)):
        assert all(type(c) is Fraction for c in series.coeffs)


def test_public_constructors_coerce_and_check_length():
    z = CyclotomicNumber(4, [1, 2])
    assert z.coeffs == (Fraction(1), Fraction(2))
    assert all(type(c) is Fraction for c in z.coeffs)
    with pytest.raises(ValueError):
        CyclotomicNumber(4, [1, 2, 3])
    s = PowerSeries(2, [1, 0, 2])
    assert all(type(c) is Fraction for c in s.coeffs)
    with pytest.raises(ValueError):
        PowerSeries(2, [1, 0])


_orders = st.sampled_from([1, 2, 3, 4, 6, 8, 12])


@st.composite
def _cyclo_triples(draw):
    order = draw(_orders)
    out = []
    for _ in range(3):
        mapping = draw(st.dictionaries(st.integers(0, 2 * order), st.integers(-3, 3), max_size=4))
        out.append(cyclo_make(order, mapping))
    return out


@settings(max_examples=60, deadline=None)
@given(_cyclo_triples())
def test_field_axioms(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert cyclo_conj(cyclo_conj(a)) == a
    assert _real_part(a) == cyclo_conj(_real_part(a))


@settings(max_examples=60, deadline=None)
@given(_cyclo_triples(), st.sampled_from([2, 3, 4]))
def test_embed_is_ring_morphism(triple, factor):
    a, b, _ = triple
    m = a.order * factor
    assert cyclo_embed(a * b, m) == cyclo_embed(a, m) * cyclo_embed(b, m)
    assert cyclo_embed(a + b, m) == cyclo_embed(a, m) + cyclo_embed(b, m)


@settings(max_examples=60, deadline=None)
@given(_cyclo_triples())
def test_canonical_equality_matches_numeric(triple):
    a, b, _ = triple
    close = abs(a.numeric(40) - b.numeric(40)) < mpmath.mpf("1e-30")
    assert close == (a == b)


def _canonical(x) -> bool:
    """The stored form: int numerators over a positive denominator, in
    lowest terms."""
    return (type(x.den) is int and x.den > 0 and all(type(v) is int for v in x.nums)
            and math.gcd(x.den, *x.nums) == 1)


_weights = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def _cyclo_values(draw):
    """Cyclotomic numbers from the public constructors and from + - *,
    cyclo_embed and cyclo_conj, with pairs equal by construction among
    them."""
    order = draw(_orders)
    phi = len(CyclotomicNumber.one(order).coeffs)
    a = cyclo_make(order, draw(st.dictionaries(st.integers(0, 2 * order), _weights, max_size=4)))
    b = CyclotomicNumber(order, [draw(_weights) for _ in range(phi)])
    c = CyclotomicNumber.from_rational(draw(_weights), draw(_orders))
    r = draw(_weights)
    return [a, b, c, a + b, a - b, a * b, -a, a * r, r * b, c + r, (a + b) - b,
            (a * 2) * Fraction(1, 2), cyclo_embed(a, order * draw(st.sampled_from([2, 3]))),
            cyclo_conj(b),
            cyclo_conj(cyclo_conj(b)), a * c, CyclotomicNumber(order, a.coeffs)]


@settings(max_examples=60, deadline=None)
@given(_cyclo_values())
def test_cyclo_storage_is_canonical(values):
    for x in values:
        assert _canonical(x)
    for x in values:
        for y in values:
            m = math.lcm(x.order, y.order)
            same = cyclo_embed(x, m).coeffs == cyclo_embed(y, m).coeffs
            assert (x == y) == same


@st.composite
def _series_values(draw):
    """Power series from the public constructors and from + - *, shift,
    truncate and series_invert, with pairs equal by construction."""
    order = draw(st.integers(0, 8))
    s = PowerSeries(order, [draw(_weights) for _ in range(order + 1)])
    t = PowerSeries.from_list([draw(_weights) for _ in range(draw(st.integers(1, 10)))],
                              draw(st.integers(0, 8)))
    r = draw(_weights)
    out = [s, t, s + t, s - t, s * t, -s, s * r, r - t, (s + t) - t, (s * 3) * Fraction(1, 3),
           s.shift(draw(st.integers(0, 3))), t.truncate(min(t.order, order)),
           PowerSeries.zero(order), PowerSeries.monomial(draw(st.integers(0, 9)), order)]
    if s.nums[0]:
        out += [series_invert(s), series_invert(series_invert(s))]
    return out


@settings(max_examples=60, deadline=None)
@given(_series_values())
def test_series_storage_is_canonical(values):
    for x in values:
        assert _canonical(x)
    for x in values:
        for y in values:
            k = min(x.order, y.order)
            a, b = x.truncate(k), y.truncate(k)
            assert (a == b) == (a.coeffs == b.coeffs)


# ---------------------------------------------------------------------------
# power series
# ---------------------------------------------------------------------------

def test_series_invert_examples():
    geom = series_invert(PowerSeries.from_list([1, -1], 8))
    assert geom.coeffs == tuple(Fraction(1) for _ in range(9))
    alt = series_invert(PowerSeries.from_list([1, 1], 8))
    assert alt.coeffs == tuple(Fraction((-1) ** k) for k in range(9))
    cubes = series_invert(PowerSeries.from_list([1, 0, 0, -1], 8))
    assert cubes.coeffs == tuple(Fraction(1 if k % 3 == 0 else 0) for k in range(9))
    with pytest.raises(ZeroConstantTerm):
        series_invert(PowerSeries.from_list([0, 1], 4))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=4),
                min_size=1, max_size=8))
def test_series_invert_round_trip(coeffs):
    if coeffs[0] == 0:
        coeffs[0] = Fraction(1)
    s = PowerSeries.from_list(coeffs, 10)
    assert s * series_invert(s) == PowerSeries.one(10)


def test_series_compose_examples():
    f = PowerSeries.from_list([1] * 9, 8)
    q = PowerSeries.monomial(1, 8)
    assert series_compose(f, q) == f

    # inner q/(1+q)^2 expanded by the binomial series; with f = 1 + z the
    # result is 1 + q - 2q^2 + 3q^3 - ...
    inner = series_invert(PowerSeries.from_list([1, 2, 1], 8)).shift(1)
    assert inner.coeffs == tuple(Fraction((-1) ** (k + 1) * k) for k in range(9))
    composed = series_compose(PowerSeries.from_list([1, 1], 8), inner)
    expected = [1] + [(-1) ** (k + 1) * k for k in range(1, 9)]
    assert composed == PowerSeries.from_list(expected, 8)

    assert series_compose(PowerSeries.one(8), inner) == PowerSeries.one(8)
    with pytest.raises(NonzeroConstantTerm):
        series_compose(f, PowerSeries.one(8))


def test_series_order_discipline():
    a = PowerSeries.one(4)
    b = PowerSeries.one(6)
    assert (a + b).order == 4
    assert (a * b).order == 4
    with pytest.raises(OrderMismatch):
        _ = a == b
    assert b.truncate(4) == a


# ---------------------------------------------------------------------------
# linear solver
# ---------------------------------------------------------------------------

def test_solve_linear_system():
    sol = solve_linear_system([[1, 1], [1, -1]], [3, 1])
    assert sol == [Fraction(2), Fraction(1)]
    assert solve_linear_system([[1, 1], [2, 2]], [1, 3]) is None
    # underdetermined: free variable pinned to zero
    sol = solve_linear_system([[1, 1]], [5])
    assert sol == [Fraction(5), Fraction(0)]
    assert solve_linear_system([[0, 0]], [0]) == [Fraction(0), Fraction(0)]


_entries = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))


@st.composite
def _linear_systems(draw):
    """Rows, some of them combinations of a few base rows (so rank-deficient
    systems are common), with an optional zero row and zero column, and a
    right-hand side either in the column span or drawn at random."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    base = [[draw(_entries) for _ in range(ncols)] for _ in range(draw(st.integers(1, 3)))]
    rows = []
    for _ in range(nrows):
        if draw(st.booleans()):
            mix = [draw(_entries) for _ in base]
            rows.append([sum(c * b[j] for c, b in zip(mix, base)) for j in range(ncols)])
        else:
            rows.append([draw(_entries) for _ in range(ncols)])
    if rows and draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [0] * ncols
    if ncols and draw(st.booleans()):
        j = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[j] = 0
    if draw(st.booleans()):
        x = [draw(_entries) for _ in range(ncols)]
        rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
    else:
        rhs = [draw(_entries) for _ in range(nrows)]
    return rows, rhs


@settings(max_examples=150, deadline=None)
@given(_linear_systems())
@example(([], []))
@example(([[1, 2, 3]], [4]))
@example(([[1, 1], [2, 2]], [1, 3]))
def test_solve_linear_system_matches_rref(system):
    rows, rhs = system
    sol = solve_linear_system(rows, rhs)
    assert sol == rref_solve(rows, rhs)
    if sol is not None:
        assert len(sol) == (len(rows[0]) if rows else 0)
        assert all(type(c) is Fraction for c in sol)
