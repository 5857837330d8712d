import math
import operator
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from cyclade.exact import (
    CyclotomicNumber,
    NotRational,
    NonzeroConstantTerm,
    OrderMismatch,
    PowerSeries,
    ZeroConstantTerm,
    cyclo_as_rational,
    cyclo_conj,
    cyclo_embed,
    cyclo_make,
    cyclotomic_poly,
    series_compose,
    series_invert,
    solve_linear_system,
    _divide_factor,
    _solve_columns,
    _times_factor,
    euler_phi,
)
from cyclade.measures import atom_measure, density_measure
from cyclade.transforms import closed_form_fraction
from oracles import (
    cyclotomic_poly_by_division,
    divide_monic,
    lincomb,
    monomial,
    rational_by_constructor,
    root_of_unity,
    rref_solve,
    truncate,
)


def _real_part(z):
    return (z + cyclo_conj(z)) * Fraction(1, 2)


# ---------------------------------------------------------------------------
# cyclotomic polynomials
# ---------------------------------------------------------------------------

def test_cyclotomic_poly_small():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)


def test_cyclotomic_poly_12_by_division_oracle():
    # divide x^12 - 1 by the lower-order factors, written out by hand
    x12 = [-1] + [0] * 11 + [1]
    for known in ([-1, 1], [1, 1], [1, 1, 1], [1, 0, 1], [1, -1, 1]):
        x12 = divide_monic(x12, known)
    assert x12 == [1, 0, -1, 0, 1]
    assert cyclotomic_poly(12) == tuple(x12)


def test_cyclotomic_poly_matches_division_oracle():
    for n in range(1, 121):
        assert cyclotomic_poly(n) == cyclotomic_poly_by_division(n)


def test_euler_phi_counts_the_coprime_residues():
    for d in range(1, 1001):
        assert euler_phi(d) == sum(math.gcd(k, d) == 1 for k in range(1, d + 1)), d
    for bad in (0, -3):
        with pytest.raises(ValueError, match="^order must be positive$"):
            euler_phi(bad)


@pytest.mark.parametrize("order,weights", [(0, {}), (-2, {1: 1})])
def test_cyclo_make_refuses_a_nonpositive_order(order, weights):
    with pytest.raises(ValueError, match="^order must be positive$"):
        cyclo_make(order, weights)


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
                coeffs = cyclotomic_poly(d)
                assert all(type(c) is int for c in coeffs)
                prod = _convolve(prod, coeffs)
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
    one = cyclo_make(1, {0: 1})
    assert cyclo_embed(one, 12) == cyclo_make(12, {0: 1})
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
    r = cyclo_make(8, {0: Fraction(5, 3)})
    assert cyclo_conj(r) == r
    assert _real_part(1 - root_of_unity(8, 2)) == 1


def test_cyclo_as_rational_errors():
    assert cyclo_as_rational(cyclo_make(6, {0: 0})) == 0
    sqrt2 = cyclo_make(8, {1: 1, 7: 1})
    with pytest.raises(NotRational):
        cyclo_as_rational(sqrt2)


def test_library_and_non_display_commands_leave_mpmath_unloaded():
    script = textwrap.dedent("""
        import contextlib, io, sys
        import cyclade
        from cyclade import cli
        from cyclade.verify import run_all
        assert not run_all(order=8).failures
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["graph-tseries", "--family", "E8", "--order", "32"],
                         ["graph-loops", "--family", "D", "--param", "9"],
                         ["xi-expand", "--expr", "xi(2:3)"],
                         ["measure-moments", "--expr", "gamma''_7"],
                         ["measure-tseries", "--expr", "alpha'_9 + d_4"],
                         ["expand", "--expr", "beta_5"],
                         ["level", "--expr", "alpha_12"],
                         ["verify", "--order", "8", "--only", "thm7.1/*"]):
                assert cli.main(argv) == 0, argv
        print("mpmath" in sys.modules)
        """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_import_leaves_dataclasses_inspect_and_json_unloaded():
    # the value classes are plain slotted classes and json is imported by
    # the one method that serialises a report; modules the interpreter
    # loads at start-up do not count
    script = textwrap.dedent("""
        import sys
        before = set(sys.modules)
        import cyclade
        cyclade.all_check_ids()
        print(sorted({"dataclasses", "inspect", "json"} & (set(sys.modules) - before)))
        """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_import_leaves_json_unloaded():
    # only --format json output imports it
    script = textwrap.dedent("""
        import sys
        before = set(sys.modules)
        import cyclade.cli
        print("json" in set(sys.modules) - before)
        """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_arithmetic_coordinates_are_fractions():
    a = cyclo_make(12, {0: 3, 1: 2, 5: -1})  # int weights
    b = cyclo_make(8, {0: Fraction(1, 2), 3: 1})
    for z in (a, b, a + b, a - b, -a, a * b, a * 3, 2 * b, a + 1, 1 - b,
              cyclo_embed(a, 36), cyclo_conj(a), _real_part(b)):
        assert all(type(c) is Fraction for c in z.coeffs)
    s = PowerSeries.from_list([1, 2, 3], 5)
    t = PowerSeries(5, [0, 1, 0, 0, 0, 1])
    for series in (s + t, s - t, -s, s * t, s * 2, 3 - s, s + 1, s.shift(2),
                   series_invert(s), series_compose(s, t),
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


def test_series_repr_shows_the_first_eight_coefficients():
    assert repr(PowerSeries.from_list(range(8))) == "PowerSeries(order=7, [0, 1, 2, 3, 4, 5, 6, 7])"
    assert repr(PowerSeries.from_list(range(10))) == (
        "PowerSeries(order=9, [0, 1, 2, 3, 4, 5, 6, 7, ...])")


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
    phi = euler_phi(order)
    a = cyclo_make(order, draw(st.dictionaries(st.integers(0, 2 * order), _weights, max_size=4)))
    b = CyclotomicNumber(order, [draw(_weights) for _ in range(phi)])
    c = cyclo_make(draw(_orders), {0: draw(_weights)})
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


@pytest.mark.parametrize("order", [1, 7, 240])
@pytest.mark.parametrize("value", [0, 5, -5, Fraction(-6, 4), "3/6", 0.5])
def test_from_rational_storage_is_canonical(value, order):
    # cyclo_make reads ints and Fractions as they are, any other value
    # through Fraction; every one is stored as the public constructor
    # stores it
    got, want = cyclo_make(order, {0: value}), rational_by_constructor(value, order)
    assert _canonical(got)
    assert (got.order, got.nums, got.den) == (want.order, want.nums, want.den)
    assert len(got.nums) == euler_phi(order) and not any(got.nums[1:])


@pytest.mark.parametrize("order", [1, 7, 240])
def test_zero_and_one_storage_is_canonical(order):
    for got, value in ((cyclo_make(order, {0: 0}), 0), (cyclo_make(order, {0: 1}), 1)):
        want = rational_by_constructor(value, order)
        assert (got.order, got.nums, got.den) == (want.order, want.nums, want.den)


def test_trailing_zero_coefficients_change_no_answer():
    # a polynomial is its coefficient tuple, constant term first: trailing
    # zeros, and an int written as a Fraction, give the same measure and the
    # same closed-form T, and the degree is that of the last nonzero term
    short, padded = (1, 0, 0, -1), (Fraction(2, 2), 0, 0, -1, 0, 0)
    for kind, n in (("d", 4), ("dprime", 7), ("d", 2)):
        a, b = density_measure(short, kind, n), density_measure(padded, kind, n)
        assert (a.order, a.nums, a.den) == (b.order, b.nums, b.den)
    for variant in ("unprimed", "primed"):
        for n, order in ((4, 0), (4, 16), (9, 30)):
            got = closed_form_fraction(padded, n, variant).expand(order)
            want = closed_form_fraction(short, n, variant).expand(order)
            assert (got.order, got.nums, got.den) == (want.order, want.nums, want.den)
    assert closed_form_fraction((1, -1) + (0,) * 9, 2, "unprimed").expand(0) == (
        PowerSeries.from_list([1], 0))


@st.composite
def _series_values(draw):
    """Power series from the public constructors and from + - *, shift,
    series_invert and the oracle truncation, with pairs equal by
    construction."""
    order = draw(st.integers(0, 8))
    s = PowerSeries(order, [draw(_weights) for _ in range(order + 1)])
    t = PowerSeries.from_list([draw(_weights) for _ in range(draw(st.integers(1, 10)))],
                              draw(st.integers(0, 8)))
    r = draw(_weights)
    out = [s, t, s + t, s - t, s * t, -s, s * r, r - t, (s + t) - t, (s * 3) * Fraction(1, 3),
           s.shift(draw(st.integers(0, 3))), truncate(t, min(t.order, order)),
           PowerSeries.zero(order), monomial(draw(st.integers(0, 9)), order)]
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
            a, b = truncate(x, k), truncate(y, k)
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
    assert s * series_invert(s) == PowerSeries.from_list([1], 10)


def test_series_compose_examples():
    f = PowerSeries.from_list([1] * 9, 8)
    q = monomial(1, 8)
    assert series_compose(f, q) == f

    # inner q/(1+q)^2 expanded by the binomial series; with f = 1 + z the
    # result is 1 + q - 2q^2 + 3q^3 - ...
    inner = series_invert(PowerSeries.from_list([1, 2, 1], 8)).shift(1)
    assert inner.coeffs == tuple(Fraction((-1) ** (k + 1) * k) for k in range(9))
    composed = series_compose(PowerSeries.from_list([1, 1], 8), inner)
    expected = [1] + [(-1) ** (k + 1) * k for k in range(1, 9)]
    assert composed == PowerSeries.from_list(expected, 8)

    assert series_compose(PowerSeries.from_list([1], 8), inner) == PowerSeries.from_list([1], 8)
    with pytest.raises(NonzeroConstantTerm):
        series_compose(f, PowerSeries.from_list([1], 8))


def test_series_order_discipline():
    a = PowerSeries.from_list([1], 4)
    b = PowerSeries.from_list([1], 6)
    assert (a + b).order == 4
    assert (a * b).order == 4
    with pytest.raises(OrderMismatch):
        _ = a == b
    assert truncate(b, 4) == a


_NEGATIVE_ORDER_SERIES = {
    "PowerSeries": lambda order: PowerSeries(order, [1] * (order + 1)),
    "from_list": lambda order: PowerSeries.from_list([1] * (order + 1)),
    "zero": PowerSeries.zero,
    "one": lambda order: PowerSeries.from_list([1], order),
    "monomial": lambda order: monomial(0, order),
    "truncate": lambda order: truncate(PowerSeries.from_list([1], 4), order),
}


@pytest.mark.parametrize("name", _NEGATIVE_ORDER_SERIES)
def test_negative_series_order_is_refused(name):
    # the constructors, and the oracle monomial and truncation, refuse
    # order -1 with the message of the other series routines; order 0 still
    # works
    with pytest.raises(ValueError, match="^order must be nonnegative, got -1$"):
        _NEGATIVE_ORDER_SERIES[name](-1)
    assert _NEGATIVE_ORDER_SERIES[name](0).order == 0


_NEGATIVE_POWER_SERIES = {
    "monomial": lambda k: monomial(k, 5),
    "shift": lambda k: PowerSeries.from_list([1, 2, 3]).shift(k),
}


@pytest.mark.parametrize("k", [-1, -7])
@pytest.mark.parametrize("name", _NEGATIVE_POWER_SERIES)
def test_negative_power_of_q_is_refused(name, k):
    # one message from both, not q^5, an unshifted series or an IndexError;
    # power 0 is the identity or the constant 1
    with pytest.raises(ValueError, match=f"^power must be nonnegative, got {k}$"):
        _NEGATIVE_POWER_SERIES[name](k)
    assert monomial(0, 5) == PowerSeries.from_list([1], 5)
    assert PowerSeries.from_list([1, 2, 3]).shift(0) == PowerSeries.from_list([1, 2, 3])


# ---------------------------------------------------------------------------
# the operators shared by cyclotomic numbers, series and measures, and the
# (1 +- q^d) factor kernel
# ---------------------------------------------------------------------------

# two operands of each class, as (order, {exponent: weight}) for a
# cyclotomic number, (order, coefficients) for a series and rows of
# (coefficient, atom name, base kind, parameter) for a measure
_OPERANDS = {
    "cyclotomic": ((12, {0: Fraction(1, 2), 1: -3, 5: Fraction(2, 7)}),
                   (8, {1: 2, 3: Fraction(-1, 3)})),
    "series": ((5, [Fraction(1, 2), -3, 0, Fraction(2, 7), 1, 4]),
               (3, [2, 0, Fraction(-1, 3), 5])),
    "measure": ([(Fraction(1, 2), "alpha", "d", 6), (-3, "d", "dprime", 1)],
                [(2, "d", "d", 4), (Fraction(-1, 3), "beta", "dprime", 2)]),
}
_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
        "eq": operator.eq, "ne": operator.ne}
# an operand of another class
_FOREIGN = {"cyclotomic": PowerSeries.from_list([1], 3), "series": cyclo_make(4, {0: 1}),
            "measure": cyclo_make(4, {0: 1})}


def _cyclo_oracle(op, x, y):
    """op on two (order, {exponent: weight}) operands, by adding or
    convolving the weights at the lcm of the orders, built by cyclo_make."""
    m = math.lcm(x[0], y[0])
    a, b = ({e * (m // n): w for e, w in ws.items()} for n, ws in (x, y))
    out = {} if op is operator.mul else dict(a)
    for j, v in b.items():
        if op is operator.mul:
            for i, u in a.items():
                out[(i + j) % m] = out.get((i + j) % m, 0) + u * v
        else:
            out[j] = out.get(j, 0) + (v if op is operator.add else -v)
    return cyclo_make(m, out)


def _series_oracle(op, x, y):
    """op on two (order, coefficients) operands, truncated at the smaller
    order, in Fractions."""
    k = min(x[0], y[0])
    a, b = x[1][: k + 1], y[1][: k + 1]
    if op is operator.mul:
        return PowerSeries(k, [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(k + 1)])
    return PowerSeries(k, [op(u, v) for u, v in zip(a, b)])


def _measure_oracle(op, x, y):
    """op on two measure operands, rows or a scalar, by the reference
    lincomb of the joined rows."""
    if op is operator.mul:
        rows, scalar = (x, y) if isinstance(x, list) else (y, x)
        rows = [(c * scalar, *atom) for c, *atom in rows]
    else:
        rows = x + [(c if op is operator.add else -c, *atom) for c, *atom in y]
    return _measure_by_rows(rows)


def _measure_by_rows(rows):
    return lincomb([(c, atom_measure(*atom)) for c, *atom in rows])


_KINDS = {
    "cyclotomic": (lambda x: cyclo_make(*x), lambda r, order: (1, {0: r}), _cyclo_oracle),
    "series": (lambda x: PowerSeries(*x), lambda r, order: (order, [r] + [0] * order),
               _series_oracle),
    "measure": (_measure_by_rows, lambda r, order: r, _measure_oracle),
}


@pytest.mark.parametrize("operand", ["int", "Fraction", "same class", "float", "other class"])
@pytest.mark.parametrize("reflected", [False, True], ids=["forward", "reflected"])
@pytest.mark.parametrize("name", _OPS)
@pytest.mark.parametrize("kind", _KINDS)
def test_shared_operators(kind, name, reflected, operand):
    op = _OPS[name]
    build, rational, oracle = _KINDS[kind]
    x_raw, y_raw = _OPERANDS[kind]
    x = build(x_raw)
    other = {"int": -3, "Fraction": Fraction(5, 6), "same class": build(y_raw), "float": 0.5,
             "other class": _FOREIGN[kind]}[operand]
    # a float or another class is never an operand; a measure takes a
    # rational only as a factor, and no measure as one
    refused = operand in ("float", "other class") or kind == "measure" and (
        (operand == "same class") == (name == "mul"))
    if name in ("eq", "ne"):
        # else a rational compares as a value of the class, as in arithmetic
        if refused:
            assert x.__eq__(other) is NotImplemented
            cases = [(x, other, False)]
        elif operand == "same class":
            cases = [(x, build(x_raw), True), (x, -x, False)]
            if kind == "measure":
                # == lifts to the lcm of the orders
                cases += [(x, x.embed(2 * x.order), True), (x.embed(3 * x.order), x, True)]
        else:
            cases = [(build(rational(other, x.order)), other, True), (x, other, False)]
        for a, b, equal in cases:
            assert (op(b, a) if reflected else op(a, b)) is (equal == (name == "eq"))
        return
    if refused:
        with pytest.raises(TypeError):
            op(other, x) if reflected else op(x, other)
        if operand == "same class":
            with pytest.raises(TypeError, match="^cannot multiply two measures$"):
                x * other
        else:
            assert getattr(x, f"__{'r' if reflected else ''}{name}__")(other) is NotImplemented
        return
    if operand != "same class":
        y_raw = rational(other, x.order)
    if reflected:
        got = getattr(x, f"__r{name}__")(other)
        assert op(other, x) == got
        expected = oracle(op, y_raw, x_raw)
    else:
        got = op(x, other)
        expected = oracle(op, x_raw, y_raw)
    assert type(got) is type(x)
    assert (got.order, got.nums, got.den) == (expected.order, expected.nums, expected.den)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-1000, 1000), max_size=40), st.integers(1, 45), st.booleans())
def test_factor_kernel_round_trip(coeffs, d, plus):
    sign = 1 if plus else -1
    out = list(coeffs)
    _times_factor(out, d, plus)
    assert out == [c + sign * coeffs[i - d] if i >= d else c for i, c in enumerate(coeffs)]
    _divide_factor(out, d, plus)
    assert out == coeffs
    _divide_factor(out, d, plus)
    _times_factor(out, d, plus)
    assert out == coeffs


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


@st.composite
def _integer_columns(draw):
    """Integer columns, some zero and some combinations of two earlier ones,
    and an integer right-hand side over a denominator up to 6; drawn in the
    span of all the columns, it leaves the shorter prefixes inconsistent."""
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(0, 6))
    ints = st.integers(-4, 4)
    cols = []
    for _ in range(ncols):
        kind = draw(st.sampled_from(["entries", "zero", "combination"]))
        if kind == "zero":
            cols.append([0] * nrows)
        elif kind == "combination" and cols:
            a, b = draw(st.sampled_from(cols)), draw(st.sampled_from(cols))
            s, t = draw(ints), draw(ints)
            cols.append([s * x + t * y for x, y in zip(a, b)])
        else:
            cols.append([draw(ints) for _ in range(nrows)])
    if cols and draw(st.booleans()):
        x = [draw(ints) for _ in cols]
        rhs = [sum(c[i] * v for c, v in zip(cols, x)) for i in range(nrows)]
    else:
        rhs = [draw(ints) for _ in range(nrows)]
    return cols, rhs, draw(st.integers(1, 6))


@settings(max_examples=150, deadline=None)
@given(_integer_columns())
@example(([[1, 0], [0, 0], [1, 2]], [1, 4], 3))
@example(([[2, 4], [1, 2]], [1, 3], 5))
def test_column_elimination_matches_rref_on_every_prefix(system):
    # each prefix of the columns solved as a system of its own; a consistent
    # prefix's solution, padded with zeros, is also the whole system's
    cols, rhs, den = system
    target = [Fraction(b, den) for b in rhs]
    whole = _solve_columns(cols, rhs, den)
    for j in range(len(cols) + 1):
        sol = _solve_columns(cols[:j], rhs, den)
        assert sol == rref_solve([[c[i] for c in cols[:j]] for i in range(len(rhs))], target)
        if sol is not None:
            assert len(sol) == j
            assert all(type(c) is Fraction for c in sol)
            assert whole == sol + [0] * (len(cols) - j)
