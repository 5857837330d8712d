import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from cyclade import transforms
from cyclade.cli import MAX_ORDER
from cyclade.exact import PowerSeries, series_compose, series_invert
from cyclade.exprs import parse_xi_expr
from cyclade.graphs import FAMILY_TAGS, GraphFamily, UnsupportedFamily, build_ade, loop_counts
from cyclade.measures import basic_measure, pushforward_real, t_series_of_measure
from cyclade.transforms import (
    DegreeTooLarge,
    SeriesFraction,
    XiExpression,
    XiFactor,
    closed_form_fraction,
    fraction_sum,
    graph_t_series,
    t_from_theta,
    theorem_2_5_lookup,
    theta_from_poincare_formula,
    theta_from_poincare_subst,
    xi,
    xi_expand,
)
from cyclade.verify import DEFAULT_SIZE_MATRIX
from oracles import (
    monomial,
    t_closed_form_by_fractions,
    theta_formula_binomials,
    theta_formula_row_recurrence,
    theta_subst_alternating_sums,
)


def expand(text, order=16):
    return xi_expand(parse_xi_expr(text), order)


# ---------------------------------------------------------------------------
# xi expansion
# ---------------------------------------------------------------------------

def test_xi_expand_examples():
    # (1 - q^2) * sum q^{3j}, multiplied out by hand
    assert expand("xi(2:3)", 8) == PowerSeries.from_list(
        [1, 0, -1, 1, 0, -1, 1, 0, -1], 8)
    assert expand("xi(:)", 8) == PowerSeries.from_list([1], 8)
    assert expand("xi'(1:1+)", 8) == PowerSeries.from_list(
        [(-1) ** k for k in range(9)], 8)


def test_xi_expand_polynomial_sides():
    assert expand("xi(3:)", 8) == PowerSeries.from_list([1, 0, 0, -1], 8)
    assert expand("xi(:3)", 8) == PowerSeries.from_list(
        [1 if k % 3 == 0 else 0 for k in range(9)], 8)


def test_xi_cancellation():
    for text, factor in (("xi(2:3)", XiFactor(4, False)),
                         ("xi'(5+:7)", XiFactor(2, True)),
                         ("xi''(1:2,3+)", XiFactor(6, False))):
        e = parse_xi_expr(text)
        padded = XiExpression(e.numerator + (factor,), e.denominator + (factor,))
        assert xi_expand(e, 24) == xi_expand(padded, 24)


def test_xi_constructor_validation():
    # an exponent is an int >= 1, a bool refused, on either side; xi() passes
    # it on as it is, so 2.5 is not read as 2
    for bad in (0, -1, 2.5, "3", True):
        message = f"^factor exponent must be an int >= 1, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            XiExpression((XiFactor(bad, False),), ())
        with pytest.raises(ValueError, match=message):
            XiExpression((), (XiFactor(2, True), XiFactor(bad, True)))
    with pytest.raises(ValueError, match="^factor exponent must be an int >= 1, got 2.5$"):
        xi([2.5])
    with pytest.raises(ValueError, match="^factor exponent must be an int >= 1, got 2.5$"):
        xi([], [(2.5, True)])


def test_xi_plus_flag_must_be_a_bool():
    # a flag that is not a bool would expand by its truthiness and yet be
    # structurally unequal to the bool form, one xi form as two table keys;
    # xi() passes it on as it is
    for bad in ("no", 1, 0, None):
        message = f"^factor plus flag must be a bool, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            XiExpression((XiFactor(2, bad),))
        with pytest.raises(ValueError, match=message):
            XiExpression((), (XiFactor(3, False), XiFactor(2, bad)))
        with pytest.raises(ValueError, match=message):
            xi([(2, bad)])
        with pytest.raises(ValueError, match=message):
            xi([], [(2, bad)])


def test_xi_expression_is_a_hashable_frozen_value():
    # structural equality and equal hashes make expressions table keys; the
    # defaults are the empty factor lists, and the two lists are the fields
    assert XiExpression.__slots__ == ("numerator", "denominator")
    e = xi([2, (3, True)], [5, 1])
    same = XiExpression((XiFactor(2, False), XiFactor(3, True)),
                        (XiFactor(5, False), XiFactor(1, False)))
    assert e == same == parse_xi_expr("xi'(2,3+:5)") and hash(e) == hash(same)
    assert XiExpression() == XiExpression((), ()) == parse_xi_expr("xi(:)")
    assert e != xi([2, (3, True)], [5]) and e != xi([(3, True), 2], [5, 1])
    assert e != xi([2, (3, True)], [1, 5])
    assert {e: "E"}[same] == "E"
    assert repr(XiExpression((XiFactor(2, True),))) == (
        "XiExpression(numerator=(XiFactor(exponent=2, plus=True),), denominator=())")
    for name in ("numerator", "denominator"):
        with pytest.raises(AttributeError):
            setattr(e, name, ())


# ---------------------------------------------------------------------------
# theta series, both routes
# ---------------------------------------------------------------------------

def test_theta_subst_constant_input():
    ones = PowerSeries.from_list([1] + [0] * 8, 8)
    theta = theta_from_poincare_subst(ones, 8)
    assert theta == PowerSeries.from_list([1, -1, 2, -2, 2, -2, 2, -2, 2], 8)


def test_theta_paths_agree_on_a2():
    counts = PowerSeries.from_list([1] * 17, 16)
    assert theta_from_poincare_formula(counts, 16) == theta_from_poincare_subst(counts, 16)
    # frozen from the closed form q + (1-q^2)/(1+q+q^2)
    assert theta_from_poincare_subst(counts, 6) == PowerSeries.from_list(
        [1, 0, -1, 2, -1, -1, 2], 6)


def test_theta_integrality_and_head():
    for tag, param in (("D", 5), ("E8", 8), ("Atilde", 6)):
        counts = PowerSeries.from_list(loop_counts(build_ade(GraphFamily(tag, param)), 24))
        theta = theta_from_poincare_formula(counts, 24)
        assert theta.coeffs[0] == 1
        assert all(c.denominator == 1 for c in theta.coeffs)
        assert theta == theta_from_poincare_subst(counts, 24)


# Fraction implementations of both routes, used as oracles: the rational
# binomial sum, and series composition with the inner series q/(1+q)^2.

def _oracle_formula(counts, order):
    out = [counts.coeffs[0]]
    for r in range(1, order + 1):
        acc = Fraction(0)
        for k in range(r + 1):
            term = Fraction(2 * r, r + k) * comb(r + k, r - k) * counts.coeffs[k]
            acc += term if (r - k) % 2 == 0 else -term
        if r == 1:
            acc += 1
        out.append(acc)
    return PowerSeries(order, out)


def _oracle_subst(counts, order):
    one_plus_q = PowerSeries.from_list([1, 1], order)
    inner = series_invert(one_plus_q * one_plus_q).shift(1)
    composed = series_compose(PowerSeries.from_list(counts.coeffs, order), inner)
    prefactor = PowerSeries.from_list([1, -1], order) * series_invert(one_plus_q)
    return prefactor * composed + monomial(1, order)


def _assert_matches_oracles(counts, order):
    for route, oracle in ((theta_from_poincare_formula, _oracle_formula),
                          (theta_from_poincare_subst, _oracle_subst)):
        got = route(counts, order)
        assert got == oracle(counts, order)
        assert all(type(c) is Fraction for c in got.coeffs)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=40).flatmap(lambda order: st.tuples(
    st.just(order),
    st.lists(st.integers(min_value=-50, max_value=50), min_size=order, max_size=order + 3))))
def test_theta_routes_match_fraction_oracles(case):
    order, tail = case
    _assert_matches_oracles(PowerSeries.from_list([1] + tail), order)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=60).flatmap(lambda order: st.tuples(
    st.just(order),
    st.lists(st.integers(min_value=-50, max_value=50), min_size=order, max_size=order + 3))))
def test_theta_routes_match_integer_oracles(case):
    order, tail = case
    counts = PowerSeries.from_list([1] + tail)
    for route, oracle in ((theta_from_poincare_formula, theta_formula_binomials),
                          (theta_from_poincare_subst, theta_subst_alternating_sums)):
        got, want = route(counts, order), oracle(counts, order)
        assert (got.order, got.nums, got.den) == (want.order, want.nums, want.den)
        # integer counts give an integer theta
        assert got.den == 1


def test_formula_rows_are_the_binomial_weights():
    # theta_r is linear in c_1, c_2, ...: raising c_k by one raises theta_r
    # by the weight of c_k in row r of the recurrence
    order = 40
    base = theta_from_poincare_formula(PowerSeries.from_list([1] + [0] * order), order)
    # the weight of c_0 is 2 (-1)^r; theta_0 = c_0 and theta_1 gains 1
    assert base.coeffs == tuple([1, -1] + [2 * (-1) ** r for r in range(2, order + 1)])
    for k in range(1, order + 1):
        unit = [1] + [0] * order
        unit[k] = 1
        theta = theta_from_poincare_formula(PowerSeries.from_list(unit), order)
        assert [t - b for t, b in zip(theta.coeffs, base.coeffs)] == [
            (-1) ** (r - k) * Fraction(2 * r, r + k) * comb(r + k, r - k) if r >= k else 0
            for r in range(order + 1)]


@pytest.mark.parametrize("order", [0, 1, 2])
def test_theta_routes_boundary_orders(order):
    counts = PowerSeries.from_list([1, 2, -3, 5])
    _assert_matches_oracles(counts, order)
    theta = theta_from_poincare_subst(counts, order)
    assert theta == theta_from_poincare_formula(counts, order)
    assert theta.order == order and theta.coeffs[0] == 1


_COUNTS = PowerSeries.from_list([1, 1, 2, 5, 14])
_NEGATIVE_ORDER_CALLS = {
    "xi_expand": lambda order: xi_expand(parse_xi_expr("xi(1:2)"), order),
    "t_series_of_measure": lambda order: t_series_of_measure(basic_measure("d", 2), order),
    "RealMeasure.moments": lambda order: pushforward_real(basic_measure("d", 2)).moments(order),
    "theta_from_poincare_formula": lambda order: theta_from_poincare_formula(_COUNTS, order),
    "theta_from_poincare_subst": lambda order: theta_from_poincare_subst(_COUNTS, order),
    "loop_counts": lambda order: loop_counts(build_ade(GraphFamily("A", 3)), order),
    "t_closed_form": lambda order: closed_form_fraction((1, -1), 3, "unprimed").expand(order),
}


@pytest.mark.parametrize("name", _NEGATIVE_ORDER_CALLS)
@pytest.mark.parametrize("order", [-1, -5])
def test_negative_order_is_refused(name, order):
    # every series and count routine refuses a negative order with one
    # ValueError and one message; order 0 still works
    with pytest.raises(ValueError, match=f"^order must be nonnegative, got {order}$"):
        _NEGATIVE_ORDER_CALLS[name](order)
    assert _NEGATIVE_ORDER_CALLS[name](0) is not None


@pytest.mark.parametrize("route", [theta_from_poincare_formula, theta_from_poincare_subst])
@pytest.mark.parametrize("counts,message", [
    (_COUNTS, "need loop counts up to the requested order"),
    (PowerSeries.from_list([2, 1, 2, 5, 14, 42]), "loop count sequence must start at 1"),
    (PowerSeries.from_list([1, Fraction(1, 2), 2, 5, 14, 42]), "loop counts must be integers"),
], ids=["short", "not-one", "not-integer"])
def test_theta_routes_refuse_bad_counts(route, counts, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        route(counts, 5)


@pytest.mark.parametrize("tag", FAMILY_TAGS)
def test_theta_routes_give_the_table_at_order_160(tag):
    fam = GraphFamily(tag, {"A": 9, "Atilde": 10, "D": 9, "Dtilde": 9}.get(tag, 0))
    counts = PowerSeries.from_list(loop_counts(build_ade(fam), 160))
    expected = xi_expand(theorem_2_5_lookup(fam), 160)
    for route in (theta_from_poincare_formula, theta_from_poincare_subst):
        theta = route(counts, 160)
        assert all(c.denominator == 1 for c in theta.coeffs)
        assert t_from_theta(theta) == expected


# the formula route's forward substitution, its kept binomial table and its
# branches (m_r = 0, 1, -1 and any other value)

def _signed_moments(theta):
    """m_0..m_order of a theta: theta_1 = m_1 + 1, theta_r = m_r otherwise."""
    m = list(theta.nums)
    if len(m) > 1:
        m[1] -= 1
    return m


@pytest.fixture
def fresh_table(monkeypatch):
    """An empty kept table for the test, the module's own restored after it."""
    monkeypatch.setattr(transforms, "_COLUMNS", [])


def test_formula_theta_matches_the_oracles_on_every_family():
    seen = set()
    for tag, params in DEFAULT_SIZE_MATRIX.items():
        for param in params:
            counts = PowerSeries.from_list(loop_counts(build_ade(GraphFamily(tag, param)), 160))
            got = theta_from_poincare_formula(counts, 160)
            assert got == theta_formula_row_recurrence(counts, 160)
            assert got == theta_formula_binomials(counts, 160)
            seen.update(_signed_moments(got)[1:])
    # the graphs' m_r take every branch of the substitution
    assert seen == {-2, -1, 0, 1, 2}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.integers(-3, 3), st.integers(-10**40, 10**40)), max_size=60))
def test_formula_theta_inverts_the_binomial_moment_identity(tail):
    # c_k = C(2k, k) m_0 + sum_(r=1..k) C(2k, k - r) m_r with m_0 = 1
    m = [1] + tail
    order = len(tail)
    counts = [sum(comb(2 * k, k - r) * m[r] for r in range(k + 1)) for k in range(order + 1)]
    theta = theta_from_poincare_formula(PowerSeries.from_list(counts), order)
    assert (theta.den, _signed_moments(theta)) == (1, m)


@pytest.mark.parametrize("order", [0, 1, 2, 7, 64, 200])
def test_kept_columns_are_the_binomials(fresh_table, order):
    theta_from_poincare_formula(PowerSeries.from_list([1] * (order + 1)), order)
    assert len(transforms._COLUMNS) == order
    for r, col in enumerate(transforms._COLUMNS):
        assert col == [comb(2 * k, k - r) for k in range(r + 1, order + 1)]


@pytest.fixture
def column_builds(monkeypatch):
    """The orders at which the formula route makes its binomial columns."""
    orders, make = [], transforms._binomial_columns
    monkeypatch.setattr(transforms, "_binomial_columns", lambda n: orders.append(n) or make(n))
    return orders


def test_kept_table_grows_and_is_reused(fresh_table, column_builds):
    counts = PowerSeries.from_list(loop_counts(build_ade(GraphFamily("D", 9)), 200))
    for order, kept in ((160, 160), (20, 160), (200, 200), (64, 200)):
        assert theta_from_poincare_formula(counts, order) == theta_formula_row_recurrence(counts, order)
        assert len(transforms._COLUMNS) == kept
    # columns are made only when the kept table grows
    assert column_builds == [160, 200]


def test_calls_above_the_bound_keep_no_columns(fresh_table, column_builds, monkeypatch):
    monkeypatch.setattr(transforms, "_KEPT_ORDER", 16)
    counts = PowerSeries.from_list(loop_counts(build_ade(GraphFamily("Atilde", 10)), 60))
    theta_from_poincare_formula(counts, 10)
    assert len(transforms._COLUMNS) == 10
    for order in [16, *range(17, 61)]:
        assert theta_from_poincare_formula(counts, order) == theta_formula_row_recurrence(counts, order)
        assert len(transforms._COLUMNS) == 16
    # each call above the bound makes its own columns
    assert column_builds == [10, 16, *range(17, 61)]


def test_kept_order_is_the_cli_order_cap():
    # a raised CLI cap without a matching table bound would leave the largest
    # CLI orders to columns made per call
    assert transforms._KEPT_ORDER == MAX_ORDER


def test_t_from_theta_degenerate():
    assert t_from_theta(monomial(1, 8)) == PowerSeries.zero(8)
    assert t_from_theta(PowerSeries.from_list([1], 8)) == PowerSeries.from_list([1], 8)


def test_a2_pipeline_matches_table():
    counts = PowerSeries.from_list(loop_counts(build_ade(GraphFamily("A", 2)), 16))
    assert graph_t_series(counts, 16) == expand("xi(2:3)", 16)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_t_closed_form_matches_xi():
    for l in (1, 2, 3):
        for n in (l + 1, 7, 9):
            poly = (1,) + (0,) * (l - 1) + (-1,)
            assert closed_form_fraction(poly, n, "unprimed").expand(32) == expand(
                f"xi'({l},{n - l}:{n})", 32)
            assert closed_form_fraction(poly, n, "primed").expand(32) == expand(
                f"xi'({l},{n - l}+:{n}+)", 32)


def test_t_closed_form_uniform_case():
    assert closed_form_fraction((1,), 1, "unprimed").expand(16) == expand("xi'(1+:1)", 16)


@st.composite
def _closed_form_cases(draw):
    n = draw(st.integers(1, 20))
    tail = draw(st.lists(st.fractions(-3, 3, max_denominator=6), max_size=n - 1))
    variant = draw(st.sampled_from(["unprimed", "primed"]))
    return (1, *tail), n, variant, draw(st.integers(0, 3 * n))


@settings(max_examples=200, deadline=None)
@given(_closed_form_cases())
def test_t_closed_form_matches_fraction_oracle(case):
    # random P with P(0) = 1 and deg P < n, against the Fraction-list route
    poly, n, variant, order = case
    got = closed_form_fraction(poly, n, variant).expand(order)
    want = t_closed_form_by_fractions(*case)
    assert (got.order, got.nums, got.den) == (want.order, want.nums, want.den)


def test_t_closed_form_errors():
    with pytest.raises(DegreeTooLarge):
        closed_form_fraction((1, 0, -1), 2, "unprimed")
    for poly in ((2, 1), (), (0, 0)):
        with pytest.raises(ValueError, match="^polynomial must have constant term 1$"):
            closed_form_fraction(poly, 4, "unprimed")
    with pytest.raises(ValueError):
        closed_form_fraction((1, 1), 4, "sideways")


# ---------------------------------------------------------------------------
# the T table
# ---------------------------------------------------------------------------

def test_lookup_examples():
    assert theorem_2_5_lookup(GraphFamily("E7", 7)) == parse_xi_expr("xi(12:4,9+)")
    assert theorem_2_5_lookup(GraphFamily("E8", 8)) == parse_xi_expr("xi(5+,9+:15+)")
    assert theorem_2_5_lookup(GraphFamily("A", 4)) == parse_xi_expr("xi(4:5)")
    assert theorem_2_5_lookup(GraphFamily("Dtilde", 6)) == parse_xi_expr("xi''(5+:4)")


def test_lookup_errors():
    with pytest.raises(UnsupportedFamily):
        theorem_2_5_lookup(GraphFamily("Atilde", 5))
    with pytest.raises(UnsupportedFamily):
        theorem_2_5_lookup(GraphFamily("A", 1))


def test_xi_helper_equivalent():
    # equality as rational functions is equality of the fractions
    a = xi([(2, True)], [3])
    b = xi([4], [2, 3])
    assert a != b and a.fraction() == b.fraction()
    assert a.fraction() != xi([2], [3]).fraction()
    # 1 - q^65 and 1 first differ at q^65, past any fixed sampling order
    assert parse_xi_expr("xi(65:)").fraction() != parse_xi_expr("xi(:)").fraction()


@pytest.mark.parametrize("text", ["xi(:)", "xi(2+:3)", "xi''(5+:4)", "xi(5+,9+:15+)", "xi(65:)"])
def test_xi_fraction_expands_to_the_xi_series(text):
    e = parse_xi_expr(text)
    for order in (0, 7, 80):
        assert e.fraction().expand(order) == xi_expand(e, order)


def test_closed_form_fraction_is_the_closed_form_t():
    # the numerator P(q) +- q^n P(1/q) over (1 - q)(1 -+ q^n) and the lcm of
    # the denominators of P
    got = closed_form_fraction((1, Fraction(1, 2)), 3, "primed")
    assert (got.nums, got.factors, got.scale) == ((2, 1, -1, -2), ((1, False), (3, True)), 2)
    for poly, n in (((1,), 1), ((1, -1), 3), ((1, 0, 0, -1), 7)):
        for variant in ("unprimed", "primed"):
            assert closed_form_fraction(poly, n, variant).expand(40) == \
                t_closed_form_by_fractions(poly, n, variant, 40)


def test_series_fraction_equality_is_cross_multiplication():
    # 1 + q = (1 - q^2)/(1 - q) = (2 + 2q)/2; 1 - q^65 and 1 first differ
    # at q^65, past any fixed order of expansion
    one_plus_q = SeriesFraction((1, 1))
    assert one_plus_q == SeriesFraction((1, 0, -1), [(1, False)])
    assert one_plus_q == SeriesFraction((2, 2), (), 2)
    assert one_plus_q != SeriesFraction((1, 1), (), 2)
    assert SeriesFraction((1,) + (0,) * 64 + (-1,)) != SeriesFraction((1,))
    # the factors both sides share are cancelled, and the products padded
    assert one_plus_q.cross(SeriesFraction((1,), [(1, True)])) == ([1, 2, 1], [1, 0, 0])
    assert SeriesFraction((1,), [(2, False)]).cross(SeriesFraction((1, 0), [(2, False)])) == (
        [1, 0], [1, 0])
    assert one_plus_q != (1, 1) and one_plus_q.__eq__((1, 1)) is NotImplemented


def test_series_fraction_expands_by_running_sums():
    half_over_one_minus_q = SeriesFraction((1,), [(1, False)], 2)
    assert half_over_one_minus_q.expand(3) == PowerSeries.from_list([Fraction(1, 2)] * 4)
    assert SeriesFraction((1, 2, 3, 4)).expand(1) == PowerSeries.from_list([1, 2])
    assert SeriesFraction((), [(1, True)]).expand(2) == PowerSeries.zero(2)
    with pytest.raises(ValueError, match="^order must be nonnegative, got -1$"):
        half_over_one_minus_q.expand(-1)


def test_fraction_sum_is_the_sum_of_the_series():
    a = SeriesFraction((1, 2), [(3, True)], 3)
    b = SeriesFraction((1, -1, 4), [(1, False), (3, True)])
    terms = [(Fraction(1, 2), a, 0), (-3, b, 2), (Fraction(-2, 5), a, 1), (1, b, 0)]
    total = fraction_sum(terms)
    # the union of the denominators, each factor as often as one term has it
    assert sorted(total.factors) == [(1, False), (3, True)]
    want = PowerSeries.zero(20)
    for coef, f, shift in terms:
        want = want + f.expand(20).shift(shift) * Fraction(coef)
    assert total.expand(20) == want
    assert fraction_sum([]) == SeriesFraction(())


# a xi form's fraction from small factor lists, and a term of a sum: a
# nonzero coefficient, the fraction, a monomial shift
_FORMS = st.builds(lambda num, den: xi(num, den).fraction(),
                   *[st.lists(st.tuples(st.integers(1, 6), st.booleans()), max_size=3)] * 2)
_TERMS = st.tuples(st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool),
                   _FORMS, st.integers(0, 3))


@settings(max_examples=60, deadline=None)
@given(st.lists(_TERMS, min_size=1, max_size=4), st.integers(0, 24))
def test_fraction_sum_expands_to_the_sum_of_its_terms(terms, order):
    want = PowerSeries.zero(order)
    for coef, f, shift in terms:
        want = want + f.expand(order).shift(shift) * coef
    assert fraction_sum(terms).expand(order) == want


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1, Fraction(1)]), _FORMS, st.integers(0, 24))
def test_one_plain_term_is_its_own_fraction(one, f, order):
    total = fraction_sum([(one, f, 0)])
    assert total == f
    assert total.expand(order) == f.expand(order)
