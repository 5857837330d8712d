from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from cyclade.exact import PowerSeries, QPolynomial, series_compose, series_invert
from cyclade.exprs import parse_xi_expr
from cyclade.graphs import FAMILY_TAGS, GraphFamily, build_ade, loop_counts
from cyclade.transforms import (
    DegreeTooLarge,
    UnsupportedFamily,
    XiExpression,
    XiFactor,
    graph_t_series,
    t_closed_form,
    t_from_theta,
    theorem_2_5_lookup,
    theta_from_poincare_formula,
    theta_from_poincare_subst,
    xi,
    xi_expand,
)
from oracles import (
    t_closed_form_by_fractions,
    theta_formula_binomials,
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
    assert expand("xi(:)", 8) == PowerSeries.one(8)
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
        padded = XiExpression(e.numerator + (factor,), e.denominator + (factor,),
                              e.normalizer)
        assert xi_expand(e, 24) == xi_expand(padded, 24)


def test_xi_constructor_validation():
    with pytest.raises(ValueError):
        XiExpression((XiFactor(0, False),), (), "")
    with pytest.raises(ValueError):
        XiExpression((), (), "triple")


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
    return prefactor * composed + PowerSeries.monomial(1, order)


def _assert_matches_oracles(counts, order):
    for route, oracle in ((theta_from_poincare_formula, _oracle_formula),
                          (theta_from_poincare_subst, _oracle_subst)):
        got = route(counts, order)
        assert got == oracle(counts, order)
        assert all(type(c) is Fraction for c in got.coeffs)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=40).flatmap(lambda order: st.tuples(
    st.just(order),
    st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=12),
             min_size=order, max_size=order + 3))))
def test_theta_routes_match_fraction_oracles(case):
    order, tail = case
    _assert_matches_oracles(PowerSeries.from_list([1] + tail), order)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=60).flatmap(lambda order: st.tuples(
    st.just(order),
    st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=12),
             min_size=order, max_size=order + 3),
    st.integers(min_value=2, max_value=12))))
def test_theta_routes_match_integer_oracles(case):
    order, tail, den = case
    # one count with denominator den makes the common denominator D > 1
    counts = PowerSeries.from_list([1] + tail + [Fraction(1, den)])
    assert counts.den > 1
    for route, oracle in ((theta_from_poincare_formula, theta_formula_binomials),
                          (theta_from_poincare_subst, theta_subst_alternating_sums)):
        got, want = route(counts, order), oracle(counts, order)
        assert (got.order, got.nums, got.den) == (want.order, want.nums, want.den)


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
    # non-integer counts, so the common denominator is 6
    counts = PowerSeries.from_list([1, Fraction(1, 2), Fraction(-2, 3), 5])
    _assert_matches_oracles(counts, order)
    theta = theta_from_poincare_subst(counts, order)
    assert theta == theta_from_poincare_formula(counts, order)
    assert theta.order == order and theta.coeffs[0] == 1


@pytest.mark.parametrize("tag", FAMILY_TAGS)
def test_theta_routes_give_the_table_at_order_160(tag):
    fam = GraphFamily(tag, {"A": 9, "Atilde": 10, "D": 9, "Dtilde": 9}.get(tag, 0))
    counts = PowerSeries.from_list(loop_counts(build_ade(fam), 160))
    expected = xi_expand(theorem_2_5_lookup(fam), 160)
    for route in (theta_from_poincare_formula, theta_from_poincare_subst):
        theta = route(counts, 160)
        assert all(c.denominator == 1 for c in theta.coeffs)
        assert t_from_theta(theta) == expected


def test_t_from_theta_degenerate():
    assert t_from_theta(PowerSeries.monomial(1, 8)) == PowerSeries.zero(8)
    assert t_from_theta(PowerSeries.one(8)) == PowerSeries.one(8)


def test_a2_pipeline_matches_table():
    counts = PowerSeries.from_list(loop_counts(build_ade(GraphFamily("A", 2)), 16))
    assert graph_t_series(counts, 16) == expand("xi(2:3)", 16)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_t_closed_form_matches_xi():
    for l in (1, 2, 3):
        for n in (l + 1, 7, 9):
            poly = QPolynomial([1] + [0] * (l - 1) + [-1])
            assert t_closed_form(poly, n, "unprimed", 32) == expand(
                f"xi'({l},{n - l}:{n})", 32)
            assert t_closed_form(poly, n, "primed", 32) == expand(
                f"xi'({l},{n - l}+:{n}+)", 32)


def test_t_closed_form_uniform_case():
    assert t_closed_form(QPolynomial([1]), 1, "unprimed", 16) == expand("xi'(1+:1)", 16)


@st.composite
def _closed_form_cases(draw):
    n = draw(st.integers(1, 20))
    tail = draw(st.lists(st.fractions(-3, 3, max_denominator=6), max_size=n - 1))
    variant = draw(st.sampled_from(["unprimed", "primed"]))
    return QPolynomial([1] + tail), n, variant, draw(st.integers(0, 3 * n))


@settings(max_examples=200, deadline=None)
@given(_closed_form_cases())
def test_t_closed_form_matches_fraction_oracle(case):
    # random P with P(0) = 1 and deg P < n, against the Fraction-list route
    got = t_closed_form(*case)
    want = t_closed_form_by_fractions(*case)
    assert (got.order, got.nums, got.den) == (want.order, want.nums, want.den)


def test_t_closed_form_errors():
    with pytest.raises(DegreeTooLarge):
        t_closed_form(QPolynomial([1, 0, -1]), 2, "unprimed", 8)
    with pytest.raises(ValueError):
        t_closed_form(QPolynomial([2, 1]), 4, "unprimed", 8)
    with pytest.raises(ValueError):
        t_closed_form(QPolynomial([1, 1]), 4, "sideways", 8)


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
    a = xi([(2, True)], [3])
    b = xi([4], [2, 3])
    assert a.equivalent(b, 40)
    assert not a.equivalent(xi([2], [3]), 40)
