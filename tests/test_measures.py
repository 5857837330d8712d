from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cyclade.exact import (
    CyclotomicNumber,
    NotRational,
    QPolynomial,
    cyclo_as_rational,
    cyclo_conj,
    cyclo_make,
    root_of_unity,
)
from cyclade.exprs import parse_measure_expr, parse_xi_expr
from cyclade.graphs import GraphFamily, build_ade, loop_counts
from cyclade.measures import (
    BASE_KINDS,
    DENSITY_POLYS,
    CyclotomicMeasure,
    SupportTooLarge,
    SymmetryViolation,
    basic_measure,
    candidate_measure,
    cyclotomic_expansion,
    density_measure,
    expand_over_level,
    level,
    lincomb,
    measure_equal,
    moment,
    pushforward_real,
    reconstruct_expansion,
    t_series_of_measure,
)
from cyclade.transforms import xi_expand
from cyclade.verify import DEFAULT_SIZE_MATRIX
from oracles import expand_over_level_loop, expansion_by_moments, level_loop, t_series_by_moments


def alpha(n, kind="d"):
    return density_measure(DENSITY_POLYS["alpha"], kind, n)


def gamma(n, kind="d"):
    return density_measure(DENSITY_POLYS["gamma"], kind, n)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def test_uniform_on_two_roots():
    d1 = basic_measure("d", 1)
    assert d1.order == 2
    assert d1.weights[0] == Fraction(1, 2)
    assert d1.weights[1] == Fraction(1, 2)


def test_twelfth_root_quarter_weights():
    e = basic_measure("ddoubleprime", 1)
    assert e.order == 12
    for j in range(12):
        expected = Fraction(1, 4) if j in (1, 5, 7, 11) else Fraction(0)
        assert e.weights[j] == expected


def test_third_uniform_equals_degree_one_density():
    assert measure_equal(basic_measure("dtripleprime", 1), alpha(3))


def test_mass_and_probability():
    for kind in ("d", "dprime", "ddoubleprime", "dtripleprime"):
        e = basic_measure(kind, 3)
        assert e.mass() == 1
        assert e.is_probability()
    signed = lincomb([(Fraction(2), basic_measure("d", 2)),
                      (Fraction(-1), basic_measure("d", 1))])
    assert signed.mass() == 1
    assert signed.is_probability()  # the two-root deficit cancels exactly
    negative = lincomb([(Fraction(-1), basic_measure("d", 1))])
    assert not negative.is_probability()


def test_density_non_allowed_cases():
    assert measure_equal(gamma(2), parse_measure_expr("2*d_2 - d_1"))
    assert alpha(1).is_zero()


def test_density_alpha12_weight_table():
    sqrt3 = cyclo_make(24, {2: 1, 22: 1})
    expected = [CyclotomicNumber.zero(24), (2 - sqrt3) * Fraction(1, 48),
                Fraction(1, 48), Fraction(1, 24), Fraction(3, 48),
                (2 + sqrt3) * Fraction(1, 48), Fraction(1, 12)]
    a12 = alpha(12)
    for j, value in enumerate(expected):
        assert a12.weights[j] == value


def test_lincomb_examples():
    combo = lincomb([(Fraction(2), basic_measure("d", 2)),
                     (Fraction(-1), basic_measure("d", 1))])
    assert combo.order == 4
    assert combo.weights[0].is_zero()
    assert combo.weights[1] == Fraction(1, 2)
    same = lincomb([(Fraction(1), combo)])
    assert measure_equal(same, combo)
    dtilde5 = candidate_measure(GraphFamily("Dtilde", 5), "thm71")
    assert measure_equal(dtilde5, lincomb([(Fraction(1, 2), basic_measure("d", 3)),
                                           (Fraction(1, 2), basic_measure("dprime", 1))]))


def test_measure_equal_examples():
    assert measure_equal(basic_measure("d", 1), basic_measure("d", 1))
    assert measure_equal(lincomb([(Fraction(2), alpha(3))]),
                         parse_measure_expr("3*d_3 - d_1"))
    assert measure_equal(lincomb([(Fraction(2), density_measure(DENSITY_POLYS["beta"], "dprime", 3))]),
                         parse_measure_expr("3*d'_3 - d'_1"))
    assert not measure_equal(basic_measure("d", 1), basic_measure("d", 2))


def _density_by_horner(poly, kind, n):
    """The former route to density weights, kept as an oracle: Horner
    evaluation of P at u^2 in the cyclotomic field, its real part, times the
    base weight, at every position."""
    base = basic_measure(kind, n)
    out = []
    for j, w in enumerate(base.weights):
        if w.is_zero():
            out.append(w)
            continue
        x = root_of_unity(base.order, (2 * j) % base.order)
        value = None
        for c in reversed(poly.coeffs):
            value = c if value is None else value * x + c
        if not isinstance(value, Fraction):
            value = (value + cyclo_conj(value)) * Fraction(1, 2)
        out.append(w * value)
    return out


@pytest.mark.parametrize("kind", BASE_KINDS)
def test_density_matches_horner_oracle(kind):
    # alpha, beta, gamma are 1 - u^2, 1 - u^4, 1 - u^6; add higher 1 - u^(2l)
    polys = list(DENSITY_POLYS.values()) + [QPolynomial([1] + [0] * (l - 1) + [-1])
                                            for l in (5, 8)]
    for poly in polys:
        for n in range(1, 21):
            e = density_measure(poly, kind, n)
            expected = _density_by_horner(poly, kind, n)
            assert len(expected) == e.order
            for j, value in enumerate(expected):
                assert e.weight(j) == value, (poly, kind, n, j)


def test_memoized_atoms_are_shared_and_unchanged():
    a = density_measure(DENSITY_POLYS["alpha"], "d", 6)
    d = basic_measure("dprime", 3)
    assert density_measure(DENSITY_POLYS["alpha"], "d", 6) is a
    assert basic_measure("dprime", 3) is d
    assert parse_measure_expr("alpha_6") is a
    before = [(m.order, m.reps, [w.coeffs for w in m.reps]) for m in (a, d)]
    lincomb([(Fraction(-2), a), (Fraction(3), d)])
    a.embed(36)
    d.embed(24)
    parse_measure_expr("2*alpha_6 - d'_3 + alpha_6/5")
    moment(a, 4)
    assert [(m.order, m.reps, [w.coeffs for w in m.reps]) for m in (a, d)] == before


def test_symmetry_enforced():
    with pytest.raises(SymmetryViolation):
        CyclotomicMeasure(4, [Fraction(1), Fraction(0), Fraction(0), Fraction(0)])
    with pytest.raises(SymmetryViolation):
        CyclotomicMeasure(4, [root_of_unity(4)] * 4)  # complex weight


# ---------------------------------------------------------------------------
# moments and T series
# ---------------------------------------------------------------------------

def test_moment_examples():
    d1 = basic_measure("d", 1)
    assert all(moment(d1, 2 * k) == 1 for k in range(5))
    assert all(moment(d1, 2 * k + 1).is_zero() for k in range(5))
    d3 = basic_measure("d", 3)
    assert moment(d3, 2).is_zero()
    assert moment(d3, 6) == 1


def test_t_series_examples():
    for n in (1, 2, 5, 9):
        assert t_series_of_measure(basic_measure("d", n), 32) == xi_expand(
            parse_xi_expr(f"xi'({n}+:{n})"), 32)
    assert t_series_of_measure(basic_measure("d", 1), 8).coeffs == tuple(
        Fraction(2 * k + 1) for k in range(9))
    for n in (5, 8):
        assert t_series_of_measure(gamma(n, "dprime"), 32) == xi_expand(
            parse_xi_expr(f"xi'(3,{n - 3}+:{n}+)"), 32)


def test_t_additivity():
    a, b = basic_measure("d", 4), alpha(6)
    combo = lincomb([(Fraction(1, 3), a), (Fraction(2, 3), b)])
    expected = t_series_of_measure(a, 24) * Fraction(1, 3) + \
        t_series_of_measure(b, 24) * Fraction(2, 3)
    assert t_series_of_measure(combo, 24) == expected


# ---------------------------------------------------------------------------
# pushforward
# ---------------------------------------------------------------------------

def test_pushforward_two_roots():
    real = pushforward_real(basic_measure("d", 1))
    assert len(real.atoms) == 1
    x, w = real.atoms[0]
    assert x == 4
    assert w == 1


def test_pushforward_three_path():
    real = pushforward_real(alpha(2, "dprime"))
    assert len(real.atoms) == 1
    x, w = real.atoms[0]
    assert x == 2
    assert w == 1


def test_density_mass_table():
    # allowed cases are probability measures; the folded cases have the
    # masses implied by their exceptional identities
    for name, poly in DENSITY_POLYS.items():
        for kind in ("d", "dprime", "ddoubleprime", "dtripleprime"):
            for n in (poly.degree + 1, 8):
                e = density_measure(poly, kind, n)
                assert e.mass() == 1
                assert e.is_probability()
    assert alpha(1).mass() == 0
    assert gamma(2).mass() == 1
    assert alpha(1, "dprime").mass() == 2
    assert density_measure(DENSITY_POLYS["beta"], "dprime", 2).mass() == 2
    assert gamma(2, "dprime").mass() == 1
    assert gamma(3, "dprime").mass() == 2


def test_pushforward_moments_by_binomial_expansion():
    from math import comb

    for e in (alpha(6), candidate_measure(GraphFamily("Dtilde", 5), "thm71")):
        real = pushforward_real(e)
        mus = real.moments(6)
        for k in range(7):
            via_moments = sum((comb(2 * k, m) * moment(e, 2 * k - 2 * m)
                               for m in range(2 * k + 1)),
                              start=CyclotomicNumber.zero(e.order))
            assert mus[k] == via_moments


def test_pushforward_moments_match_loops():
    fam = GraphFamily("E7", 7)
    e = candidate_measure(fam, "thm71")
    real = pushforward_real(e)
    assert real.moments(10) == loop_counts(build_ade(fam), 10)
    assert real.total_mass() == 1


def _pushforward_order_cases():
    for tag, params in DEFAULT_SIZE_MATRIX.items():
        for m in params:
            for variant in ("thm71", "thm87"):
                yield candidate_measure(GraphFamily(tag, m), variant)
    for n in range(1, 40):
        for kind in BASE_KINDS:
            yield basic_measure(kind, n)
        for poly in DENSITY_POLYS.values():
            for kind in BASE_KINDS[:3]:
                yield density_measure(poly, kind, n)


def test_pushforward_locations_strictly_increase():
    # the locations are listed without any numeric sort; compare their values
    for e in _pushforward_order_cases():
        xs = [x.numeric(dps=30).real for x, _ in pushforward_real(e).atoms]
        assert all(a < b for a, b in zip(xs, xs[1:])), e


# ---------------------------------------------------------------------------
# the measure table
# ---------------------------------------------------------------------------

def test_candidate_expressions():
    cases = {
        ("E8", 8, "thm71"): "alpha'_15 + gamma'_15 - (d'_5 + d'_3)/2",
        ("E6", 6, "thm87"): "(d''_2 + 2*alpha''_2 + 3*d'''_1)/6",
        ("E7", 7, "thm87"): "(2*beta''_3 + d'_1)/3",
        ("E6tilde", 6, "thm71"): "(d_3 + d_3 + d_2 - d_1)/2",
    }
    for (tag, param, variant), text in cases.items():
        assert measure_equal(candidate_measure(GraphFamily(tag, param), variant),
                             parse_measure_expr(text))
    for m in (2, 6, 10):
        assert measure_equal(candidate_measure(GraphFamily("Atilde", m), "thm71"),
                             basic_measure("d", m // 2))


# ---------------------------------------------------------------------------
# expansion and level
# ---------------------------------------------------------------------------

def test_expansion_alpha():
    for n in (3, 5, 9):
        res = cyclotomic_expansion(alpha(n), n)
        assert res.residual_ok
        assert res.coefficients[1] == 1
        assert all(v == 0 for l, v in res.coefficients.items() if l != 1)


def test_expansion_zero_measure():
    zero = lincomb([(Fraction(0), basic_measure("d", 3))])
    res = cyclotomic_expansion(zero, 3)
    assert res.residual_ok
    assert all(v == 0 for v in res.coefficients.values())


def test_expansion_e6_at_12():
    e6 = candidate_measure(GraphFamily("E6", 6), "thm71")
    res = cyclotomic_expansion(e6, 12)
    assert res.residual_ok
    # unique solution over the degree basis at n = 12, frozen from the
    # numerator polynomial (1 - q^8)(1 - q)(1 + q^3)
    assert res.coefficients == {0: 0, 1: 1, 2: 0, 3: -1, 4: 1, 5: 0, 6: 0}
    rebuilt = reconstruct_expansion(res)
    assert t_series_of_measure(rebuilt, 40) == t_series_of_measure(e6, 40)


def test_expansion_round_trip_uniform():
    res = cyclotomic_expansion(basic_measure("d", 6), 6)
    assert res.residual_ok
    assert res.coefficients[0] == 1
    assert measure_equal(reconstruct_expansion(res), basic_measure("d", 6))


def test_expansion_support_error():
    with pytest.raises(SupportTooLarge):
        cyclotomic_expansion(basic_measure("d", 3), 2)


@pytest.mark.parametrize("text,n", [("d_40 - d_20", 5), ("gamma'_250", 512)])
def test_expansion_refuses_support_not_dividing_2n(text, n):
    # d_40 - d_20 lives on the 80th roots and its moments 0..18 vanish, so a
    # sampled period test passed it with all coefficients zero
    with pytest.raises(SupportTooLarge, match=f"does not divide {2 * n}"):
        cyclotomic_expansion(parse_measure_expr(text), n)


def test_level_examples():
    for n in (1, 4, 12, 20):
        assert level(basic_measure("d", n)) == 0
    assert level(alpha(5)) == 1
    assert level(alpha(6)) == 0
    assert level(alpha(12)) == 1
    assert level(gamma(2)) == 0
    assert level(lincomb([(Fraction(0), basic_measure("d", 5))])) == 0


def test_alpha12_uniform_infeasibility():
    a12 = alpha(12)
    assert expand_over_level(a12, 0) is None
    sol = expand_over_level(a12, 1)
    assert sol is not None
    rebuilt = lincomb([
        (c, basic_measure("d", m) if l == 0 else density_measure(
            DENSITY_POLYS["alpha"], "d", m))
        for (l, m), c in sol.items()])
    assert measure_equal(rebuilt, a12)


def _assert_level_matches_loop(e):
    value = level(e)
    assert value == level_loop(e)
    for k in (value - 1, value, value + 1):
        assert expand_over_level(e, k) == expand_over_level_loop(e, k)


_SUPPORT_FACTOR = {"d": 2, "dprime": 4, "ddoubleprime": 12, "dtripleprime": 6}


@st.composite
def _atom_sums(draw):
    """A signed sum of up to three atoms whose supports divide one support
    order <= 60; terms may cancel."""
    support = draw(st.sampled_from([12, 20, 24, 30, 40, 60]))
    atoms = [(name, kind, m) for name in ("d", "alpha", "beta", "gamma")
             for kind, factor in _SUPPORT_FACTOR.items() if support % factor == 0
             for m in range(1, support // factor + 1) if (support // factor) % m == 0]
    terms = draw(st.lists(st.tuples(st.fractions(-3, 3, max_denominator=4),
                                    st.sampled_from(atoms)), min_size=1, max_size=3))
    return lincomb([(c, basic_measure(kind, m) if name == "d"
                     else density_measure(DENSITY_POLYS[name], kind, m))
                    for c, (name, kind, m) in terms])


@settings(max_examples=40, deadline=None)
@given(_atom_sums())
def test_level_matches_per_limit_loop(e):
    _assert_level_matches_loop(e)


def _assert_series_matches_oracle(e, order):
    got, want = t_series_of_measure(e, order), t_series_by_moments(e, order)
    assert (got.order, got.nums, got.den) == (want.order, want.nums, want.den)


@settings(max_examples=30, deadline=None)
@given(_atom_sums())
def test_even_moment_block_matches_per_moment_route(e):
    # the block computes moments 0 .. 2 floor(N/4) and reflects them; the
    # oracle makes one moment call per coefficient over the full period
    for order in range(3 * e.order + 1):
        _assert_series_matches_oracle(e, order)
    support = e.minimal_support_order() or 2
    for n in (support // 2, support, 3 * support // 2):
        assert cyclotomic_expansion(e, n) == expansion_by_moments(e, n)


@pytest.mark.parametrize("text", ["d_1", "alpha_1", "d_2", "d'_1", "beta_2", "d_1 + d'_1"])
def test_even_moment_block_at_small_supports(text):
    # support orders 2 and 4, where n = N/2 is 1 or 2 and the block holds
    # only moment 0, or moments 0 and 2; alpha_1 and beta_2 are zero measures
    e = parse_measure_expr(text)
    assert e.order in (2, 4)
    for order in range(13):
        _assert_series_matches_oracle(e, order)
    for n in (1, 2, 3, 4):
        if (2 * n) % (e.minimal_support_order() or 2) == 0:
            assert cyclotomic_expansion(e, n) == expansion_by_moments(e, n)


@pytest.mark.parametrize("text", ["gamma'_15", "alpha''_5 + d_3", "beta_20"])
def test_even_moment_block_below_half_period(text):
    # orders below floor(n/2) read only a prefix of the block
    e = parse_measure_expr(text)
    for order in range(e.order // 4):
        _assert_series_matches_oracle(e, order)


def _sqrt3_measure(*orbits):
    """The real symmetric measure at N = 24 with weight sqrt(3) = z^2 + z^22
    on the first orbit given and -sqrt(3) on the others."""
    sqrt3 = cyclo_make(24, {2: 1, 22: 1})
    weights = [Fraction(0)] * 24
    for i, r in enumerate(orbits):
        for j in (r, -r, 12 + r, 12 - r):
            weights[j % 24] = sqrt3 if i == 0 else -sqrt3
    return CyclotomicMeasure(24, weights)


def test_irrational_moments_raise_as_before():
    e = _sqrt3_measure(1)  # weight sqrt(3) at the positions 1, 11, 13, 23
    message = ("nonzero non-constant coordinates in CyclotomicNumber(order=24, "
               "coeffs=['0', '0', '8', '0', '0', '0', '-4', '0'])")
    for call in (lambda: t_series_of_measure(e, 3), lambda: t_series_of_measure(e, 40),
                 lambda: cyclotomic_expansion(e, 12), lambda: cyclo_as_rational(moment(e, 0))):
        with pytest.raises(NotRational) as info:
            call()
        assert str(info.value) == message


@pytest.mark.parametrize("orbits", [(1, 2), (2, 5), (3, 1), (1, 5), (4, 2)])
def test_irrational_moment_after_moment_zero(orbits):
    # moment 0 cancels; the first irrational moment, if any, comes later,
    # and the block raises there with the message of the per-moment route
    e = _sqrt3_measure(*orbits)
    for order in (0, 1, 2, 3, 6, 40):
        try:
            want = t_series_by_moments(e, order)
        except NotRational as err:
            with pytest.raises(NotRational) as info:
                t_series_of_measure(e, order)
            assert str(info.value) == str(err)
        else:
            assert t_series_of_measure(e, order) == want


def test_level_matches_per_limit_loop_on_graph_measures():
    for tag, params in DEFAULT_SIZE_MATRIX.items():
        for m in params:
            _assert_level_matches_loop(candidate_measure(GraphFamily(tag, m), "thm71"))


_atoms = st.sampled_from([("d", 1), ("d", 2), ("d", 3), ("d", 4), ("d", 6),
                          ("dprime", 1), ("dprime", 2), ("dprime", 3),
                          ("alpha", 4), ("alpha", 6), ("beta", 5), ("gamma", 6)])


def _build_atom(spec):
    kind, n = spec
    if kind in DENSITY_POLYS:
        return density_measure(DENSITY_POLYS[kind], "d", n)
    return basic_measure(kind, n)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.fractions(min_value=-2, max_value=2, max_denominator=3),
                          _atoms), min_size=1, max_size=3))
def test_lincomb_properties(terms):
    built = [(s, _build_atom(a)) for s, a in terms]
    combo = lincomb(built)  # raising would mean the symmetry invariant broke
    n = combo.order
    for j in range(n):
        assert combo.weights[j] == combo.weights[(-j) % n]
        assert combo.weights[j] == combo.weights[(j + n // 2) % n]
        assert moment(combo, 2 * j + 1).is_zero()
    assert combo.mass() == sum(s for s, _ in terms)
    total = sum(s for s, _ in terms)
    if total == 1:
        expected = t_series_of_measure(built[0][1], 16) * built[0][0]
        for s, e in built[1:]:
            expected = expected + t_series_of_measure(e, 16) * s
        assert t_series_of_measure(combo, 16) == expected


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.fractions(min_value=-2, max_value=2, max_denominator=3),
                          _atoms), min_size=1, max_size=3))
def test_moment_matches_dense_sum(terms):
    combo = lincomb([(s, _build_atom(a)) for s, a in terms])
    n = combo.order
    weights = combo.weights
    for k in range(n):
        dense = CyclotomicNumber.zero(n)
        for j, w in enumerate(weights):
            dense = dense + w * root_of_unity(n, j * k)
        assert moment(combo, k) == dense


@settings(max_examples=25, deadline=None)
@given(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=3),
                min_size=1, max_size=4),
       st.sampled_from([4, 6, 8]))
def test_expansion_round_trip_random(scalars, n):
    terms = [(scalars[0], basic_measure("d", n))]
    for i, s in enumerate(scalars[1:]):
        poly = DENSITY_POLYS[["alpha", "beta", "gamma"][i % 3]]
        terms.append((s, density_measure(poly, "d", n)))
    combo = lincomb(terms)
    res = cyclotomic_expansion(combo, n)
    assert res.residual_ok
    assert t_series_of_measure(reconstruct_expansion(res), 2 * n + 4) == \
        t_series_of_measure(combo, 2 * n + 4)


def test_minimal_support_order():
    assert basic_measure("d", 6).minimal_support_order() == 12
    embedded = basic_measure("d", 3).embed(12)
    assert embedded.minimal_support_order() == 6
    zero = lincomb([(Fraction(0), basic_measure("d", 3))])
    assert zero.minimal_support_order() is None
