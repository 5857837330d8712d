import gc
import math
import tracemalloc
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from cyclade.exact import (
    NotRational,
    cyclo_as_rational,
    cyclo_conj,
    cyclo_make,
)
from cyclade.exprs import _SUPPORT_FACTOR, parse_measure_expr, parse_xi_expr
from cyclade.graphs import GraphFamily, build_ade, loop_counts
from cyclade.measures import (
    BASE_KINDS,
    DENSITY_POLYS,
    CyclotomicMeasure,
    RealMeasure,
    SupportTooLarge,
    SymmetryViolation,
    atom_measure,
    basic_measure,
    cyclotomic_expansion,
    density_measure,
    expand_over_level,
    level,
    moment,
    one_minus_power,
    pushforward_real,
    reconstruct_expansion,
    t_fraction_of_measure,
    t_series_of_measure,
    _is_psd,
)
from cyclade.transforms import xi_expand
from cyclade.verify import DEFAULT_SIZE_MATRIX, candidate_measure
from oracles import (
    candidate_measure_by_rows,
    expand_over_level_loop,
    expansion_by_moments,
    is_psd_by_minors,
    level_loop,
    lincomb,
    measure_rows,
    moment_by_dense_sum,
    pushforward_moments_by_powering,
    rational_by_constructor,
    root_of_unity,
    sign_at_60_digits,
    t_series_by_moments,
    weights_of,
)


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
    assert d1.weight(0) == Fraction(1, 2)
    assert d1.weight(1) == Fraction(1, 2)


def test_twelfth_root_quarter_weights():
    e = basic_measure("ddoubleprime", 1)
    assert e.order == 12
    for j in range(12):
        expected = Fraction(1, 4) if j in (1, 5, 7, 11) else Fraction(0)
        assert e.weight(j) == expected


def test_third_uniform_equals_degree_one_density():
    assert basic_measure("dtripleprime", 1) == alpha(3)


def test_mass_and_probability():
    for kind in ("d", "dprime", "ddoubleprime", "dtripleprime"):
        e = basic_measure(kind, 3)
        assert e.mass() == 1
        assert e.is_probability()
    signed = 2 * basic_measure("d", 2) - basic_measure("d", 1)
    assert signed.mass() == 1
    assert signed.is_probability()  # the two-root deficit cancels exactly
    negative = -basic_measure("d", 1)
    assert not negative.is_probability()


def test_density_non_allowed_cases():
    assert gamma(2) == parse_measure_expr("2*d_2 - d_1")
    assert alpha(1).minimal_support_order() is None


def test_density_alpha12_weight_table():
    sqrt3 = cyclo_make(24, {2: 1, 22: 1})
    expected = [cyclo_make(24, {0: 0}), (2 - sqrt3) * Fraction(1, 48),
                Fraction(1, 48), Fraction(1, 24), Fraction(3, 48),
                (2 + sqrt3) * Fraction(1, 48), Fraction(1, 12)]
    a12 = alpha(12)
    for j, value in enumerate(expected):
        assert a12.weight(j) == value


def _operator_sum(terms):
    """sum c m over the (c, m) terms, written with the measure operators;
    sum's start 0 would be a scalar, which a measure sum refuses."""
    scaled = [c * m for c, m in terms]
    return sum(scaled[1:], scaled[0])


def _fields(e):
    # == lifts across orders, so the stored fields are compared one by one
    return e.order, e.nums, e.den


def test_lincomb_examples():
    # linear combinations are written with the operators, lifted to the lcm
    # of the orders
    combo = 2 * basic_measure("d", 2) - basic_measure("d", 1)
    assert combo.order == 4
    assert combo.weight(0).is_zero()
    assert combo.weight(1) == Fraction(1, 2)
    assert 1 * combo == combo
    assert combo * Fraction(1, 3) + combo * Fraction(2, 3) == combo
    assert -combo + combo == 0 * combo
    dtilde5 = candidate_measure(GraphFamily("Dtilde", 5), "thm71")
    half = Fraction(1, 2)
    assert dtilde5 == half * basic_measure("d", 3) + half * basic_measure("dprime", 1)


def test_measure_equal_examples():
    assert basic_measure("d", 1) == basic_measure("d", 1)
    # == lifts to the lcm of the orders
    assert basic_measure("d", 1) == basic_measure("d", 1).embed(4)
    assert 2 * alpha(3) == parse_measure_expr("3*d_3 - d_1")
    assert 2 * density_measure(DENSITY_POLYS["beta"], "dprime", 3) == \
        parse_measure_expr("3*d'_3 - d'_1")
    assert basic_measure("d", 1) != basic_measure("d", 2)


def _density_by_horner(poly, kind, n):
    """The former route to density weights, kept as an oracle: Horner
    evaluation of P at u^2 in the cyclotomic field, its real part, times the
    base weight, at every position."""
    base = basic_measure(kind, n)
    out = []
    for j, w in enumerate(weights_of(base)):
        if w.is_zero():
            out.append(w)
            continue
        x = root_of_unity(base.order, (2 * j) % base.order)
        value = None
        for c in map(Fraction, reversed(poly)):
            value = c if value is None else value * x + c
        if not isinstance(value, Fraction):
            value = (value + cyclo_conj(value)) * Fraction(1, 2)
        out.append(w * value)
    return out


@pytest.mark.parametrize("kind", BASE_KINDS)
def test_density_matches_horner_oracle(kind):
    # alpha, beta, gamma are 1 - u^2, 1 - u^4, 1 - u^6; add higher 1 - u^(2l)
    polys = list(DENSITY_POLYS.values()) + [one_minus_power(l) for l in (5, 8)]
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
    before = [(m.order, m.nums, m.den, [w.coeffs for w in m.reps]) for m in (a, d)]
    -2 * a + 3 * d - a
    -d
    a.embed(36)
    d.embed(24)
    parse_measure_expr("2*alpha_6 - d'_3 + alpha_6/5")
    moment(a, 4)
    assert [(m.order, m.nums, m.den, [w.coeffs for w in m.reps]) for m in (a, d)] == before


# the three descriptions of def8.1/support, n = 1..4: (order, the weight,
# the positions that carry it)
_SUPPORT_DESCRIPTIONS = [
    (order, weight, on) for n in range(1, 5) for order, weight, on in (
        (4 * n, Fraction(1, 2 * n), lambda j: j % 2),
        (12 * n, Fraction(1, 4 * n), lambda j: j % 6 in (1, 5)),
        (6 * n, Fraction(1, 4 * n), lambda j: j % 3))]


def test_constructor_weights_read_back():
    # the weights are derived from the moments by the inverse transform on
    # every measure, one that the public constructor built from them too
    for order, weight, on in _SUPPORT_DESCRIPTIONS:
        weights = [weight if on(j) else Fraction(0) for j in range(order)]
        e = CyclotomicMeasure(order, weights)
        assert list(e.reps) == weights[: order // 4 + 1]
        assert [e.weight(j) for j in range(order)] == weights
    # cyclotomic weights: alpha_12's, spread over all 24 positions
    a12 = alpha(12)
    e = CyclotomicMeasure(24, [a12.reps[a12.orbit(j)] for j in range(24)])
    assert _fields(e) == _fields(a12)
    assert [_fields(w) for w in e.reps] == [_fields(w) for w in a12.reps]


@pytest.mark.parametrize("build", [
    lambda: CyclotomicMeasure(24, weights_of(alpha(12))),
    lambda: Fraction(1, 5) * (alpha(12) - 2 * basic_measure("dprime", 3)),
    lambda: parse_measure_expr("(alpha_12 - 2*d'_3)/5 + 3/4*gamma''_2"),
    lambda: gamma(5, "dprime").embed(60),
], ids=["constructor", "arithmetic", "parsed", "embedded"])
def test_weight_is_the_weight_of_its_orbit(build):
    e = build()
    reps = e.reps
    assert len(reps) == e.order // 4 + 1
    for j in range(e.order):
        assert _fields(e.weight(j)) == _fields(reps[e.orbit(j)])


@pytest.mark.parametrize("text", ["gamma''_21", "alpha'_63"])
def test_reading_the_weights_keeps_nothing_in_a_memoized_atom(text):
    # two atoms on the 252nd roots that no other test reads; a cache of
    # their weights in the shared atom would keep about 43 kB each (0.68 and
    # 0.83 MB for the atoms at the support caps, gamma''_83 and alpha'_250)
    e = parse_measure_expr(text)
    assert parse_measure_expr(text) is e

    def read(m):
        return m.reps, m.weight(1), RealMeasure(m).atoms, repr(m)

    # a full collection empties the interpreter's free lists, which a
    # traced read would then refill with up to 20 kB of traced blocks
    gc.disable()
    try:
        read(e * 1)  # warms the field tables and the free lists, on a copy
        referents = [id(x) for x in gc.get_referents(e)]
        tracemalloc.start()
        read(e)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    # the free lists may still keep a few blocks of the discarded results
    assert kept < 4096
    assert [id(x) for x in gc.get_referents(e)] == referents
    assert CyclotomicMeasure.__slots__ == ()


@pytest.mark.parametrize("call,error,message", [
    (lambda: CyclotomicMeasure(3, [1, 0, 0]), ValueError,
     "support order must be even and at least 2"),
    (lambda: CyclotomicMeasure(4, [1, 0, 0]), ValueError, "need 4 weights, got 3"),
    (lambda: CyclotomicMeasure(2, [0.5, 0.5]), TypeError,
     "weight at position 0 is a float, not an int, a Fraction or a CyclotomicNumber"),
    (lambda: CyclotomicMeasure(4, [Fraction(1, 2), 0, "1/2", 0]), TypeError,
     "weight at position 2 is a str, not an int, a Fraction or a CyclotomicNumber"),
    (lambda: CyclotomicMeasure(4, [cyclo_make(3, {0: 1}), 0, cyclo_make(3, {0: 1}), 0]),
     ValueError, "weight at position 0 lies in the field of order 3, which does not divide 4"),
    (lambda: CyclotomicMeasure(4, [0, cyclo_make(8, {0: 1}), 0, cyclo_make(8, {0: 1})]),
     ValueError, "weight at position 1 lies in the field of order 8, which does not divide 4"),
    (lambda: basic_measure("d", 0), ValueError, "parameter must be positive"),
    (lambda: basic_measure("dquad", 1), ValueError, "unknown base kind 'dquad'"),
    (lambda: cyclotomic_expansion(basic_measure("d", 1), 0), ValueError,
     "support parameter must be positive"),
], ids=["odd-order", "weight-count", "float-weight", "str-weight", "order3-weight",
        "order8-weight", "parameter", "base-kind", "expansion-support"])
def test_bad_arguments_are_refused(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


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
    combo = Fraction(1, 3) * a + Fraction(2, 3) * b
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
            for n in (len(poly), 8):
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
                              start=cyclo_make(e.order, {0: 0}))
            assert mus[k] == via_moments


def test_pushforward_moments_match_loops():
    fam = GraphFamily("E7", 7)
    e = candidate_measure(fam, "thm71")
    real = pushforward_real(e)
    assert real.moments(10) == loop_counts(build_ade(fam), 10)
    assert sum(w for _, w in real.atoms) == e.mass() == 1


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

# table entries as measure-expression text: the E6 ternary form spelled over
# one denominator, not as verify.EXCEPTIONAL_MEASURES writes it, then the
# four series
_EXCEPTIONAL_EXPRESSIONS = {
    ("E6", "thm87"): "(d''_2 + 2*alpha''_2 + 3*d'''_1)/6",
}

_SERIES_EXPRESSIONS = {
    "A": lambda m: f"alpha_{m + 1}",
    "Atilde": lambda m: f"d_{m // 2}",
    "D": lambda m: f"alpha'_{m - 1}",
    "Dtilde": lambda m: f"(d_{m - 2} + d'_1)/2",
}


def test_candidate_expressions():
    for (tag, variant), text in _EXCEPTIONAL_EXPRESSIONS.items():
        assert candidate_measure(GraphFamily(tag, int(tag[1])), variant) == \
            parse_measure_expr(text), (tag, variant)
    for tag, text_at in _SERIES_EXPRESSIONS.items():
        for m in (4, 6, 10, 16, 40):
            for variant in ("thm71", "thm87"):
                assert candidate_measure(GraphFamily(tag, m), variant) == \
                    parse_measure_expr(text_at(m)), (tag, m, variant)


def _table_families():
    """Every family of the default size matrix, then the four parametrized
    series up to parameter 40."""
    for tag, params in DEFAULT_SIZE_MATRIX.items():
        yield from (GraphFamily(tag, m) for m in params)
    for tag, least, step in (("A", 2, 1), ("Atilde", 2, 2), ("D", 3, 1), ("Dtilde", 4, 1)):
        yield from (GraphFamily(tag, m) for m in range(least, 41, step))


@pytest.mark.parametrize("variant", ["thm71", "thm87"])
def test_candidate_measure_matches_the_row_table(variant):
    # the same stored fields as the table written as term rows
    for fam in _table_families():
        got, expected = candidate_measure(fam, variant), candidate_measure_by_rows(fam, variant)
        assert (got.order, got.nums, got.den) == (
            expected.order, expected.nums, expected.den), (fam, variant)


@pytest.mark.parametrize("variant", ["thm71", "thm87"])
def test_operator_sums_match_lincomb(variant):
    # every table row, summed with the operators, has the fields of the
    # one-pass reference sum; so do the d'' and d''' constructions
    for fam in _table_families():
        terms = [(c, atom_measure(*row)) for c, *row in measure_rows(fam, variant)]
        assert _fields(_operator_sum(terms)) == _fields(lincomb(terms)), (fam, variant)
    for kind, base in (("ddoubleprime", "dprime"), ("dtripleprime", "d")):
        for n in range(1, 21):
            terms = [(Fraction(3, 2), basic_measure(base, 3 * n)),
                     (Fraction(-1, 2), basic_measure(base, n))]
            assert _fields(basic_measure(kind, n)) == _fields(lincomb(terms)), (kind, n)


def test_candidate_measure_refuses_an_unknown_variant():
    with pytest.raises(ValueError, match="^unknown variant 'thm99'$"):
        candidate_measure(GraphFamily("E7"), "thm99")


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
    zero = 0 * basic_measure("d", 3)
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


def test_expansion_and_pushforward_are_frozen_unhashable_values():
    # both compare field by field; a dict of coefficients and a measure are
    # unhashable, so neither value is, and no field can be reassigned
    res = cyclotomic_expansion(basic_measure("d", 3), 3)
    assert res == cyclotomic_expansion(basic_measure("d", 3), 3)
    assert res != cyclotomic_expansion(basic_measure("d", 3), 6)
    assert repr(res) == ("ExpansionResult(n=3, coefficients={0: Fraction(1, 1), "
                         "1: Fraction(0, 1)}, residual_ok=True)")
    pushed = pushforward_real(basic_measure("d", 2))
    assert pushed == pushforward_real(basic_measure("d", 2))
    assert pushed != pushforward_real(basic_measure("d", 3))
    assert repr(pushed) == "RealMeasure(circular=CyclotomicMeasure(order=4, atoms=4))"
    for value, name in ((res, "n"), (pushed, "circular")):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(TypeError):
            hash(value)


def test_expansion_round_trip_uniform():
    res = cyclotomic_expansion(basic_measure("d", 6), 6)
    assert res.residual_ok
    assert res.coefficients[0] == 1
    assert reconstruct_expansion(res) == basic_measure("d", 6)


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
    assert level(0 * basic_measure("d", 5)) == 0


def test_alpha12_uniform_infeasibility():
    a12 = alpha(12)
    assert expand_over_level(a12, 0) is None
    sol = expand_over_level(a12, 1)
    assert sol is not None
    terms = [c * (basic_measure("d", m) if l == 0 else alpha(m)) for (l, m), c in sol.items()]
    assert sum(terms[1:], terms[0]) == a12


def _assert_level_matches_loop(e):
    value = level(e)
    loop = {k: expand_over_level_loop(e, k) for k in (value - 1, value, value + 1)}
    # feasibility only grows with the limit, so an infeasible value - 1 and a
    # feasible value prove that value is the least feasible limit
    assert value == 0 or loop[value - 1] is None
    assert loop[value] is not None
    for k, want in loop.items():
        assert expand_over_level(e, k) == want
    # from the level on, the canonical solution only gains zero columns, up
    # to n, past which the column list stops growing
    support = e.minimal_support_order()
    for k in range(value + 2, (support or 0) // 2 + 1):
        assert expand_over_level(e, k) == loop[value]


def test_support_factor_gives_each_atom_order():
    # the parser caps an atom's support order at MAX_ATOM_SUPPORT through
    # this table, so it must be the order atom_measure builds
    for name in ("d", *DENSITY_POLYS):
        for k, kind in enumerate(BASE_KINDS):
            for n in range(1, 21):
                assert _SUPPORT_FACTOR[k] * n == atom_measure(name, kind, n).order, (name, kind, n)


@st.composite
def _atom_sums(draw, low=-3):
    """A signed sum of up to three atoms whose supports divide one support
    order <= 60, with coefficients in [low, 3]; terms may cancel."""
    support = draw(st.sampled_from([12, 20, 24, 30, 40, 60]))
    atoms = [(name, kind, m) for name in ("d", "alpha", "beta", "gamma")
             for kind, factor in zip(BASE_KINDS, _SUPPORT_FACTOR) if support % factor == 0
             for m in range(1, support // factor + 1) if (support // factor) % m == 0]
    terms = draw(st.lists(st.tuples(st.fractions(low, 3, max_denominator=4),
                                    st.sampled_from(atoms)), min_size=1, max_size=3))
    return lincomb([(c, atom_measure(name, kind, m)) for c, (name, kind, m) in terms])


@settings(max_examples=40, deadline=None)
@given(_atom_sums())
def test_level_matches_per_limit_loop(e):
    _assert_level_matches_loop(e)


@pytest.mark.parametrize("kind", ["d", "dprime"])
@pytest.mark.parametrize("m", range(1, 17))
def test_level_of_every_power_density(kind, m):
    # the densities 1 - u^(2l) reach levels 0..7, where _atom_sums stops
    # at 3, so the reduction modulo each minimal polynomial runs its upper
    # steps; l = m and m + 1 fold onto lower degrees on the support
    for l in range(1, m + 2):
        _assert_level_matches_loop(density_measure(one_minus_power(l), kind, m))


@pytest.mark.parametrize("text", ["gamma''_83", "gamma_420", "alpha_420 + 2*gamma'_210 + beta''_35"])
def test_level_is_the_least_feasible_limit_at_the_caps(text):
    # the closed form against the elimination at the largest supports
    e = parse_measure_expr(text)
    value = level(e)
    assert expand_over_level(e, value) is not None
    assert expand_over_level(e, value - 1) is None


@settings(max_examples=30, deadline=None)
@given(_atom_sums())
def test_support_order_and_constructor_round_trip(e):
    # twice the least period of the moments is the lcm of the atom orders,
    # and the public constructor, given the derived weights, recomputes the
    # stored sequence
    weights = weights_of(e)
    atoms = [e.order // math.gcd(e.order, j) for j, w in enumerate(weights) if not w.is_zero()]
    assert e.minimal_support_order() == (math.lcm(*atoms) if atoms else None)
    rebuilt = CyclotomicMeasure(e.order, weights)
    assert (rebuilt.nums, rebuilt.den) == (e.nums, e.den)


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
        assert reconstruct_expansion(cyclotomic_expansion(e, n)) == e


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


def _sqrt3_weights(*orbits):
    """The real symmetric weights at N = 24 with sqrt(3) = z^2 + z^22 on the
    first orbit given and -sqrt(3) on the others."""
    sqrt3 = cyclo_make(24, {2: 1, 22: 1})
    weights = [cyclo_make(24, {0: 0})] * 24
    for i, r in enumerate(orbits):
        for j in (r, -r, 12 + r, 12 - r):
            weights[j % 24] = sqrt3 if i == 0 else -sqrt3
    return weights


def _sqrt3_measure(*orbits):
    return CyclotomicMeasure(24, _sqrt3_weights(*orbits))


def test_irrational_moments_raise_as_before():
    # weight sqrt(3) at the positions 1, 11, 13, 23: moment 0 is 4 sqrt(3),
    # and the constructor refuses the measure with the message that
    # cyclo_as_rational gives for that moment
    message = ("nonzero non-constant coordinates in CyclotomicNumber(order=24, "
               "coeffs=['0', '0', '8', '0', '0', '0', '-4', '0'])")
    with pytest.raises(NotRational) as info:
        _sqrt3_measure(1)
    assert str(info.value) == message


def test_irrational_measure_has_no_level():
    # a measure with an irrational moment cannot be built, so level never
    # meets one; the rational sqrt(3) combination has a level, the oracle's
    with pytest.raises(NotRational):
        level(_sqrt3_measure(1))
    e = _sqrt3_measure(1, 5)
    assert level(e) == level_loop(e)
    for k in range(4):
        assert expand_over_level(e, k) == expand_over_level_loop(e, k)


@pytest.mark.parametrize("orbits", [(1, 2), (2, 5), (3, 1), (1, 5), (4, 2)])
def test_irrational_moment_after_moment_zero(orbits):
    # moment 0 cancels; the constructor raises at the first irrational
    # moment with the message of its dense sum over the weights, or, when
    # every moment is rational, keeps the dense sums as its sequence
    weights = _sqrt3_weights(*orbits)
    dense = [moment_by_dense_sum(24, weights, 2 * k) for k in range(12)]
    first = next((z for z in dense if not z.is_rational()), None)
    if first is None:
        e = CyclotomicMeasure(24, weights)
        assert [Fraction(v, e.den) for v in e.nums] == list(map(cyclo_as_rational, dense))
        for order in (0, 1, 2, 3, 6, 40):
            assert t_series_of_measure(e, order) == t_series_by_moments(e, order)
    else:
        with pytest.raises(NotRational) as info:
            CyclotomicMeasure(24, weights)
        assert str(info.value) == f"nonzero non-constant coordinates in {first!r}"


def test_rational_sqrt3_combination_builds():
    # sqrt(3) on the orbit of 1 and -sqrt(3) on that of 5: every moment is
    # rational, and the weights derived from the sequence are those given
    e = _sqrt3_measure(1, 5)
    assert (e.nums, e.den) == ((0, 12, 0, 0, 0, -12, 0, -12, 0, 0, 0, 12), 1)
    derived = 1 * e
    assert weights_of(derived) == weights_of(e) == list(_sqrt3_weights(1, 5))


def test_negative_limit_allows_no_columns():
    zero = 0 * basic_measure("d", 5)
    assert expand_over_level(zero, -1) == {} == expand_over_level_loop(zero, -1)
    for e in (basic_measure("d", 4), alpha(6)):
        assert expand_over_level(e, -1) is None
        assert expand_over_level_loop(e, -1) is None
        assert expand_over_level(e, 0) is not None


def test_irrational_pushforward_moment_raises():
    # the mass would be 4 sqrt(3): the measure is refused before any
    # pushforward moment is taken
    with pytest.raises(NotRational):
        pushforward_real(_sqrt3_measure(1)).moments(2)


def _assert_pushforward_matches_powering(e):
    # the recurrence over the even-moment block against powering the atoms,
    # at every count: equal values at equal orders
    def fields(zs):
        return [(z.order, z.nums, z.den) for z in zs]

    want = fields(pushforward_moments_by_powering(pushforward_real(e), 40))
    for count in range(41):
        assert fields(pushforward_real(e).moments(count)) == want[:count + 1], (e, count)


@settings(max_examples=30, deadline=None)
@given(_atom_sums())
def test_pushforward_moments_match_powering(e):
    _assert_pushforward_matches_powering(e)


def test_pushforward_moments_match_powering_on_graph_measures():
    for tag, params in DEFAULT_SIZE_MATRIX.items():
        for m in params:
            _assert_pushforward_matches_powering(candidate_measure(GraphFamily(tag, m), "thm71"))


def test_level_matches_per_limit_loop_on_graph_measures():
    for tag, params in DEFAULT_SIZE_MATRIX.items():
        for m in params:
            _assert_level_matches_loop(candidate_measure(GraphFamily(tag, m), "thm71"))


@settings(max_examples=25, deadline=None)
@given(_atom_sums())
def test_rational_moments_stored_as_the_public_constructor_stores_them(e):
    # moment and RealMeasure.moments build each value from the stored
    # integers; the oracle takes the value from the weights and builds it
    # through CyclotomicNumber(order, coeffs)
    weights = weights_of(e)
    for k in range(-3, 2 * e.order + 2):
        want = cyclo_as_rational(moment_by_dense_sum(e.order, weights, k))
        assert _fields(moment(e, k)) == _fields(rational_by_constructor(want, e.order)), k
    want = [_fields(rational_by_constructor(cyclo_as_rational(z), e.order))
            for z in pushforward_moments_by_powering(pushforward_real(e), 40)]
    for count in range(41):
        assert [_fields(z) for z in pushforward_real(e).moments(count)] == want[:count + 1]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(-4, 4), st.sampled_from([("d", 1), ("d", 3), ("dprime", 2),
                                                               ("alpha", 4), ("gamma", 6)])),
                min_size=1, max_size=3))
def test_lincomb_takes_int_scalars_as_they_are(terms):
    by_int = _operator_sum([(c, _build_atom(a)) for c, a in terms])
    by_fraction = _operator_sum([(Fraction(c), _build_atom(a)) for c, a in terms])
    assert _fields(by_int) == _fields(by_fraction) == \
        _fields(lincomb([(c, _build_atom(a)) for c, a in terms]))


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
    combo = _operator_sum(built)  # raising would mean the symmetry invariant broke
    assert _fields(combo) == _fields(lincomb(built))
    n = combo.order
    for j in range(n):
        assert combo.weight(j) == combo.weight((-j) % n)
        assert combo.weight(j) == combo.weight((j + n // 2) % n)
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
    combo = _operator_sum([(s, _build_atom(a)) for s, a in terms])
    n = combo.order
    weights = weights_of(combo)
    for k in range(n):
        dense = cyclo_make(n, {0: 0})
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
    combo = _operator_sum(terms)
    res = cyclotomic_expansion(combo, n)
    assert res.residual_ok
    assert t_series_of_measure(reconstruct_expansion(res), 2 * n + 4) == \
        t_series_of_measure(combo, 2 * n + 4)


def test_minimal_support_order():
    assert basic_measure("d", 6).minimal_support_order() == 12
    embedded = basic_measure("d", 3).embed(12)
    assert embedded.minimal_support_order() == 6
    zero = 0 * basic_measure("d", 3)
    assert zero.minimal_support_order() is None


@pytest.mark.parametrize("order", [0, -4, 6])
def test_embed_needs_a_positive_multiple(order):
    with pytest.raises(ValueError, match=f"^{order} is not a positive multiple of 4$"):
        basic_measure("d", 2).embed(order)


# ---------------------------------------------------------------------------
# is_probability, decided from the moments
# ---------------------------------------------------------------------------

def _signs_at_60_digits(e):
    return [sign_at_60_digits(w) for w in e.reps]


@settings(max_examples=80, deadline=None)
@given(_atom_sums(low=-1))
def test_is_probability_matches_60_digit_signs(e):
    # rescaled to mass 1 where the mass is not 0; a draw is skipped only
    # where the oracle cannot tell a weight's sign
    if e.mass():
        e = e * (1 / e.mass())
    try:
        signs = _signs_at_60_digits(e)
    except ArithmeticError:
        assume(False)
    assert e.is_probability() == (e.mass() == 1 and min(signs) >= 0)


def test_every_default_candidate_is_a_probability_measure():
    for tag, params in DEFAULT_SIZE_MATRIX.items():
        for m in params:
            for variant in ("thm71", "thm87"):
                e = candidate_measure(GraphFamily(tag, m), variant)
                assert e.is_probability(), (tag, m, variant)
                assert min(_signs_at_60_digits(e)) >= 0


def _on_strata(n, f, point_mass):
    """The measure on the 2n-th roots with weights F(s + 1/s) at the atoms
    +-u, s = u^2, F = f[0] + f[1] x + f[2] x^2, plus point_mass times the
    point masses at +-1, rescaled to mass 1.  The density Re(P(s)) of
    P = (f0 + 2 f2) + 2 f1 s + 2 f2 s^2 is F, as x^2 = s^2 + s^-2 + 2."""
    f0, f1, f2 = f
    e = density_measure((f0 + 2 * f2, 2 * f1, 2 * f2), "d", n) + point_mass * basic_measure("d", 1)
    return e * (1 / e.mass())


# the convergent p/q of 2 cos(2 pi / 7) = 1.2469..., which it exceeds by
# about 2e-43
_CONVERGENT_7 = Fraction(2242447542050952017134, 1798303304533465276219)


@pytest.mark.parametrize("f,expected", [
    # p/q - x: its conjugates are about 2e-43, 1.69 and 3.05
    ((_CONVERGENT_7, -1, 0), True),
    # x (x - p/q): about -2.5e-43, 0.75 and 5.5
    ((0, -_CONVERGENT_7, 1), False),
], ids=["nonnegative", "negative"])
def test_is_probability_below_the_60_digit_cutoff(f, expected):
    # the weight at 2 cos(2 pi / 7) is below the 1e-40 where a 60-digit
    # evaluation gives up; 200 digits agree with the exact answer
    e = _on_strata(7, f, 1)
    assert e.is_probability() is expected
    with pytest.raises(ArithmeticError):
        sign_at_60_digits(e.reps[1])
    with mpmath.workdps(200):
        value = e.reps[1].numeric(dps=200).real
        assert (value > 0) is expected and abs(value) < mpmath.mpf("1e-43")
    assert min(sign_at_60_digits(w) for r, w in enumerate(e.reps) if r != 1) > 0


_B = Fraction(15597921100178076515202865192501247, 7)
_A = Fraction(2690434790550214577557977726147563461544022620263278861731577,
              625000000000000000000000000)


@pytest.mark.parametrize("f,expected", [
    # A - B x, x = 2 cos(pi/12): coordinates near 4e33 cancel to about 1.7e-28
    ((_A, -_B, 0), True),
    # (B x - A)(x - 9/5): negative at that conjugate only
    ((Fraction(9, 5) * _A, -_A - Fraction(9, 5) * _B, _B), False),
], ids=["nonnegative", "negative"])
def test_is_probability_below_the_60_digit_error(f, expected):
    # the weight at 2 cos(pi / 12) is below the error of a 60-digit
    # evaluation, whose error grows with the coordinates; 200 digits agree
    # with the exact answer
    e = _on_strata(24, f, _B)
    assert e.is_probability() is expected
    with mpmath.workdps(200):
        value = e.reps[1].numeric(dps=200).real
        assert (value > 0) is expected and abs(value) < mpmath.mpf("1e-28")


@pytest.mark.parametrize("n,f,negative", [
    # (x + 2)(x + 1): negative at x = -sqrt(2) only
    (8, (2, 3, 1), [3]),
    # (x + 2)(x + 3/2): zero at x = -2, positive elsewhere
    (8, (3, Fraction(7, 2), 1), []),
    # 2x + 1 = +-sqrt(5) on the primitive fifth roots, whose trace is 0
    (5, (1, 2, 0), [2]),
], ids=["sqrt2-negative", "sqrt2-nonnegative", "sqrt5-trace-zero"])
def test_is_probability_on_a_quadratic_stratum(n, f, negative):
    e = _on_strata(n, f, 0)
    assert e.is_probability() is not negative
    assert [r for r, w in enumerate(e.reps) if sign_at_60_digits(w) < 0] == negative


@pytest.mark.parametrize("c,expected", [(Fraction(199, 100), False), (2, True)],
                         ids=["negative", "nonnegative"])
def test_is_probability_on_a_large_prime_stratum(c, expected):
    # c - x on the 83rd roots: 2 cos(2 pi / 83) = 1.9943 exceeds 1.99, and
    # no other conjugate does, so at c = 1.99 the two weights at
    # s = zeta^+-1 are the only negative ones; c = 2 is 2 alpha_83
    e = _on_strata(83, (c, -1, 0), 1)
    assert e.is_probability() is expected
    assert [r for r, w in enumerate(e.reps) if sign_at_60_digits(w) < 0] == ([] if expected else [1])


@st.composite
def _symmetric_matrices(draw):
    """B B^T for an integer B of up to four rows, often singular, plus a
    diagonal in {-1, 0, 1} that may break semidefiniteness."""
    h, k = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    b = [draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k)) for _ in range(h)]
    diag = draw(st.lists(st.sampled_from([0, 0, 0, -1, 1]), min_size=h, max_size=h))
    return [[sum(x * y for x, y in zip(b[i], b[j])) + (diag[i] if i == j else 0)
             for j in range(h)] for i in range(h)]


@settings(max_examples=200, deadline=None)
@given(_symmetric_matrices())
def test_is_psd_matches_principal_minors(rows):
    assert _is_psd([list(row) for row in rows]) == is_psd_by_minors(rows)


@pytest.mark.parametrize("text", ["d_1", "d'_1", "alpha_12", "gamma''_5",
                                  "alpha_12 + d''_3 - 2*gamma'_5/3", "0*d_1"])
def test_t_fraction_of_measure_expands_to_its_t_series(text):
    # the moments 2k repeat with period p = N/2, so T has the denominator
    # (1 - q)(1 - q^p) and the scale of the moments
    e = parse_measure_expr(text)
    f = t_fraction_of_measure(e)
    assert (f.factors, f.scale) == (((1, False), (e.order // 2, False)), e.den)
    for order in (0, 5, 3 * e.order):
        assert f.expand(order) == t_series_of_measure(e, order)
