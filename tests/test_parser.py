import sys
from fractions import Fraction

import pytest

from cyclade.exprs import (
    MAX_ATOM_SUPPORT,
    EvaluationError,
    ParseError,
    parse_measure_expr,
    parse_xi_expr,
)
from cyclade.graphs import GraphFamily
from cyclade.measures import basic_measure
from cyclade.transforms import XiExpression, XiFactor, theorem_2_5_lookup, xi_expand
from cyclade.verify import candidate_measure
from oracles import lincomb


# ---------------------------------------------------------------------------
# xi syntax
# ---------------------------------------------------------------------------

def test_parse_xi_examples():
    e = parse_xi_expr("xi(5+,9+:15+)")
    assert e == XiExpression((XiFactor(5, True), XiFactor(9, True)),
                             (XiFactor(15, True),))
    assert e == theorem_2_5_lookup(GraphFamily("E8", 8))
    assert parse_xi_expr("xi(3:)") == XiExpression((XiFactor(3, False),), ())
    assert parse_xi_expr("xi(:3)") == XiExpression((), (XiFactor(3, False),))
    assert parse_xi_expr("xi(:)") == XiExpression((), ())
    # k prime marks are one more denominator factor (1 - q^k)
    assert parse_xi_expr("xi(5+:4)").denominator == (XiFactor(4, False),)
    for marks in (1, 2):
        assert parse_xi_expr("xi" + "'" * marks + "(5+:4)").denominator == (
            XiFactor(4, False), XiFactor(marks, False))


def test_parse_xi_series_equalities():
    assert xi_expand(parse_xi_expr("xi(2+:3)"), 32) == xi_expand(
        parse_xi_expr("xi(4:2,3)"), 32)


def test_parse_xi_errors():
    for text, position, message in (
            ("xi(5++:3)", 5, "unexpected character '+' at position 5 (expected ':')"),
            ("xi(", 3, "unexpected end of input at position 3 (expected integer)"),
            ("xj(1:2)", 2, "unexpected character '(' at position 2 (expected 'xi')"),
            ("xi(1:2", 6, "unexpected end of input at position 6 (expected ')')"),
            ("xi'''(1:2)", 5, "too many prime marks at position 5 (expected at most '')"),
            ("xi(1,:2)", 5, "unexpected character ':' at position 5 (expected integer)"),
            ("xi(0:2)", 3,
             "factor exponent must be positive at position 3 (expected positive integer)"),
            ("xi(1:2)x", 7, "unexpected character 'x' at position 7 (expected end of input)")):
        with pytest.raises(ParseError) as err:
            parse_xi_expr(text)
        assert (str(err.value), err.value.position) == (message, position)


def _without_marks(text):
    """The spelling of a xi text with its k prime marks written as the
    factor k appended to the denominator."""
    head, body = text.split("(", 1)
    marks = head.count("'")
    num, den = body[:-1].split(":")
    if marks:
        den = f"{den},{marks}" if den else str(marks)
    return f"xi({num}:{den})"


def _xi_text(e):
    """The mark-free text of a xi form, factors in their stored order."""
    def factors(fs):
        return ",".join(f"{n}+" if plus else str(n) for n, plus in fs)

    return f"xi({factors(e.numerator)}:{factors(e.denominator)})"


def test_xi_round_trip_corpus():
    corpus = [
        "xi(2:3)", "xi(1+:2+)", "xi'(3+:3)", "xi''(5+:4)",
        "xi(8:3,6+)", "xi(12:4,9+)", "xi(5+,9+:15+)",
        "xi(6+:3,4)", "xi(9+:4,6)", "xi(15+:6,10)",
        "xi(3:)", "xi(:3)", "xi(:)", "xi'(1,4:5)", "xi'(2,4+:6+)", "xi''(3:)",
        # the series-table entries for the four density kinds
        "xi'(7+:7)", "xi(6:7)", "xi(1+,5:7)", "xi'(3,4:7)",
        "xi'(7:7+)", "xi(6+:7+)", "xi(1+,5+:7+)", "xi'(3,4+:7+)",
    ]
    for text in corpus:
        parsed = parse_xi_expr(text)
        # k marks are the factor (1 - q^k) appended to the denominator, and
        # nothing else: structurally one value with the mark-free spelling
        assert parsed == parse_xi_expr(_without_marks(text)), text
        assert _xi_text(parsed) == _without_marks(text)
        assert parse_xi_expr(_xi_text(parsed)) == parsed


def test_theorem_2_5_primes_are_denominator_factors():
    atilde = theorem_2_5_lookup(GraphFamily("Atilde", 8))
    assert atilde == parse_xi_expr("xi'(4+:4)") == parse_xi_expr("xi(4+:4,1)")
    assert atilde == XiExpression((XiFactor(4, True),), (XiFactor(4, False), XiFactor(1, False)))
    dtilde = theorem_2_5_lookup(GraphFamily("Dtilde", 6))
    assert dtilde == parse_xi_expr("xi''(5+:4)") == parse_xi_expr("xi(5+:4,2)")
    assert dtilde == XiExpression((XiFactor(5, True),), (XiFactor(4, False), XiFactor(2, False)))


# ---------------------------------------------------------------------------
# measure syntax
# ---------------------------------------------------------------------------

def test_parse_measure_examples():
    e7 = parse_measure_expr("(2*beta''_3 + d'_1)/3")
    assert e7 == candidate_measure(GraphFamily("E7", 7), "thm87")
    assert parse_measure_expr("d_1") is basic_measure("d", 1)
    assert parse_measure_expr("2*d_2 - d_1") == parse_measure_expr("gamma_2")


def test_parse_measure_scalars():
    a = parse_measure_expr("3/2*d_2 - 1/2*d_1")
    b = parse_measure_expr("(3*d_2 - d_1)/2")
    assert a == b


@pytest.mark.parametrize("text,terms", [
    ("2*3*d_1", [(Fraction(6), "d_1")]),
    ("(6/4)*d_1", [(Fraction(3, 2), "d_1")]),
    ("d_1*2/4", [(Fraction(1, 2), "d_1")]),
    ("3/2*d_2 - d_2", [(Fraction(3, 2), "d_2"), (Fraction(-1), "d_2")]),
    ("2*(d_2 - 3*d'_1)/4 - d_1", [(Fraction(1, 2), "d_2"), (Fraction(-3, 2), "d'_1"),
                                  (Fraction(-1), "d_1")]),
    ("(1+2)*d_1", [(Fraction(3), "d_1")]),
    # * and / read left to right, as in Python
    ("d_1/2*3", [(Fraction(3, 2), "d_1")]),
    ("d_1/2/3", [(Fraction(1, 6), "d_1")]),
    ("2/3/4*d_1", [(Fraction(1, 6), "d_1")]),
])
def test_scalar_products_and_quotients(text, terms):
    # scalars stay ints until a division makes a Fraction; the measure is
    # the one the reference lincomb builds from Fraction coefficients
    got = parse_measure_expr(text)
    want = lincomb([(c, parse_measure_expr(atom)) for c, atom in terms])
    assert (got.order, got.nums, got.den) == (want.order, want.nums, want.den)


def test_atom_support_limit_is_inclusive():
    assert parse_measure_expr("d'_250").order == MAX_ATOM_SUPPORT == 1000


def test_sum_support_limit_is_inclusive():
    # a sum lives on the lcm of its terms' supports: lcm(1000, 2) = 1000
    assert parse_measure_expr("d'_250 + d_1").order == MAX_ATOM_SUPPORT


def test_parse_measure_errors():
    with pytest.raises(EvaluationError):
        parse_measure_expr("d''''_2")
    with pytest.raises(EvaluationError):
        parse_measure_expr("alpha'''_2")
    with pytest.raises(EvaluationError):
        parse_measure_expr("d_1 * d_2")
    with pytest.raises(EvaluationError):
        parse_measure_expr("3/2")
    with pytest.raises(EvaluationError):
        parse_measure_expr("d_1 + 2")
    with pytest.raises(EvaluationError, match="support order 1002"):
        parse_measure_expr("d'''_167")
    with pytest.raises(ParseError):
        parse_measure_expr("delta_1")
    with pytest.raises(ParseError):
        parse_measure_expr("d_1 +")
    with pytest.raises(ParseError):
        parse_measure_expr("(d_1")
    with pytest.raises(ParseError):
        parse_measure_expr("")
    # the expression is evaluated as it is parsed, so an evaluation error
    # left of a syntax error is reported first
    with pytest.raises(EvaluationError, match="must be positive"):
        parse_measure_expr("alpha_0 + )")
    with pytest.raises(EvaluationError, match="support order 1200"):
        parse_measure_expr("d'_300 +")
    with pytest.raises(EvaluationError, match="cannot multiply"):
        parse_measure_expr("d_1 * d_2 +")
    with pytest.raises(ParseError) as err:
        parse_measure_expr("d_1 + )")
    assert err.value.position == 6
    # an evaluation error names the atom, the operator or the divisor
    for text, position in [("d_1 + alpha_0", 6), ("d_1 * d_2", 4), ("d_97 + d_101", 5)]:
        with pytest.raises(EvaluationError, match=f" at position {position}$") as err:
            parse_measure_expr(text)
        assert err.value.position == position


@pytest.mark.parametrize("text,error,message", [
    ("1/0*d_1", EvaluationError, "division by zero at position 2"),
    ("3/\u00b2*d_1", ParseError, "unexpected character '\u00b2' at position 2 (expected integer)"),
    ("d_1/", ParseError, "unexpected end of input at position 4 (expected integer)"),
    ("d_1/x", ParseError, "unexpected character 'x' at position 4 (expected integer)"),
    ("d_1 )", ParseError, "unexpected character ')' at position 4 (expected end of input)"),
    # the term d_1/2*d_2 is read to its end, so the product is refused
    ("d_1/2*d_2", EvaluationError, "cannot multiply two measures at position 5"),
    # an operator's error is raised once its right operand is read, so the
    # product inside the right operand of - is refused first
    ("2 - d_1 * d_2", EvaluationError, "cannot multiply two measures at position 8"),
], ids=["zero-divisor", "non-ascii-divisor", "no-divisor", "name-divisor", "trailing",
        "product-after-division", "right-operand-first"])
def test_refusal_messages(text, error, message):
    with pytest.raises(error) as err:
        parse_measure_expr(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text,position", [
    ("xi(1, 0:2)", 6),
    ("xi(1,0:2)", 5),
    ("xi( 0:1)", 4),
], ids=["blank-after-comma", "no-blank", "blank-after-paren"])
def test_xi_exponent_error_points_at_the_exponent(text, position):
    # blanks before a factor are skipped before its position is taken
    with pytest.raises(ParseError) as err:
        parse_xi_expr(text)
    assert str(err.value) == (
        f"factor exponent must be positive at position {position} (expected positive integer)")
    assert text[err.value.position] == "0"


@pytest.mark.parametrize("parse,text,position", [
    (parse_measure_expr, "d_\u00b2", 2),  # superscript two
    (parse_measure_expr, "d_\u0663", 2),  # Arabic-Indic three, once read as 3
    (parse_measure_expr, "\u00b2*d_1", 0),
    (parse_measure_expr, "3/\u00b2*d_1", 2),
    (parse_measure_expr, "d_1/\uff12", 4),  # fullwidth two
    (parse_xi_expr, "xi(\u00b2:1)", 3),
    (parse_xi_expr, "xi(1:2,\u0663)", 7),
], ids=["superscript", "arabic-indic", "leading", "scalar-divisor", "fullwidth",
        "xi-numerator", "xi-denominator"])
def test_only_ascii_digits_are_integers(parse, text, position):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.position == position
    assert str(err.value).startswith(f"unexpected character {text[position]!r} at position")
    assert "integer" in err.value.expected


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="no integer string conversion limit")
@pytest.mark.parametrize("parse,prefix,suffix", [
    (parse_measure_expr, "d_", ""), (parse_measure_expr, "", "*d_1"),
    (parse_measure_expr, "d_1/", ""), (parse_xi_expr, "xi(", ":1)"),
], ids=["atom", "scalar", "divisor", "xi"])
def test_integer_beyond_the_conversion_limit(parse, prefix, suffix):
    digits = sys.get_int_max_str_digits() + 1
    with pytest.raises(ParseError) as err:
        parse(prefix + "1" * digits + suffix)
    assert err.value.position == len(prefix)
    assert str(err.value) == (f"integer literal of {digits} digits is too long "
                              f"at position {len(prefix)}")


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_measure_expr("d_1 + %")
    assert err.value.position == 6
    assert err.value.expected
