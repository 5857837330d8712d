import fnmatch
import hashlib
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from cyclade import exact, exprs, measures, transforms, verify
from cyclade.exact import PowerSeries
from cyclade.graphs import GraphFamily
from cyclade.measures import atom_measure, basic_measure, t_series_of_measure
from cyclade.transforms import xi
from cyclade.verify import (
    DEFAULT_SIZE_MATRIX,
    CheckResult,
    RunContext,
    VerificationReport,
    all_check_ids,
    run_all,
)

DATA = Path(__file__).parent / "data"

SMALL_MATRIX = {"A": (2, 3), "D": (3,), "Atilde": (2, 4), "Dtilde": (4,),
                "E6": (6,), "E7": (7,), "E8": (8,),
                "E6tilde": (6,), "E7tilde": (7,), "E8tilde": (8,)}


def test_registry_matches_manifest():
    manifest = (DATA / "registry_manifest.txt").read_text().split()
    assert sorted(all_check_ids()) == sorted(manifest)
    assert len(set(all_check_ids())) == len(all_check_ids())


def test_default_matrix_shape():
    assert DEFAULT_SIZE_MATRIX["A"] == tuple(range(2, 13))
    assert DEFAULT_SIZE_MATRIX["D"] == tuple(range(3, 14))
    assert DEFAULT_SIZE_MATRIX["Atilde"] == tuple(range(2, 17, 2))
    assert DEFAULT_SIZE_MATRIX["Dtilde"] == tuple(range(4, 13))


def test_report_determinism():
    first = run_all(order=8, size_matrix=SMALL_MATRIX)
    second = run_all(order=8, size_matrix=SMALL_MATRIX)
    assert first.to_json_obj(include_timing=False) == second.to_json_obj(include_timing=False)
    assert not first.failures


@pytest.mark.parametrize("order", range(9))
def test_small_order_still_passes(order):
    # below order 5 both affine-E constants agree with the graph T series up
    # to the order; the discrepancy check compares measures, which tells them
    # apart at every order, and each graph check reads its family at its K
    report = run_all(order=order, size_matrix=SMALL_MATRIX)
    assert not report.failures
    assert all(r.order == order for r in report.results)


# SHA-256 of the timing-free order-8 report on SMALL_MATRIX; any changed id,
# status, order or detail string changes it
REPORT_ORDER8_SHA256 = "b28e8e1f13a01e95178c5dcd6f49eb93ee5d8d233b077fa62f0e6bb58bbe178a"


def test_report_digest_is_pinned():
    text = run_all(order=8, size_matrix=SMALL_MATRIX).to_json(include_timing=False)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_ORDER8_SHA256


def test_empty_matrix_skips_graph_checks():
    report = run_all(order=8, size_matrix={})
    by_id = {r.check_id: r for r in report.results}
    assert by_id["thm2.5/E7"].status == "skipped"
    assert by_id["thm7.1/A"].status == "skipped"
    assert by_id["prop5.4/alpha6"].status == "pass"
    assert by_id["xi-identity/E8"].status == "pass"
    assert not report.failures


def one_check(check_id, order):
    """The result of one check, run alone by its id as the --only glob."""
    (result,) = run_all(order, only=check_id).results
    return result


def test_each_check_id_matches_only_itself():
    # so that an id used as the glob of run_all or --only runs that one check
    ids = all_check_ids()
    for check_id in ids:
        assert not set(check_id) & set("*?["), check_id
        assert [i for i in ids if fnmatch.fnmatchcase(i, check_id)] == [check_id]


def test_one_check_examples():
    assert one_check("prop5.6/gamma18", order=16).status == "pass"
    assert one_check("prop8.5/beta3''", order=16).status == "pass"
    assert one_check("prop5.4/n12-infeasible", order=16).status == "pass"
    with pytest.raises(ValueError, match="^no check id matches 'prop9.9/nothing'$"):
        run_all(order=16, only="prop9.9/nothing")


def test_adjudicated_corrections_report():
    r4 = one_check("prop5.6/gamma4", order=16)
    assert r4.status == "pass"
    assert "2*d_4 + d_2 - d_1" in r4.details
    r8 = one_check("prop5.6/gamma8", order=16)
    assert r8.status == "pass"
    assert "alpha_8" in r8.details


def test_etilde_constant_adjudication():
    result = one_check("discrepancy/Etilde-constant", order=24)
    assert result.status == "pass"
    assert "constant=1/2" in result.details


def test_single_family_operations():
    for tag, param, names in (("Dtilde", 6, ("thm2.5",)), ("A", 4, ("thm2.5",)),
                              ("E8", 8, ("thm7.1", "thm8.7")),
                              ("Atilde", 6, ("thm7.1", "thm8.7"))):
        for name in names:
            (result,) = run_all(order=24, size_matrix={tag: (param,)},
                                only=f"{name}/{tag}").results
            assert result.status == "pass", (name, tag)


def test_markdown_report():
    report = run_all(order=8, only="prop5.4/*")
    text = report.to_markdown()
    assert "| prop5.4/alpha6 | pass |" in text
    assert text.endswith("checks.\n")


# SHA-256 of the timing-free order-64 report on the default size matrix
REPORT_ORDER64_SHA256 = "305ba25342e93e9eea9b54483ee6b0b191236a8a53d9f38927e902491f6f65ed"


def test_full_report_digest_is_pinned(full_report):
    text = full_report.to_json(include_timing=False)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_ORDER64_SHA256


def test_graph_checks_report_the_first_differing_coefficient(monkeypatch):
    # A_m's measure moved from alpha_(m+1) to alpha_(m+2)
    real = verify.candidate_measure
    monkeypatch.setattr(verify, "candidate_measure", lambda fam, variant: (
        atom_measure("alpha", "d", fam.param + 2) if fam.tag == "A" else real(fam, variant)))
    report = run_all(order=8, size_matrix={"A": (3,)}, only="thm*/A")
    assert [(r.check_id, r.status, r.details) for r in report.results] == [
        ("thm2.5/A", "pass", "1 instance(s)"),
        ("thm7.1/A", "fail", "A param 3: T series: coefficient 3: 0 != -1"),
        ("thm8.7/A", "fail", "A param 3: ternary T series: coefficient 3: 0 != -1"),
    ]
    (result,) = run_all(order=8, size_matrix={"A": (3,)}, only="thm7.1/A").results
    assert result.details == "A param 3: T series: coefficient 3: 0 != -1"


def test_thm25_substitution_route_is_the_graph_t(monkeypatch):
    # the substitution theta replaced by q, the theta of a zero graph T: the
    # formula route still passes and the substitution route, the fraction
    # certified from the run's substitution theta, fails, as the doubled
    # moments 1, 0, 0, ... show no period
    monkeypatch.setattr(RunContext, "theta_subst",
                        lambda self, fam: PowerSeries.from_list([0, 1], self.graph_order(fam)))
    (result,) = run_all(order=8, size_matrix={"A": (3,)}, only="thm2.5/A").results
    assert (result.status, result.details) == (
        "fail", "A param 3: T from the substitution theta: "
                "no period P of the doubled moments with P + 6 <= 36")


def test_thm25_refutes_a_table_form_that_agrees_up_to_k(monkeypatch):
    # A3's form with the factor (1 - q^40) added agrees with the graph's T
    # up to coefficient 39: below order 40 the formula route, sampled at
    # K = max(order, 36), passes it, and the graph's certified fraction
    # refutes it
    real = verify.theorem_2_5_lookup
    monkeypatch.setattr(verify, "theorem_2_5_lookup", lambda fam: (
        xi([3, 40], [4]) if fam.tag == "A" else real(fam)))
    for order, route in ((0, "substitution"), (8, "substitution"), (64, "formula")):
        (result,) = run_all(order=order, size_matrix={"A": (3,)}, only="thm2.5/A").results
        assert (result.status, result.details) == (
            "fail", f"A param 3: T from the {route} theta: coefficient 40: 1 != 0"), order


def test_thm71_refutes_a_candidate_that_agrees_up_to_the_order(monkeypatch):
    # Atilde20's measure is d_10; d_20 has the same T series up to
    # coefficient 9, so at order 8 only the family's own order K = 80 tells
    # them apart: its T series, and the measure read off its theta too
    real = verify.candidate_measure
    monkeypatch.setattr(verify, "candidate_measure", lambda fam, variant: (
        basic_measure("d", 20) if fam.tag == "Atilde" else real(fam, variant)))
    (result,) = run_all(order=8, size_matrix={"Atilde": (20,)}, only="thm7.1/Atilde").results
    assert (result.status, result.details) == (
        "fail", "Atilde param 20: T series: coefficient 10: 1 != 3")
    ctx = RunContext(8, {"Atilde": (20,)})
    graph = ctx.graph_measure(GraphFamily("Atilde", 20))
    assert graph != basic_measure("d", 20)
    zeros = ", '0'" * 15
    assert verify._difference(graph, basic_measure("d", 20)) == (
        f"atom 0: CyclotomicNumber(order=40, coeffs=['1/20'{zeros}]) != "
        f"CyclotomicNumber(order=40, coeffs=['1/40'{zeros}])")


def test_thm71_reads_the_graph_measure_beyond_a_small_order():
    # A40's measure has period P = 41, and the test m_(k+P) = m_k for
    # k < 2n = 80 needs T to order 121, far above the run's order
    (result,) = run_all(order=8, size_matrix={"A": (40,)}, only="thm7.1/A").results
    assert (result.status, result.details) == ("pass", "1 instance(s)")
    ctx = RunContext(8, {"A": (40,)})
    assert ctx.graph_measure(GraphFamily("A", 40)) == atom_measure("alpha", "d", 41)


def test_thm71_fails_when_no_period_fits(monkeypatch):
    # the theta read at K = 36 and the candidate are those of d_1000, whose
    # T is 1/(1 - q) below moment 1000, so theta = 1 + q; but the doubled
    # moments 2, 0, 0, ... show no period within K, so the graph's measure
    # is that ValueError, and so is its T, the fraction of that measure
    d1000 = basic_measure("d", 1000)
    monkeypatch.setattr(verify, "candidate_measure", lambda fam, variant: d1000)
    monkeypatch.setattr(RunContext, "theta_subst", lambda self, fam: (
        PowerSeries.from_list([1, 1], self.graph_order(fam))))
    (result,) = run_all(order=8, size_matrix={"A": (3,)}, only="thm7.1/A").results
    assert (result.status, result.details) == (
        "fail", "A param 3: T series: no period P of the doubled moments with P + 6 <= 36")
    error = RunContext(8).graph_measure(GraphFamily("A", 3))
    assert type(error) is ValueError
    assert str(error) == "no period P of the doubled moments with P + 6 <= 36"


def test_thm71_period_test_reads_2n_terms(monkeypatch):
    # the theta read at K agrees with A3's measure alpha_4 (period 4) for
    # the doubled moments m_0 .. m_8 and then vanishes, so m_k = 0 from
    # k = 9 on: m_(k+4) = m_k holds for k < 5 but not at k = 5 < 2n = 6, as
    # m_5 = m_1 = -1, and no other P fits either
    def theta_subst(self, fam):
        k = self.graph_order(fam)
        t = t_series_of_measure(atom_measure("alpha", "d", 4), k).coeffs
        # m_r, coefficient r of 1 + T(q)(1 - q), and theta = m - 1 + q
        m = [1 + t[0], *(b - a for a, b in zip(t[:8], t[1:9]))]
        return PowerSeries.from_list([m[0] - 1, m[1] + 1, *m[2:]], k)

    monkeypatch.setattr(RunContext, "theta_subst", theta_subst)
    error = RunContext(8, {"A": (3,)}).graph_measure(GraphFamily("A", 3))
    assert type(error) is ValueError
    assert str(error) == "no period P of the doubled moments with P + 6 <= 36"


def test_prop34_refutes_a_candidate_that_agrees_below_moment_20(monkeypatch):
    # A4's measure is alpha_5; alpha_5 + d_10 - d_20 has its moments below
    # moment 20, so comparing moments up to the run's order passed it at
    # orders 0 and 8; the measure certified from A4's theta refutes it at
    # every order
    real = verify.candidate_measure
    monkeypatch.setattr(verify, "candidate_measure", lambda fam, variant: (
        exprs.parse_measure_expr("alpha_5 + d_10 - d_20") if fam.label == "A4"
        else real(fam, variant)))
    for order in (0, 8, 64):
        (result,) = run_all(order=order, only="prop3.4").results
        assert result.status == "fail", order
        assert result.details.startswith("A4 measure read off the graph's T: atom 0: "), order


def test_measure_case_reports_the_first_differing_atom(monkeypatch):
    # the affine-A measure on the 4th roots replaced by the one on the 2nd
    monkeypatch.setattr(verify, "candidate_measure",
                        lambda fam, variant: basic_measure("d", fam.param // 2 + 1))
    (result,) = run_all(order=8, size_matrix={"Atilde": (2,)}, only="prop3.6/Atilde").results
    assert (result.status, result.details) == (
        "fail", "Atilde param 2: candidate vs uniform measure: atom 0: "
                "CyclotomicNumber(order=4, coeffs=['1/4', '0']) != "
                "CyclotomicNumber(order=4, coeffs=['1/2', '0'])")


def test_scalar_case_reports_both_values_and_stops(monkeypatch):
    calls = []
    monkeypatch.setattr(verify, "level", lambda e: calls.append(e) or 2)
    result = one_check("level/basics", order=8)
    assert (result.status, result.details) == ("fail", "level of d_1: 2 != 0")
    assert len(calls) == 1  # the cases after the first failure are never computed


def test_level_check_reports_the_first_family_above_3(monkeypatch):
    monkeypatch.setattr(verify, "level", lambda e: 4)
    (result,) = run_all(order=8, size_matrix={"A": (2, 3)}, only="level/ADE").results
    assert (result.status, result.details) == ("fail", "A2 has level 4")


def test_etilde_constant_check_needs_one_match_per_family(monkeypatch):
    # both constants written with /2, so both match E6tilde's measure
    real = verify._etilde_ternary
    monkeypatch.setattr(verify, "_etilde_ternary", lambda ell, den: real(ell, 2))
    (result,) = run_all(order=8, only="discrepancy/Etilde-constant").results
    assert (result.status, result.details) == ("fail", "E6tilde: 2 constants match")


def test_etilde_constant_check_reads_the_graph_not_the_table(monkeypatch):
    # the table's affine-E measures replaced by the forms with /3: the check
    # compares with the measure read off each graph, so 1/2 still wins
    real = verify.candidate_measure
    monkeypatch.setattr(verify, "candidate_measure", lambda fam, variant: (
        exprs.parse_measure_expr(verify._etilde_ternary(verify._ETILDE_ELL[fam.tag], 3))
        if fam.tag in verify._ETILDE_ELL else real(fam, variant)))
    (result,) = run_all(order=8, only="discrepancy/Etilde-constant").results
    assert (result.status, result.details) == ("pass", "constant=1/2")


def test_etilde_constant_check_needs_one_winner(monkeypatch):
    # E8tilde's two forms swapped, so its constant 1/3 wins
    real = verify._etilde_ternary
    monkeypatch.setattr(verify, "_etilde_ternary",
                        lambda ell, den: real(ell, 5 - den if ell == 5 else den))
    (result,) = run_all(order=8, only="discrepancy/Etilde-constant").results
    assert (result.status, result.details) == (
        "fail", "inconsistent winners [Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)]")


def test_a_crashed_check_fails_and_the_run_goes_on(monkeypatch):
    def crash(ctx):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(verify, "registry", lambda: {"demo/crash": crash,
                                                     "demo/next": lambda ctx: ("pass", "ok")})
    report = run_all(order=8)
    assert [(r.check_id, r.status, r.details) for r in report.results] == [
        ("demo/crash", "fail", "exception: ZeroDivisionError('boom')"),
        ("demo/next", "pass", "ok"),
    ]


def test_exceptional_parameter_other_than_its_digit_fails():
    # the size matrix is checked before any check runs
    with pytest.raises(ValueError, match="E7 has parameter 7"):
        run_all(order=8, size_matrix={"E7": (7, 99)}, only="thm2.5/E7")


@pytest.mark.parametrize("sizes,message", [({"F4": (4,)}, "unknown family tag 'F4'"),
                                           ({"A": (1,)}, "A needs at least 2 vertices"),
                                           ({"A": (3.5,)}, "A parameter must be an int, got 3.5"),
                                           ({"A": ("3",)}, "A parameter must be an int, got '3'")])
def test_bad_size_matrix_is_a_value_error(sizes, message):
    with pytest.raises(ValueError, match=message):
        run_all(order=8, size_matrix=sizes, only="prop5.7/*")


@pytest.mark.parametrize("run", [lambda: run_all(order=-1),
                                 lambda: run_all(order=-1, only="prop3.3/*"),
                                 lambda: one_check("prop3.3/A", order=-1)],
                         ids=["run_all", "run_all-only", "run_all-one-id"])
def test_negative_order_is_refused_up_front(run):
    # refused before any check runs, not reported as a mix of passes and
    # failed checks
    with pytest.raises(ValueError, match="^order must be nonnegative, got -1$"):
        run()


def test_report_records_are_mutable_values():
    # a report compares field by field and is not hashable, as a mutable
    # record should be; its results list starts empty and is its own
    first, second = VerificationReport(8), VerificationReport(8)
    assert first == second and first.results == [] and first.results is not second.results
    result = CheckResult("prop5.4/alpha6", "pass", 8, 0.25)
    first.results.append(result)
    assert first != second
    assert first == VerificationReport(8, [CheckResult("prop5.4/alpha6", "pass", 8, 0.25, "")])
    assert repr(result) == ("CheckResult(check_id='prop5.4/alpha6', status='pass', order=8, "
                            "elapsed=0.25, details='')")
    result.details = "1 case(s)"
    assert first.to_json_obj(include_timing=False)["checks"][0]["details"] == "1 case(s)"
    for value in (first, result):
        with pytest.raises(TypeError):
            hash(value)


def test_run_context_memo_keys_on_family_value():
    # the exceptional default and the explicit digit are one memo entry
    ctx = RunContext(8)
    assert ctx.counts(GraphFamily("E7")) is ctx.counts(GraphFamily("E7", 7))


@pytest.mark.parametrize("order", [8, 64])
def test_a_check_alone_answers_as_in_a_full_run(order, full_report):
    # the run's memo is shared between checks, so no answer may depend on
    # which checks ran before it
    report = full_report if order == 64 else run_all(order=order)
    for r in report.results:
        alone = one_check(r.check_id, order)
        assert (alone.status, alone.details) == (r.status, r.details), r.check_id


def test_each_shared_series_is_computed_once(monkeypatch):
    # a run parses each printed text of the xi identities once, its fraction
    # shared by every case, and no other xi text: the series tables build
    # their xi forms from numbers
    parsed = Counter()
    parse = exprs.parse_xi_expr
    monkeypatch.setattr(exprs, "parse_xi_expr", lambda text: parsed.update([text]) or parse(text))
    printed = {text for _, table in verify._xi_identity_tables() for _, lhs, rhs in table
               for _, text, _ in lhs + rhs}
    assert not run_all(order=64).failures
    assert parsed == Counter(printed)
    for glob in ("prop4.5", "prop5.3", "prop6.3", "prop6.4"):
        parsed.clear()
        assert not run_all(order=64, only=glob).failures
        assert not parsed, glob


def test_each_graph_fraction_is_computed_once(monkeypatch):
    # thm2.5, thm7.1, thm8.7 and prop3.6 share one T fraction per family
    measures, fractions = {}, Counter()
    graph_measure, t_fraction = RunContext.graph_measure, verify.t_fraction_of_measure

    def spy_measure(self, fam):
        e = graph_measure(self, fam)
        measures[id(e)] = e
        return e

    monkeypatch.setattr(RunContext, "graph_measure", spy_measure)
    monkeypatch.setattr(verify, "t_fraction_of_measure",
                        lambda e: fractions.update([id(e)]) or t_fraction(e))
    families = sum(map(len, DEFAULT_SIZE_MATRIX.values()))
    assert not run_all(order=64).failures
    assert len(measures) == families
    assert [fractions[key] for key in measures] == [1] * families


def test_each_graph_is_read_once_at_its_order(monkeypatch):
    # one order per family: each graph's loop counts are computed once in a
    # run, thm7.1, which reads only the graph measure, computes no formula
    # theta, and only thm2.5's formula case turns a theta into a T series
    counted, formula, to_t = Counter(), [], []
    counts_of, formula_of = verify.loop_counts, verify.theta_from_poincare_formula
    t_of = verify.t_from_theta

    def counting_counts(graph, order):
        counted[graph] += 1
        return counts_of(graph, order)

    def counting_formula(counts, order):
        formula.append(order)
        return formula_of(counts, order)

    monkeypatch.setattr(verify, "loop_counts", counting_counts)
    monkeypatch.setattr(verify, "theta_from_poincare_formula", counting_formula)
    monkeypatch.setattr(verify, "t_from_theta", lambda theta: to_t.append(theta) or t_of(theta))
    families = sum(map(len, DEFAULT_SIZE_MATRIX.values()))
    assert not run_all(order=8).failures
    assert len(counted) == families
    assert set(counted.values()) == {1}
    formula.clear()
    assert not run_all(order=8, only="thm7.1/*").failures
    assert formula == []
    for glob, calls in (("thm7.1/*", 0), ("thm8.7/*", 0), ("prop3.6/*", 0), ("prop3.4", 0),
                        ("thm2.5/*", families)):
        to_t.clear()
        assert not run_all(order=8, only=glob).failures
        assert len(to_t) == calls, glob


# the series tables: each case an identity of two rational functions
_SERIES_TABLES = ("lemma4.4", "prop4.5", "prop5.3", "lemma6.2", "prop6.3", "prop6.4",
                  "closed-form/sweep", "xi-identity/*")


def _refuse(*args):
    raise AssertionError("a series was computed")


def _refuse_series_routes(monkeypatch):
    # at their modules, and under any name that verify imports them by
    for module, name in ((transforms, "xi_expand"), (measures, "t_series_of_measure")):
        monkeypatch.setattr(module, name, _refuse)
        monkeypatch.setattr(verify, name, _refuse, raising=False)


def test_series_tables_pass_without_a_series(monkeypatch):
    # each table compares fractions by cross-multiplication, so a pass
    # expands nothing and adds, scales or shifts no series
    _refuse_series_routes(monkeypatch)
    monkeypatch.setattr(exact, "series_from_integers", _refuse)
    monkeypatch.setattr(PowerSeries, "_plus", _refuse)
    for glob in _SERIES_TABLES:
        report = run_all(order=64, only=glob)
        assert report.results and [r.status for r in report.results] == ["pass"] * len(
            report.results), glob


def test_graph_t_cases_pass_without_a_series_route(monkeypatch):
    # each graph's T is the fraction of its certified measure, so thm2.5,
    # thm7.1, thm8.7 and prop3.6 expand no xi form and no measure T series
    _refuse_series_routes(monkeypatch)
    for glob in ("thm2.5/*", "thm7.1/*", "thm8.7/*", "prop3.6/*"):
        report = run_all(order=64, only=glob)
        assert report.results and [r.status for r in report.results] == ["pass"] * len(
            report.results), glob


def test_thm87_refutes_a_ternary_form_that_agrees_up_to_k(monkeypatch):
    # d_90 and d_85 have the same T series up to coefficient 84, so the
    # ternary form d_10 + d_90 - d_85 of Atilde20 agrees with the graph's T
    # at K = 80, and only the fraction refutes it
    real = verify.candidate_measure
    form = basic_measure("d", 10) + basic_measure("d", 90) - basic_measure("d", 85)
    monkeypatch.setattr(verify, "candidate_measure", lambda fam, variant: (
        form if (fam.tag, variant) == ("Atilde", "thm87") else real(fam, variant)))
    (result,) = run_all(order=8, size_matrix={"Atilde": (20,)}, only="thm8.7/Atilde").results
    assert (result.status, result.details) == (
        "fail", "Atilde param 20: ternary T series: coefficient 85: 15 != 17")


def test_prop45_refutes_a_text_that_agrees_up_to_the_order(monkeypatch):
    # xi'(1,13:14) agrees with the T series of 1 - u^2 on the 24th roots
    # up to coefficient 10, so below order 11 only an exact comparison
    # refutes it
    real = verify._measure_xi_cases
    monkeypatch.setattr(verify, "_measure_xi_cases", lambda instances: real(
        (label, poly, kind, n, xi([1, 13], [14, 1]) if label == "l=1 n=12" else form)
        for label, poly, kind, n, form in instances))
    monkeypatch.setitem(verify.registry(), "prop4.5", verify._equal_check(
        verify._one_minus_power_cases("d"), "l < n <= 12"))
    for order in (0, 8, 64):
        result = one_check("prop4.5", order)
        assert (result.status, result.details) == (
            "fail", "l=1 n=12: coefficient 11: -1 != 0"), order


_HALF = Fraction(1, 2)


@pytest.mark.parametrize("check_id,table,details", [
    # E6 with -xi'(4+:4)/2 written -xi'(5+:5)/2
    ("xi-identity/E6",
     [("decomposition", [(1, "xi(8:3,6+)", 0)],
       [(1, "xi(11:12)", 0), (_HALF, "xi'(12+:12)", 0), (-_HALF, "xi'(6+:6)", 0),
        (-_HALF, "xi'(5+:5)", 0), (_HALF, "xi'(3+:3)", 0)])],
     "decomposition: coefficient 4: 0 != 1"),
    # the l = 2 split with the monomial q^2 written q
    ("xi-identity/Etilde-l2",
     [("split", [(1, "xi(6+:3,4)", 0)], [(1, "xi(2:3)", 0), (1, "xi(:2,3)", 1)])],
     "split: coefficient 1: 0 != 1"),
    # E8 with a term 1/3 q^3 (1 - q^4) added on the right
    ("xi-identity/E8",
     [("decomposition", [(1, "xi(5+,9+:15+)", 0)],
       [(1, "xi(14+:15+)", 0), (1, "xi'(3,12+:15+)", 0), (-_HALF, "xi'(5:5+)", 0),
        (-_HALF, "xi'(3:3+)", 0), (Fraction(1, 3), "xi(4:)", 3)])],
     "decomposition: coefficient 3: 0 != 1/3"),
])
def test_xi_identity_reports_the_first_differing_coefficient(monkeypatch, check_id, table,
                                                              details):
    # a difference below the order reads as when both sides were series
    # expanded to the order and compared: the details are those of that
    # comparison, whatever the order
    monkeypatch.setitem(verify.registry(), check_id,
                        verify._equal_check(verify._xi_cases(table), "1 case(s)"))
    for order in (4, 8, 64):
        result = one_check(check_id, order)
        assert (result.status, result.details) == ("fail", details), order
