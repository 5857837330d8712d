import hashlib
from pathlib import Path

import pytest

from cyclade import verify
from cyclade.graphs import GraphFamily
from cyclade.measures import atom_measure, basic_measure
from cyclade.verify import (
    DEFAULT_SIZE_MATRIX,
    UnknownCheckId,
    all_check_ids,
    run_all,
    verify_graph_measure,
    verify_graph_t,
    verify_identity,
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


def test_small_order_still_passes():
    report = run_all(order=8, size_matrix=SMALL_MATRIX)
    assert not report.failures
    assert all(r.order == 8 for r in report.results)


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


def test_verify_identity_examples():
    assert verify_identity("prop5.6/gamma18", order=16).status == "pass"
    assert verify_identity("prop8.5/beta3''", order=16).status == "pass"
    assert verify_identity("prop5.4/n12-infeasible", order=16).status == "pass"
    with pytest.raises(UnknownCheckId):
        verify_identity("prop9.9/nothing")


def test_adjudicated_corrections_report():
    r4 = verify_identity("prop5.6/gamma4", order=16)
    assert r4.status == "pass"
    assert "2*d_4 + d_2 - d_1" in r4.details
    r8 = verify_identity("prop5.6/gamma8", order=16)
    assert r8.status == "pass"
    assert "alpha_8" in r8.details


def test_etilde_constant_adjudication():
    result = verify_identity("discrepancy/Etilde-constant", order=24)
    assert result.status == "pass"
    assert "constant=1/2" in result.details


def test_single_family_operations():
    assert verify_graph_t(GraphFamily("Dtilde", 6), order=24).status == "pass"
    assert verify_graph_t(GraphFamily("A", 4), order=24).status == "pass"
    assert verify_graph_measure(GraphFamily("E8", 8), order=24).status == "pass"
    assert verify_graph_measure(GraphFamily("Atilde", 6), order=24).status == "pass"


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
    assert verify_graph_measure(GraphFamily("A", 3), order=8).details == (
        "A param 3: T series: coefficient 3: 0 != -1")


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
    result = verify_identity("level/basics", order=8)
    assert (result.status, result.details) == ("fail", "level of d_1: 2 != 0")
    assert len(calls) == 1  # the cases after the first failure are never computed


def test_exceptional_parameter_other_than_its_digit_fails():
    (result,) = run_all(order=8, size_matrix={"E7": (7, 99)}, only="thm2.5/E7").results
    assert result.status == "fail"
    assert "E7 has parameter 7" in result.details
