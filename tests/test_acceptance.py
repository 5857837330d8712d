"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every comparison is exact, the working order is 64, and the graph instances
are the default size matrix (A 2..12, D 3..13, even affine-A cycles up to 16
vertices, affine-D up to parameter 12, and the six exceptional graphs).
Run with ``pytest -s tests/test_acceptance.py`` to see the criterion lines.
"""

from cyclade.verify import CORRECTED_IDENTITIES, MEASURE_IDENTITIES

ORDER = 64


def _criterion(report_by_id, number, description, ids):
    missing = [i for i in ids if i not in report_by_id]
    bad = [report_by_id[i] for i in ids if i in report_by_id
           and report_by_id[i].status != "pass"]
    ok = not missing and not bad
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    for r in bad:
        print(f"    {r.check_id}: {r.status} ({r.details})")
    for i in missing:
        print(f"    missing check: {i}")
    assert ok, f"criterion {number} failed"


def _family_ids(prefix):
    return [f"{prefix}/{tag}" for tag in
            ("A", "Atilde", "D", "Dtilde", "E6", "E7", "E8",
             "E6tilde", "E7tilde", "E8tilde")]


def test_criterion_1_t_series_table(report_by_id):
    _criterion(report_by_id, 1,
               "loop-count pipeline reproduces the closed-form T table at order 64",
               _family_ids("thm2.5"))


def test_criterion_2_theta_two_paths(report_by_id):
    _criterion(report_by_id, 2,
               "both theta routes agree and their coefficients are integers",
               _family_ids("theta-paths"))


def test_criterion_3_measure_tables(report_by_id):
    ids = _family_ids("thm7.1") + _family_ids("thm8.7") + ["discrepancy/Etilde-constant"]
    constant = report_by_id["discrepancy/Etilde-constant"].details
    assert "constant=1/2" in constant
    _criterion(report_by_id, 3,
               f"measure tables match the graphs, atomwise equal, probability; "
               f"affine-E {constant}", ids)


def test_criterion_4_weight_tables(report_by_id):
    _criterion(report_by_id, 4,
               "printed weight tables reproduced as exact cyclotomic numbers",
               ["prop5.4/alpha12-weights", "prop5.4/common-weights"])


def test_criterion_5_identity_catalog(report_by_id):
    ids = [check_id for check_id, _, _ in MEASURE_IDENTITIES]
    ids += [check_id for check_id, _, _, _ in CORRECTED_IDENTITIES]
    ids += [i for i in report_by_id if i.startswith("xi-identity/")]
    corrections = [report_by_id[c].details for c, _, _, _ in CORRECTED_IDENTITIES]
    _criterion(report_by_id, 5,
               f"identity catalog holds atomwise and as series "
               f"({len(CORRECTED_IDENTITIES)} adjudicated corrections)", ids)
    for line in corrections:
        print(f"    adjudicated: {line}")


def test_criterion_6_measure_axioms(report_by_id):
    # prop3.4 compares each candidate with the measure certified from the
    # graph's theta, which fixes the pushforward moments at every order
    ids = _family_ids("prop3.3") + ["prop3.4"] + _family_ids("thm7.1")
    _criterion(report_by_id, 6,
               "symmetry, vanishing odd moments, half-integer even moments, "
               "candidate equals the measure certified from the graph's theta", ids)


def test_criterion_7_expansion_solver(report_by_id):
    _criterion(report_by_id, 7,
               "expansion round-trips, level <= 3 on the matrix, level basics, "
               "uniform-only infeasibility certified",
               ["thm4.6", "level/ADE", "level/basics", "prop5.4/n12-infeasible"])


def test_criterion_8_closed_forms(report_by_id):
    _criterion(report_by_id, 8,
               "closed-form T lemmas agree with atom moments for degrees 1..3, "
               "both variants, n <= 20", ["closed-form/sweep", "lemma4.4", "lemma6.2"])


def test_full_report_is_green(full_report):
    assert full_report.order == ORDER
    assert not full_report.failures
