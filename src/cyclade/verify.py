"""Registry of named checks, one per claim in the verified catalog, with a
deterministic machine-readable report.

Check identifiers are stable catalog labels ("thm2.5/E7", "prop5.4/alpha6",
"xi-identity/Dtilde", ...).  Graph-parameterized checks draw their instances
from a size matrix mapping family tags to parameter lists; an empty list
skips the check.  All comparisons are exact.
"""

from __future__ import annotations

import fnmatch
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .exact import CyclotomicNumber, PowerSeries, QPolynomial, cyclo_make, series_from_integers
from .graphs import FAMILY_TAGS, GraphFamily, build_ade, loop_counts
from .transforms import (
    t_closed_form,
    t_from_theta,
    theorem_2_5_lookup,
    theta_from_poincare_formula,
    theta_from_poincare_subst,
    xi_expand,
)
from .measures import (
    DENSITY_POLYS,
    ETILDE_ELL,
    CyclotomicMeasure,
    atom_measure,
    basic_measure,
    candidate_measure,
    cyclotomic_expansion,
    density_measure,
    etilde_ternary,
    expand_over_level,
    first_atom_difference,
    level,
    lincomb,
    measure_equal,
    one_minus_power,
    pushforward_real,
    reconstruct_expansion,
    t_series_of_measure,
    _even_moments,
)
from . import exprs


class UnknownCheckId(KeyError):
    pass


DEFAULT_SIZE_MATRIX: Dict[str, Tuple[int, ...]] = {
    "A": tuple(range(2, 13)),
    "D": tuple(range(3, 14)),
    "Atilde": tuple(range(2, 17, 2)),
    "Dtilde": tuple(range(4, 13)),
    "E6": (6,),
    "E7": (7,),
    "E8": (8,),
    "E6tilde": (6,),
    "E7tilde": (7,),
    "E8tilde": (8,),
}


@dataclass
class CheckResult:
    check_id: str
    status: str  # pass | fail | skipped
    order: int
    elapsed: float
    details: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "fail"


@dataclass
class VerificationReport:
    order: int
    results: List[CheckResult] = field(default_factory=list)

    @property
    def failures(self) -> List[CheckResult]:
        return [r for r in self.results if r.status == "fail"]

    def to_json_obj(self, include_timing: bool = True) -> dict:
        checks = []
        for r in self.results:
            entry = {"id": r.check_id, "status": r.status, "order": r.order,
                     "details": r.details}
            if include_timing:
                entry["elapsed_ms"] = round(r.elapsed * 1000, 3)
            checks.append(entry)
        return {"order": self.order, "failures": len(self.failures), "checks": checks}

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_json_obj(include_timing), indent=2) + "\n"

    def to_markdown(self) -> str:
        lines = [f"# Verification report (order {self.order})", "",
                 "| check | status | details |", "| --- | --- | --- |"]
        for r in self.results:
            detail = r.details.replace("|", "\\|")
            lines.append(f"| {r.check_id} | {r.status} | {detail} |")
        lines.append("")
        lines.append(f"{len(self.failures)} failures out of {len(self.results)} checks.")
        return "\n".join(lines) + "\n"


class RunContext:
    """Shared inputs plus a cache of per-family pipeline results."""

    def __init__(self, order: int, sizes: Optional[Dict[str, Sequence[int]]] = None):
        self.order = order
        self.sizes = DEFAULT_SIZE_MATRIX if sizes is None else sizes
        self._cache: Dict[tuple, object] = {}

    def params(self, tag: str) -> Tuple[int, ...]:
        return tuple(self.sizes.get(tag, ()))

    def families(self) -> List[GraphFamily]:
        out = []
        for tag in FAMILY_TAGS:
            out.extend(GraphFamily(tag, m) for m in self.params(tag))
        return out

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def counts(self, fam: GraphFamily) -> PowerSeries:
        return self._memo(("counts", fam), lambda: series_from_integers(
            loop_counts(build_ade(fam), self.order)))

    def thetas(self, fam: GraphFamily) -> Tuple[PowerSeries, PowerSeries]:
        def build():
            c = self.counts(fam)
            return (theta_from_poincare_formula(c, self.order),
                    theta_from_poincare_subst(c, self.order))
        return self._memo(("thetas", fam), build)

    def graph_t(self, fam: GraphFamily) -> PowerSeries:
        return self._memo(("t", fam), lambda: t_from_theta(self.thetas(fam)[1]))

    def candidate(self, fam: GraphFamily, variant: str) -> CyclotomicMeasure:
        return self._memo(("measure", fam, variant),
                          lambda: candidate_measure(fam, variant))

    def candidate_t(self, fam: GraphFamily, variant: str) -> PowerSeries:
        return self._memo(("measure-t", fam, variant), lambda: t_series_of_measure(
            self.candidate(fam, variant), self.order))


def _first_diff(a: PowerSeries, b: PowerSeries) -> str:
    for i, (x, y) in enumerate(zip(a.coeffs, b.coeffs)):
        if x != y:
            return f"coefficient {i}: {x} != {y}"
    return "series agree"


# ---------------------------------------------------------------------------
# Check bodies
# ---------------------------------------------------------------------------

def _graph_check(tag: str, body) -> Callable:
    def run(ctx: RunContext):
        params = ctx.params(tag)
        if not params:
            return "skipped", "no parameters in size matrix"
        for m in params:
            ok, details = body(ctx, GraphFamily(tag, m))
            if not ok:
                return "fail", f"{tag} param {m}: {details}"
        return "pass", f"{len(params)} instance(s)"
    return run


def _thm25_body(ctx: RunContext, fam: GraphFamily):
    expected = xi_expand(theorem_2_5_lookup(fam), ctx.order)
    theta_f, theta_s = ctx.thetas(fam)
    for theta in (theta_f, theta_s):
        got = t_from_theta(theta)
        if got != expected:
            return False, _first_diff(got, expected)
    return True, ""


def _theta_body(ctx: RunContext, fam: GraphFamily):
    theta_f, theta_s = ctx.thetas(fam)
    if theta_f != theta_s:
        return False, _first_diff(theta_f, theta_s)
    bad = [i for i, c in enumerate(theta_s.coeffs) if c.denominator != 1]
    if bad:
        return False, f"non-integer theta coefficient at {bad[0]}"
    return True, ""


def _prop33_body(ctx: RunContext, fam: GraphFamily):
    # the four-fold symmetry holds by construction: measures store one
    # weight per orbit
    e = ctx.candidate(fam, "thm71")
    n = e.order
    # odd moments vanish, as each stored orbit holds both u and -u
    nums, den = _even_moments(e, n // 2 - 1)
    for j, v in enumerate(nums):
        if 2 * v % den:
            mk = CyclotomicNumber.from_rational(Fraction(v, den), n)
            return False, f"even moment {2 * j} is not a half-integer: {mk!r}"
    return True, ""


def _thm71_body(ctx: RunContext, fam: GraphFamily):
    e = ctx.candidate(fam, "thm71")
    if ctx.candidate_t(fam, "thm71") != ctx.graph_t(fam):
        return False, _first_diff(ctx.candidate_t(fam, "thm71"), ctx.graph_t(fam))
    if not e.is_probability():
        return False, "not a probability measure"
    counts = ctx.counts(fam)
    for k, mu in enumerate(pushforward_real(e).moments(ctx.order // 2)):
        if mu != counts[k]:
            return False, f"pushforward moment {k}: {mu!r} != {counts[k]}"
    return True, ""


def _thm87_body(ctx: RunContext, fam: GraphFamily):
    if ctx.candidate_t(fam, "thm87") != ctx.graph_t(fam):
        return False, _first_diff(ctx.candidate_t(fam, "thm87"), ctx.graph_t(fam))
    diff = first_atom_difference(ctx.candidate(fam, "thm87"), ctx.candidate(fam, "thm71"))
    if diff is not None:
        j, x, y = diff
        return False, f"ternary and binary forms differ at atom {j}: {x!r} != {y!r}"
    return True, ""


def _check_prop34(ctx: RunContext):
    reps = [GraphFamily("A", 4), GraphFamily("Dtilde", 6), GraphFamily("E7", 7)]
    for fam in reps:
        t = ctx.graph_t(fam).coeffs
        nums, den = _even_moments(ctx.candidate(fam, "thm71"), ctx.order)
        for k, v in enumerate(nums):
            lhs = Fraction(2 * v, den)
            rhs = (t[k] - (t[k - 1] if k else 0)) + (1 if k == 0 else 0)
            if lhs != rhs:
                return "fail", f"{fam.label} moment {2 * k}: {lhs} != {rhs}"
    return "pass", f"{len(reps)} representative(s)"


def _prop36_body(ctx: RunContext, fam: GraphFamily):
    uniform = basic_measure("d", fam.param // 2)
    if not measure_equal(ctx.candidate(fam, "thm71"), uniform):
        return False, "candidate is not the uniform measure"
    if t_series_of_measure(uniform, ctx.order) != ctx.graph_t(fam):
        return False, "uniform measure T differs"
    return True, ""


def _series_check(cases, summary: str) -> Callable:
    """A check over pairs of series: cases(order) yields (label, lhs, rhs),
    and the first unequal pair fails the check under its label."""
    def run(ctx: RunContext):
        for label, lhs, rhs in cases(ctx.order):
            if lhs != rhs:
                return "fail", f"{label}: " + _first_diff(lhs, rhs)
        return "pass", summary
    return run


def _xi(text: str, order: int) -> PowerSeries:
    return xi_expand(exprs.parse_xi_expr(text), order)


_SAMPLE_POLYS = (
    QPolynomial([1]),
    QPolynomial([1, -1]),
    QPolynomial([1, Fraction(1, 2)]),
    QPolynomial([1, -1, 1]),
    QPolynomial([1, 0, 0, -1]),
    QPolynomial([1, -2, 1]),
)


def _closed_form_cases(instances):
    """The closed-form T lemma against the T series built from the atoms;
    instances are (label, P, n, variant), the unprimed variant on d and the
    primed one on d'."""
    def cases(order: int):
        for label, poly, n, variant in instances:
            e = density_measure(poly, "d" if variant == "unprimed" else "dprime", n)
            yield label, t_closed_form(poly, n, variant, order), t_series_of_measure(e, order)
    return cases


def _lemma_cases(variant: str):
    return _closed_form_cases([(f"P={list(poly.coeffs)} n={n}", poly, n, variant)
                               for poly in _SAMPLE_POLYS for n in {poly.degree + 1, 7, 10}
                               if n > poly.degree])


_SWEEP_CASES = _closed_form_cases([(f"{name} {variant} n={n}", poly, n, variant)
                                   for name, poly in DENSITY_POLYS.items()
                                   for variant in ("unprimed", "primed")
                                   for n in range(poly.degree + 1, 21)])


def _measure_xi_cases(instances):
    """The T series of a measure against its xi form; instances are (label,
    P, base kind, n, xi text), P None for the base measure itself."""
    def cases(order: int):
        for label, poly, kind, n, text in instances:
            e = basic_measure(kind, n) if poly is None else density_measure(poly, kind, n)
            yield label, t_series_of_measure(e, order), _xi(text, order)
    return cases


def _one_minus_power_cases(kind: str, plus: str):
    return _measure_xi_cases([(f"l={l} n={n}", one_minus_power(l), kind, n,
                               f"xi'({l},{n - l}{plus}:{n}{plus})")
                              for n in range(2, 13) for l in range(1, n)])


# (atom, least n, xi form on d, xi form on d'), with m_k standing for n - k
_DENSITY_XI_ROWS = (
    ("d", 1, "xi'({n}+:{n})", "xi'({n}:{n}+)"),
    ("alpha", 2, "xi({m1}:{n})", "xi({m1}+:{n}+)"),
    ("beta", 3, "xi(1+,{m2}:{n})", "xi(1+,{m2}+:{n}+)"),
    ("gamma", 4, "xi'(3,{m3}:{n})", "xi'(3,{m3}+:{n}+)"),
)


def _density_table_cases(kind: str):
    return _measure_xi_cases([
        (f"{name} n={n}", DENSITY_POLYS.get(name), kind, n,
         (on_d if kind == "d" else on_dprime).format(n=n, m1=n - 1, m2=n - 2, m3=n - 3))
        for name, start, on_d, on_dprime in _DENSITY_XI_ROWS for n in range(start, 21)])


def _check_thm46(ctx: RunContext):
    measures = [ctx.candidate(fam, "thm71") for fam in ctx.families()]
    measures += [atom_measure("beta", "d", 7), atom_measure("gamma", "d", 11)]
    if not measures:
        return "skipped", "no measures in size matrix"
    for e in measures:
        support = e.minimal_support_order()
        n = support // 2
        res = cyclotomic_expansion(e, n)
        if not res.residual_ok:
            return "fail", f"no exact solution at n={n}"
        rebuilt = t_series_of_measure(reconstruct_expansion(res), ctx.order)
        original = t_series_of_measure(e, ctx.order)
        if rebuilt != original:
            return "fail", f"round trip differs at n={n}: " + _first_diff(rebuilt, original)
    return "pass", f"{len(measures)} measure(s)"


def _check_common_weights(ctx: RunContext):
    # n: (the uniform-only form of alpha_n, its weights at positions 0, 1, ...)
    tables = {
        2: ("2*d_2 - d_1", [Fraction(0), Fraction(1, 2)]),
        3: ("(3*d_3 - d_1)/2", [Fraction(0), Fraction(1, 4)]),
        4: ("(2*d_4 + d_2 - d_1)/2", [Fraction(0), Fraction(1, 8), Fraction(1, 4)]),
        6: ("(d_6 + d_3 + d_2 - d_1)/2",
            [Fraction(0), Fraction(1, 24), Fraction(1, 8), Fraction(1, 6)]),
    }
    for n, (rhs, expected) in tables.items():
        alpha_n = atom_measure("alpha", "d", n)
        other = exprs.parse_measure_expr(rhs)
        for j, value in enumerate(expected):
            if alpha_n.weight(j) != value:
                return "fail", f"n={n} position {j}: {alpha_n.weight(j)!r} != {value}"
            if other.weight(j) != value:
                return "fail", f"n={n} rhs position {j}: {other.weight(j)!r} != {value}"
    return "pass", "n in 2, 3, 4, 6"


def _check_alpha12_weights(ctx: RunContext):
    sqrt3 = cyclo_make(24, {2: 1, 22: 1})
    expected = [
        cyclo_make(24, {0: 0}),
        (2 - sqrt3) * Fraction(1, 48),
        cyclo_make(24, {0: Fraction(1, 48)}),
        cyclo_make(24, {0: Fraction(1, 24)}),
        cyclo_make(24, {0: Fraction(3, 48)}),
        (2 + sqrt3) * Fraction(1, 48),
        cyclo_make(24, {0: Fraction(1, 12)}),
    ]
    alpha12 = atom_measure("alpha", "d", 12)
    for j, value in enumerate(expected):
        if alpha12.weight(j) != value:
            return "fail", f"position {j}: {alpha12.weight(j)!r} != {value!r}"
    return "pass", "seven weights"


def _check_n12_infeasible(ctx: RunContext):
    alpha12 = atom_measure("alpha", "d", 12)
    if expand_over_level(alpha12, 0) is not None:
        return "fail", "a uniform-only expansion exists"
    if expand_over_level(alpha12, 1) is None:
        return "fail", "no expansion found even with degree-1 densities"
    return "pass", "uniform-only system is inconsistent"


def _check_level_ade(ctx: RunContext):
    fams = ctx.families()
    if not fams:
        return "skipped", "no families in size matrix"
    worst = 0
    for fam in fams:
        value = level(ctx.candidate(fam, "thm71"))
        worst = max(worst, value)
        if value > 3:
            return "fail", f"{fam.label} has level {value}"
    return "pass", f"max level {worst}"


def _check_level_basics(ctx: RunContext):
    for n in range(1, 21):
        if level(basic_measure("d", n)) != 0:
            return "fail", f"uniform measure n={n} not level 0"
    for n in range(2, 21):
        value = level(atom_measure("alpha", "d", n))
        if value > 1:
            return "fail", f"degree-1 density n={n} has level {value}"
    return "pass", "n <= 20"


def _check_support_descriptions(ctx: RunContext):
    for n in range(1, 5):
        direct = CyclotomicMeasure(4 * n, [
            Fraction(1, 2 * n) if j % 2 else Fraction(0) for j in range(4 * n)])
        if not measure_equal(lincomb([(Fraction(2), basic_measure("d", 2 * n)),
                                      (Fraction(-1), basic_measure("d", n))]), direct):
            return "fail", f"odd-roots description fails at n={n}"
        direct = CyclotomicMeasure(12 * n, [
            Fraction(1, 4 * n) if j % 6 in (1, 5) else Fraction(0) for j in range(12 * n)])
        if not measure_equal(basic_measure("ddoubleprime", n), direct):
            return "fail", f"6k+-1 description fails at n={n}"
        direct = CyclotomicMeasure(6 * n, [
            Fraction(1, 4 * n) if j % 3 else Fraction(0) for j in range(6 * n)])
        if not measure_equal(basic_measure("dtripleprime", n), direct):
            return "fail", f"3k+-1 description fails at n={n}"
    return "pass", "n <= 4"


def _check_etilde_constant(ctx: RunContext):
    winners = []
    for tag, ell in ETILDE_ELL.items():
        t = ctx.graph_t(GraphFamily(tag, int(tag[1])))
        matches = [c for c in (Fraction(1, 2), Fraction(1, 3))
                   if t_series_of_measure(etilde_ternary(ell, c), ctx.order) == t]
        if len(matches) != 1:
            return "fail", f"{tag}: {len(matches)} constants match"
        winners.append(matches[0])
    if len(set(winners)) != 1:
        return "fail", f"inconsistent winners {winners}"
    return "pass", f"constant={winners[0]}"


# --- measure identity catalog ----------------------------------------------

MEASURE_IDENTITIES: Tuple[Tuple[str, str, str], ...] = (
    ("prop5.4/alpha2", "2*alpha_2", "4*d_2 - 2*d_1"),
    ("prop5.4/alpha3", "2*alpha_3", "3*d_3 - d_1"),
    ("prop5.4/alpha4", "2*alpha_4", "2*d_4 + d_2 - d_1"),
    ("prop5.4/alpha6", "2*alpha_6", "d_6 + d_3 + d_2 - d_1"),
    ("prop5.5/beta3", "2*beta_3", "3*d_3 - d_1"),
    ("prop5.5/beta4", "2*beta_4", "4*d_4 - 2*d_2"),
    ("prop5.5/beta5", "2*beta_5", "5*d_5 - 2*alpha_5 - d_1"),
    ("prop5.5/beta6", "2*beta_6", "3*d_6 - d_2"),
    ("prop5.5/beta8", "2*beta_8", "2*d_8 + d_4 - d_2"),
    ("prop5.5/beta10", "2*beta_10", "2*alpha_10 - 2*alpha_5 + d_10 + 2*d_5 - d_2"),
    ("prop5.5/beta12", "2*beta_12", "d_12 + d_6 + d_4 - d_2"),
    ("prop5.6/gamma5", "2*gamma_5", "5*d_5 - 2*alpha_5 - d_1"),
    ("prop5.6/gamma6", "2*gamma_6", "4*d_6 - 2*d_3"),
    ("prop5.6/gamma9", "2*gamma_9", "3*d_9 - d_3"),
    ("prop5.6/gamma10", "2*gamma_10", "3*d_10 - 2*alpha_10 + d_5 + d_2 - d_1"),
    ("prop5.6/gamma12", "2*gamma_12", "2*d_12 + d_6 - d_3"),
    ("prop5.6/gamma18", "2*gamma_18", "d_18 + d_9 + d_6 - d_3"),
    ("prop5.7/alpha1", "alpha_1", "0*d_1"),
    ("prop5.7/beta1", "beta_1", "0*d_1"),
    ("prop5.7/beta2", "beta_2", "0*d_1"),
    ("prop5.7/gamma1", "gamma_1", "0*d_1"),
    ("prop5.7/gamma2", "gamma_2", "2*d_2 - d_1"),
    ("prop5.7/gamma3", "gamma_3", "0*d_1"),
    ("prop6.5/alpha2'", "2*alpha'_2", "2*d'_2"),
    ("prop6.5/alpha3'", "2*alpha'_3", "d'_1 + d'_3"),
    ("prop6.6/beta3'", "2*beta'_3", "3*d'_3 - d'_1"),
    ("prop6.6/beta4'", "2*beta'_4", "2*d'_4"),
    ("prop6.6/beta5'", "2*beta'_5", "2*alpha'_5 + d'_5 - d'_1"),
    ("prop6.6/beta6'", "2*beta'_6", "d'_6 + d'_2"),
    ("prop6.7/gamma4'", "2*gamma'_4", "4*d'_4 - 2*alpha'_4"),
    ("prop6.7/gamma5'", "2*gamma'_5", "3*d'_5 - 2*alpha'_5 + d'_1"),
    ("prop6.7/gamma6'", "2*gamma'_6", "2*d'_6"),
    ("prop6.7/gamma9'", "2*gamma'_9", "d'_9 + d'_3"),
    ("prop6.8/alpha1'", "alpha'_1", "2*d'_1"),
    ("prop6.8/beta1'", "beta'_1", "0*d'_1"),
    ("prop6.8/beta2'", "beta'_2", "2*d'_2"),
    ("prop6.8/gamma1'", "gamma'_1", "2*d'_1"),
    ("prop6.8/gamma2'", "gamma'_2", "d'_2"),
    ("prop6.8/gamma3'", "gamma'_3", "2*d'_3"),
    ("prop8.3/d1''", "2*d''_1", "3*d'_3 - d'_1"),
    ("prop8.3/alpha1''", "2*alpha''_1", "d''_1"),
    ("prop8.3/beta1''", "2*beta''_1", "3*d''_1"),
    ("prop8.3/gamma1''", "2*gamma''_1", "4*d''_1"),
    ("prop8.4/d2''", "2*d''_2", "3*d'_6 - d'_2"),
    ("prop8.4/alpha2''", "2*alpha''_2", "3*alpha'_6 - d'_2"),
    ("prop8.4/beta2''", "2*beta''_2", "d''_2"),
    ("prop8.4/gamma2''", "2*gamma''_2", "2*d''_2"),
    ("prop8.5/d3''", "4*d''_3", "6*d'_9 - 2*d'_3"),
    ("prop8.5/alpha3''", "4*alpha''_3", "6*alpha'_9 - d'_3 - d'_1"),
    ("prop8.5/beta3''", "4*beta''_3", "6*beta'_9 - 3*d'_3 + d'_1"),
    ("prop8.5/gamma3''", "4*gamma''_3", "2*d''_3"),
    ("prop8.6/d5''", "4*d''_5", "6*d'_15 - 2*d'_5"),
    ("prop8.6/alpha5''", "4*alpha''_5", "6*alpha'_15 - 2*alpha'_5"),
    ("prop8.6/beta5''", "4*beta''_5", "6*beta'_15 - 2*alpha'_5 - d'_5 + d'_1"),
    ("prop8.6/gamma5''", "4*gamma''_5", "6*gamma'_15 + 2*alpha'_5 - 3*d'_5 - d'_1"),
    ("sec8/alpha3", "alpha_3", "d'''_1"),
    ("sec8/beta3", "beta_3", "d'''_1"),
    ("sec8/beta3'", "beta'_3", "d''_1"),
    ("sec8/beta6", "beta_6", "d'''_2"),
    ("sec8/gamma9", "gamma_9", "d'''_3"),
)


def _measure_identity(lhs: str, rhs: str):
    def run(ctx: RunContext):
        a = exprs.parse_measure_expr(lhs)
        b = exprs.parse_measure_expr(rhs)
        diff = first_atom_difference(a, b)
        if diff is not None:
            j, x, y = diff
            return "fail", f"{lhs} != {rhs} at atom {j}: {x!r} != {y!r}"
        return "pass", f"{lhs} = {rhs}"
    return run


# two lines of the level-3 table are misprinted in the source catalog: the
# stated right sides are refuted atomwise by exact arithmetic (the gamma_4
# one already at the atom 1; gamma_8 has irrational weights, so no
# uniform-only combination can match it).  As with the affine-E constant,
# the check adjudicates: it certifies the printed form false and the
# corrected form, found by the exact expansion solver, true.
CORRECTED_IDENTITIES: Tuple[Tuple[str, str, str, str], ...] = (
    ("prop5.6/gamma4", "2*gamma_4", "4*d_4 - d_2 - d_1", "2*d_4 + d_2 - d_1"),
    ("prop5.6/gamma8", "2*gamma_8", "2*d_8 + d_2 - d_1", "4*d_8 - 2*alpha_8 + d_2 - d_1"),
)


def _corrected_identity(lhs: str, printed: str, corrected: str):
    def run(ctx: RunContext):
        a = exprs.parse_measure_expr(lhs)
        if measure_equal(a, exprs.parse_measure_expr(printed)):
            return "fail", f"printed form {lhs} = {printed} holds after all"
        if not measure_equal(a, exprs.parse_measure_expr(corrected)):
            return "fail", f"corrected form {lhs} = {corrected} fails"
        return "pass", f"printed {printed} refuted; verified {lhs} = {corrected}"
    return run


# --- xi identity catalog ----------------------------------------------------

def _xi_sum(order: int, terms) -> PowerSeries:
    total = PowerSeries.zero(order)
    for coef, text, shift in terms:
        series = _xi(text, order)
        if shift:
            series = series.shift(shift)
        total = total + series * Fraction(coef)
    return total


def _xi_cases(table):
    """table: list of (label, lhs_terms, rhs_terms); terms are
    (coefficient, xi text, monomial shift)."""
    return lambda order: ((label, _xi_sum(order, lhs), _xi_sum(order, rhs))
                          for label, lhs, rhs in table)


def _xi_identity_tables():
    """(check id, case table) for each xi identity."""
    one = Fraction(1)
    half = Fraction(1, 2)
    checks = []
    for sec, plus in (("sec5", ""), ("sec6", "+")):
        for shift, head in ((1, ""), (2, "1+,")):
            checks.append((f"xi-identity/{sec}-shift{shift}", [
                (f"n={n}", [(one, f"xi'({shift},{n - shift}{plus}:{n}{plus})", 0)],
                 [(one, f"xi({head}{n - shift}{plus}:{n}{plus})", 0)])
                for n in range(3, 17)]))
    checks.append(("xi-identity/Dtilde", [
        (f"n={n}", [(one, f"xi''({n + 1}+:{n})", 0)],
         [(half, "xi'(1:1+)", 0), (half, f"xi'({n}+:{n})", 0)])
        for n in range(1, 17)]))
    for ell in (2, 3, 5):
        checks.append((f"xi-identity/Etilde-l{ell}", [
            ("split", [(one, f"xi({3 * ell}+:{ell + 1},{2 * ell})", 0)],
             [(one, f"xi({ell}:{ell + 1})", 0), (one, f"xi(:{ell},{ell + 1})", ell)]),
            ("halves", [(one, f"xi({3 * ell}+:{ell + 1},{2 * ell})", 0)],
             [(one, f"xi({ell}:{ell + 1})", 0),
              (half, f"xi'({ell}+:{ell})", 0),
              (-half, f"xi'({ell + 1}+:{ell + 1})", 0)]),
        ]))
    checks.append(("xi-identity/E6", [
        ("decomposition", [(one, "xi(8:3,6+)", 0)],
         [(one, "xi(11:12)", 0), (half, "xi'(12+:12)", 0), (-half, "xi'(6+:6)", 0),
          (-half, "xi'(4+:4)", 0), (half, "xi'(3+:3)", 0)])]))
    checks.append(("xi-identity/E7", [
        ("decomposition", [(one, "xi(12:4,9+)", 0)],
         [(one, "xi(1+,7+:9+)", 0), (half, "xi'(1:1+)", 0), (-half, "xi'(3:3+)", 0)])]))
    checks.append(("xi-identity/E8", [
        ("decomposition", [(one, "xi(5+,9+:15+)", 0)],
         [(one, "xi(14+:15+)", 0), (one, "xi'(3,12+:15+)", 0),
          (-half, "xi'(5:5+)", 0), (-half, "xi'(3:3+)", 0)])]))
    checks.append(("xi-identity/plus-conversion", [
        ("2+ to 4", [(one, "xi(2+:3)", 0)], [(one, "xi(4:2,3)", 0)])]))
    return checks


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def build_registry() -> Dict[str, Callable]:
    registry: Dict[str, Callable] = {}
    for name, body in (("thm2.5", _thm25_body), ("theta-paths", _theta_body),
                       ("prop3.3", _prop33_body)):
        for tag in FAMILY_TAGS:
            registry[f"{name}/{tag}"] = _graph_check(tag, body)
    registry["prop3.4"] = _check_prop34
    registry["prop3.6/Atilde"] = _graph_check("Atilde", _prop36_body)
    registry["lemma4.4"] = _series_check(_lemma_cases("unprimed"),
                                         f"{len(_SAMPLE_POLYS)} polynomials")
    registry["prop4.5"] = _series_check(_one_minus_power_cases("d", ""), "l < n <= 12")
    registry["thm4.6"] = _check_thm46
    registry["prop5.3"] = _series_check(_density_table_cases("d"), "n <= 20")
    registry["prop5.4/common-weights"] = _check_common_weights
    registry["prop5.4/alpha12-weights"] = _check_alpha12_weights
    registry["prop5.4/n12-infeasible"] = _check_n12_infeasible
    registry["lemma6.2"] = _series_check(_lemma_cases("primed"),
                                         f"{len(_SAMPLE_POLYS)} polynomials")
    registry["prop6.3"] = _series_check(_one_minus_power_cases("dprime", "+"), "l < n <= 12")
    registry["prop6.4"] = _series_check(_density_table_cases("dprime"), "n <= 20")
    for check_id, lhs, rhs in MEASURE_IDENTITIES:
        registry[check_id] = _measure_identity(lhs, rhs)
    for check_id, lhs, printed, corrected in CORRECTED_IDENTITIES:
        registry[check_id] = _corrected_identity(lhs, printed, corrected)
    for check_id, table in _xi_identity_tables():
        registry[check_id] = _series_check(_xi_cases(table), f"{len(table)} case(s)")
    for name, body in (("thm7.1", _thm71_body), ("thm8.7", _thm87_body)):
        for tag in FAMILY_TAGS:
            registry[f"{name}/{tag}"] = _graph_check(tag, body)
    registry["discrepancy/Etilde-constant"] = _check_etilde_constant
    registry["level/ADE"] = _check_level_ade
    registry["level/basics"] = _check_level_basics
    registry["closed-form/sweep"] = _series_check(_SWEEP_CASES, "deg < n <= 20, both variants")
    registry["def8.1/support"] = _check_support_descriptions
    return registry


_REGISTRY: Optional[Dict[str, Callable]] = None


def registry() -> Dict[str, Callable]:
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = build_registry()
    return _REGISTRY


def all_check_ids() -> List[str]:
    return list(registry().keys())


def _run_one(check_id: str, runner, ctx: RunContext) -> CheckResult:
    start = time.perf_counter()
    try:
        status, details = runner(ctx)
    except Exception as exc:  # a crashed check is a failed check
        status, details = "fail", f"exception: {exc!r}"
    return CheckResult(check_id, status, ctx.order, time.perf_counter() - start, details)


def run_all(order: int = 64, size_matrix: Optional[Dict[str, Sequence[int]]] = None,
            only: Optional[str] = None) -> VerificationReport:
    """Run every registered check (or those matching the glob) and report;
    a glob that matches no check id is a ValueError, not an empty report."""
    checks = [(check_id, runner) for check_id, runner in registry().items()
              if not only or fnmatch.fnmatchcase(check_id, only)]
    if only and not checks:
        raise ValueError(f"no check id matches {only!r}")
    ctx = RunContext(order, size_matrix)
    report = VerificationReport(order)
    for check_id, runner in checks:
        report.results.append(_run_one(check_id, runner, ctx))
    return report


def verify_identity(check_id: str, order: int = 64) -> CheckResult:
    """Run one registered check by its identifier."""
    reg = registry()
    if check_id not in reg:
        raise UnknownCheckId(check_id)
    return _run_one(check_id, reg[check_id], RunContext(order))


def verify_graph_t(family: GraphFamily, order: int = 64) -> CheckResult:
    """The loop-count pipeline against the closed-form T table, one family."""
    ctx = RunContext(order, {family.tag: (family.param,)})
    return _run_one(f"thm2.5/{family.tag}", _graph_check(family.tag, _thm25_body), ctx)


def verify_graph_measure(family: GraphFamily, order: int = 64) -> CheckResult:
    """The closed-form measures against the pipeline, one family: T series of
    both variants, atomwise equality, probability, pushforward moments."""
    ctx = RunContext(order, {family.tag: (family.param,)})

    def body(inner_ctx, fam):
        ok, details = _thm71_body(inner_ctx, fam)
        if not ok:
            return ok, details
        return _thm87_body(inner_ctx, fam)

    return _run_one(f"measure/{family.tag}", _graph_check(family.tag, body), ctx)
