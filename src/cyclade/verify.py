"""Registry of named checks, one per claim in the verified catalog, with a
deterministic machine-readable report.

Check identifiers are stable catalog labels ("thm2.5/E7", "prop5.4/alpha6",
"xi-identity/Dtilde", ...).  All but two checks are tables of (label, got,
expected) cases, computed lazily and compared exactly by one runner: the
first unequal case fails the check with "<label>: <difference>", the first
differing coefficient of two series, the first differing atom of two
measures, else both values.  Graph checks draw their instances from a size
matrix mapping family tags to parameter lists, prefix each label with
"<tag> param <m>: ", and skip the check when the list is empty.
"""

from __future__ import annotations

import fnmatch
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .exact import PowerSeries, QPolynomial, cyclo_make, series_from_integers
from .graphs import EXCEPTIONAL_TAGS, FAMILY_TAGS, GraphFamily, build_ade, loop_counts
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
    # one graph each, its parameter fixed by the tag
    **{tag: (GraphFamily(tag).param,) for tag in EXCEPTIONAL_TAGS},
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


# --- the runner: every check is a table of (label, got, expected) cases -----

def _difference(got, expected) -> str:
    """Where two unequal values differ (series, measures, or anything else)."""
    if isinstance(got, PowerSeries):
        i, x, y = next((i, x, y) for i, (x, y) in enumerate(zip(got.coeffs, expected.coeffs))
                       if x != y)
        return f"coefficient {i}: {x} != {y}"
    if isinstance(got, CyclotomicMeasure):
        j, x, y = first_atom_difference(got, expected)
        return f"atom {j}: {x!r} != {y!r}"
    return f"{got!r} != {expected!r}"


def _first_failure(cases) -> Optional[str]:
    """"label: difference" for the first (label, got, expected) case with
    got != expected, or None; the cases after it are never computed."""
    for label, got, expected in cases:
        if got != expected:
            return f"{label}: {_difference(got, expected)}"
    return None


def _verdict(cases, summary: str) -> Tuple[str, str]:
    failure = _first_failure(cases)
    return ("pass", summary) if failure is None else ("fail", failure)


def _equal_check(cases, summary: str) -> Callable:
    """The check over the case table cases(ctx), passing with summary."""
    return lambda ctx: _verdict(cases(ctx), summary)


def _graph_check(tag: str, cases) -> Callable:
    """cases(ctx, fam) for each family of the tag in the size matrix, each
    label prefixed with "<tag> param <m>: "; no parameters skips the check."""
    def run(ctx: RunContext):
        params = ctx.params(tag)
        if not params:
            return "skipped", "no parameters in size matrix"
        return _verdict(((f"{tag} param {m}: {label}", got, expected) for m in params
                         for label, got, expected in cases(ctx, GraphFamily(tag, m))),
                        f"{len(params)} instance(s)")
    return run


# --- graph cases ------------------------------------------------------------

def _thm25_cases(ctx: RunContext, fam: GraphFamily):
    expected = xi_expand(theorem_2_5_lookup(fam), ctx.order)
    for route, theta in zip(("formula", "substitution"), ctx.thetas(fam)):
        yield f"T from the {route} theta", t_from_theta(theta), expected


def _theta_cases(ctx: RunContext, fam: GraphFamily):
    theta_f, theta_s = ctx.thetas(fam)
    yield "formula theta vs substitution theta", theta_f, theta_s
    # den is the least common denominator of the coefficients
    yield "theta denominator", theta_s.den, 1


def _prop33_cases(ctx: RunContext, fam: GraphFamily):
    # the four-fold symmetry holds by construction: measures store one
    # weight per orbit, and odd moments vanish, as each orbit holds u and -u
    e = ctx.candidate(fam, "thm71")
    nums, den = _even_moments(e, e.order // 2 - 1)
    for j, v in enumerate(nums):
        yield f"denominator of twice even moment {2 * j}", Fraction(2 * v, den).denominator, 1


_PROP34_FAMILIES = (GraphFamily("A", 4), GraphFamily("Dtilde", 6), GraphFamily("E7"))


def _prop34_cases(ctx: RunContext):
    for fam in _PROP34_FAMILIES:
        t = ctx.graph_t(fam).coeffs
        nums, den = _even_moments(ctx.candidate(fam, "thm71"), ctx.order)
        for k, v in enumerate(nums):
            yield (f"{fam.label} moment {2 * k}", Fraction(2 * v, den),
                   (t[k] - (t[k - 1] if k else 0)) + (1 if k == 0 else 0))


def _prop36_cases(ctx: RunContext, fam: GraphFamily):
    uniform = basic_measure("d", fam.param // 2)
    yield "candidate vs uniform measure", ctx.candidate(fam, "thm71"), uniform
    yield "uniform measure T", t_series_of_measure(uniform, ctx.order), ctx.graph_t(fam)


def _thm71_cases(ctx: RunContext, fam: GraphFamily):
    e = ctx.candidate(fam, "thm71")
    yield "T series", ctx.candidate_t(fam, "thm71"), ctx.graph_t(fam)
    yield "probability measure", e.is_probability(), True
    counts = ctx.counts(fam)
    for k, mu in enumerate(pushforward_real(e).moments(ctx.order // 2)):
        yield f"pushforward moment {k}", mu, counts[k]


def _thm87_cases(ctx: RunContext, fam: GraphFamily):
    yield "ternary T series", ctx.candidate_t(fam, "thm87"), ctx.graph_t(fam)
    yield "ternary vs binary form", ctx.candidate(fam, "thm87"), ctx.candidate(fam, "thm71")


# --- series tables ----------------------------------------------------------

def _xi(text: str, order: int) -> PowerSeries:
    return xi_expand(exprs.parse_xi_expr(text), order)


_SAMPLE_POLYS = tuple(QPolynomial(c) for c in (
    [1], [1, -1], [1, Fraction(1, 2)], [1, -1, 1], [1, 0, 0, -1], [1, -2, 1]))


def _closed_form_cases(instances):
    """The closed-form T lemma against the T series built from the atoms;
    instances are (label, P, n, variant), the unprimed variant on d and the
    primed one on d'."""
    def cases(ctx: RunContext):
        for label, poly, n, variant in instances:
            e = density_measure(poly, "d" if variant == "unprimed" else "dprime", n)
            yield (label, t_closed_form(poly, n, variant, ctx.order),
                   t_series_of_measure(e, ctx.order))
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
    density P, base kind, n, xi text), P = 1 for the base measure itself."""
    def cases(ctx: RunContext):
        for label, poly, kind, n, text in instances:
            yield (label, t_series_of_measure(density_measure(poly, kind, n), ctx.order),
                   _xi(text, ctx.order))
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
        (f"{name} n={n}", DENSITY_POLYS.get(name, QPolynomial([1])), kind, n,
         (on_d if kind == "d" else on_dprime).format(n=n, m1=n - 1, m2=n - 2, m3=n - 3))
        for name, start, on_d, on_dprime in _DENSITY_XI_ROWS for n in range(start, 21)])


# --- expansion, weight and level cases --------------------------------------

def _check_thm46(ctx: RunContext):
    # beta_7 and gamma_11 join the graph measures, so the list is never empty
    measures = [ctx.candidate(fam, "thm71") for fam in ctx.families()]
    measures += [atom_measure("beta", "d", 7), atom_measure("gamma", "d", 11)]

    def cases():
        for e in measures:
            n = e.minimal_support_order() // 2
            res = cyclotomic_expansion(e, n)
            yield f"exact solution n={n}", res.residual_ok, True
            yield (f"round trip n={n}", t_series_of_measure(reconstruct_expansion(res), ctx.order),
                   t_series_of_measure(e, ctx.order))
    return _verdict(cases(), f"{len(measures)} measure(s)")


# n: (the uniform-only form of alpha_n, its weights at positions 0, 1, ...)
_COMMON_WEIGHTS = {
    2: ("2*d_2 - d_1", [Fraction(0), Fraction(1, 2)]),
    3: ("(3*d_3 - d_1)/2", [Fraction(0), Fraction(1, 4)]),
    4: ("(2*d_4 + d_2 - d_1)/2", [Fraction(0), Fraction(1, 8), Fraction(1, 4)]),
    6: ("(d_6 + d_3 + d_2 - d_1)/2",
        [Fraction(0), Fraction(1, 24), Fraction(1, 8), Fraction(1, 6)]),
}


def _common_weight_cases(ctx: RunContext):
    for n, (rhs, expected) in _COMMON_WEIGHTS.items():
        alpha_n = atom_measure("alpha", "d", n)
        other = exprs.parse_measure_expr(rhs)
        for j, value in enumerate(expected):
            yield f"n={n} position {j}", alpha_n.weight(j), value
            yield f"n={n} rhs position {j}", other.weight(j), value


def _alpha12_weight_cases(ctx: RunContext):
    # the printed weights (a + b sqrt(3))/48 at the positions 0, 1, ..., 6
    sqrt3 = cyclo_make(24, {2: 1, 22: 1})
    alpha12 = atom_measure("alpha", "d", 12)
    for j, (a, b) in enumerate(((0, 0), (2, -1), (1, 0), (2, 0), (3, 0), (2, 1), (4, 0))):
        yield f"position {j}", alpha12.weight(j), (a + b * sqrt3) * Fraction(1, 48)


def _n12_infeasible_cases(ctx: RunContext):
    alpha12 = atom_measure("alpha", "d", 12)
    yield "uniform-only expansion", expand_over_level(alpha12, 0), None
    yield "expansion with degree-1 densities", expand_over_level(alpha12, 1) is None, False


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


def _level_basics_cases(ctx: RunContext):
    for n in range(1, 21):
        yield f"level of d_{n}", level(basic_measure("d", n)), 0
    # alpha_n is uniform-only exactly for the n of the common-weights table
    for n in range(2, 21):
        alpha_n = atom_measure("alpha", "d", n)
        yield f"level of alpha_{n}", level(alpha_n), 0 if n in _COMMON_WEIGHTS else 1


def _support_cases(ctx: RunContext):
    def direct(order: int, weight: Fraction, on) -> CyclotomicMeasure:
        return CyclotomicMeasure(order, [weight if on(j) else 0 for j in range(order)])

    for n in range(1, 5):
        yield (f"odd-roots description n={n}", direct(4 * n, Fraction(1, 2 * n), lambda j: j % 2),
               lincomb([(Fraction(2), basic_measure("d", 2 * n)),
                        (Fraction(-1), basic_measure("d", n))]))
        yield (f"6k+-1 description n={n}",
               direct(12 * n, Fraction(1, 4 * n), lambda j: j % 6 in (1, 5)),
               basic_measure("ddoubleprime", n))
        yield (f"3k+-1 description n={n}", direct(6 * n, Fraction(1, 4 * n), lambda j: j % 3),
               basic_measure("dtripleprime", n))


def _check_etilde_constant(ctx: RunContext):
    winners = []
    for tag, ell in ETILDE_ELL.items():
        t = ctx.graph_t(GraphFamily(tag))
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


def _measure_identity(lhs: str, rhs: str) -> Callable:
    return _equal_check(lambda ctx: [(f"{lhs} = {rhs}", exprs.parse_measure_expr(lhs),
                                      exprs.parse_measure_expr(rhs))], f"{lhs} = {rhs}")


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


def _corrected_identity(lhs: str, printed: str, corrected: str) -> Callable:
    def cases(ctx: RunContext):
        a = exprs.parse_measure_expr(lhs)
        yield f"printed form {lhs} = {printed}", a == exprs.parse_measure_expr(printed), False
        yield f"corrected form {lhs} = {corrected}", a, exprs.parse_measure_expr(corrected)
    return _equal_check(cases, f"printed {printed} refuted; verified {lhs} = {corrected}")


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
    return lambda ctx: ((label, _xi_sum(ctx.order, lhs), _xi_sum(ctx.order, rhs))
                        for label, lhs, rhs in table)


def _xi_identity_tables():
    """(check id, case table) for each xi identity."""
    one, half = Fraction(1), Fraction(1, 2)
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


# --- registry ---------------------------------------------------------------

def build_registry() -> Dict[str, Callable]:
    registry: Dict[str, Callable] = {}
    for name, cases in (("thm2.5", _thm25_cases), ("theta-paths", _theta_cases),
                        ("prop3.3", _prop33_cases)):
        for tag in FAMILY_TAGS:
            registry[f"{name}/{tag}"] = _graph_check(tag, cases)
    registry["prop3.4"] = _equal_check(_prop34_cases,
                                       f"{len(_PROP34_FAMILIES)} representative(s)")
    registry["prop3.6/Atilde"] = _graph_check("Atilde", _prop36_cases)
    registry["lemma4.4"] = _equal_check(_lemma_cases("unprimed"),
                                        f"{len(_SAMPLE_POLYS)} polynomials")
    registry["prop4.5"] = _equal_check(_one_minus_power_cases("d", ""), "l < n <= 12")
    registry["thm4.6"] = _check_thm46
    registry["prop5.3"] = _equal_check(_density_table_cases("d"), "n <= 20")
    registry["prop5.4/common-weights"] = _equal_check(_common_weight_cases, "n in 2, 3, 4, 6")
    registry["prop5.4/alpha12-weights"] = _equal_check(_alpha12_weight_cases, "seven weights")
    registry["prop5.4/n12-infeasible"] = _equal_check(_n12_infeasible_cases,
                                                      "uniform-only system is inconsistent")
    registry["lemma6.2"] = _equal_check(_lemma_cases("primed"),
                                        f"{len(_SAMPLE_POLYS)} polynomials")
    registry["prop6.3"] = _equal_check(_one_minus_power_cases("dprime", "+"), "l < n <= 12")
    registry["prop6.4"] = _equal_check(_density_table_cases("dprime"), "n <= 20")
    for check_id, lhs, rhs in MEASURE_IDENTITIES:
        registry[check_id] = _measure_identity(lhs, rhs)
    for check_id, lhs, printed, corrected in CORRECTED_IDENTITIES:
        registry[check_id] = _corrected_identity(lhs, printed, corrected)
    for check_id, table in _xi_identity_tables():
        registry[check_id] = _equal_check(_xi_cases(table), f"{len(table)} case(s)")
    for name, cases in (("thm7.1", _thm71_cases), ("thm8.7", _thm87_cases)):
        for tag in FAMILY_TAGS:
            registry[f"{name}/{tag}"] = _graph_check(tag, cases)
    registry["discrepancy/Etilde-constant"] = _check_etilde_constant
    registry["level/ADE"] = _check_level_ade
    registry["level/basics"] = _equal_check(_level_basics_cases, "n <= 20")
    registry["closed-form/sweep"] = _equal_check(_SWEEP_CASES, "deg < n <= 20, both variants")
    registry["def8.1/support"] = _equal_check(_support_cases, "n <= 4")
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
    return _run_one(f"thm2.5/{family.tag}", _graph_check(family.tag, _thm25_cases), ctx)


def verify_graph_measure(family: GraphFamily, order: int = 64) -> CheckResult:
    """The closed-form measures against the pipeline, one family: T series of
    both variants, atomwise equality, probability, pushforward moments."""
    ctx = RunContext(order, {family.tag: (family.param,)})
    cases = lambda ctx, fam: chain(_thm71_cases(ctx, fam), _thm87_cases(ctx, fam))
    return _run_one(f"measure/{family.tag}", _graph_check(family.tag, cases), ctx)
