"""Registry of named checks, one per claim in the verified catalog, with a
deterministic machine-readable report.

Check identifiers are stable catalog labels ("thm2.5/E7", "prop5.4/alpha6",
"xi-identity/Dtilde", ...).  All but two checks are tables of (label, got,
expected) cases, computed lazily and compared exactly by one runner: the
first unequal case fails the check with "<label>: <difference>", the first
differing coefficient of two series (of two fractions, once expanded to the
degree of their cross products), the first differing atom of two measures,
the message of a ValueError, else both values.  A graph's T is the fraction
of the measure certified from its own theta (RunContext.graph_fraction),
computed once per family.  A run parses only the paper's printed texts: the
xi identities, EXCEPTIONAL_MEASURES and the measure identities; the series
tables build each xi form from its numbers.
Graph checks draw their instances from a size matrix mapping family tags to
parameter lists, prefix each label with "<tag> param <m>: ", and skip the
check when the list is empty.  The measure table that the graph checks
read, candidate_measure, is here too.
"""

from __future__ import annotations

import fnmatch
import time
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ._value import Value
from .exact import PowerSeries, _check_order, _normalized, cyclo_make, series_from_integers
from .graphs import (EXCEPTIONAL_TAGS, FAMILY_TAGS, GraphFamily, RootedBipartiteGraph, build_ade,
                     loop_counts)
from .transforms import (
    SeriesFraction,
    closed_form_fraction,
    fraction_sum,
    t_from_theta,
    theorem_2_5_lookup,
    theta_from_poincare_formula,
    theta_from_poincare_subst,
    xi,
)
from .measures import (
    DENSITY_POLYS,
    CyclotomicMeasure,
    atom_measure,
    basic_measure,
    cyclotomic_expansion,
    density_measure,
    level,
    one_minus_power,
    reconstruct_expansion,
    t_fraction_of_measure,
)
from . import exprs


DEFAULT_SIZE_MATRIX: Dict[str, Tuple[int, ...]] = {
    "A": tuple(range(2, 13)),
    "D": tuple(range(3, 14)),
    "Atilde": tuple(range(2, 17, 2)),
    "Dtilde": tuple(range(4, 13)),
    # one graph each, its parameter fixed by the tag
    **{tag: (GraphFamily(tag).param,) for tag in EXCEPTIONAL_TAGS},
}


def _etilde_ternary(ell: int, den: int) -> str:
    """The affine-E ternary form alpha_(l+1) + (d_l - d_(l+1))/den."""
    return f"alpha_{ell + 1} + (d_{ell} - d_{ell + 1})/{den}"


# l of each affine-E ternary form
_ETILDE_ELL = {"E6tilde": 2, "E7tilde": 3, "E8tilde": 5}

# each exceptional family's circular measure as the paper prints it, in the
# binary form of Theorem 7.1 and the ternary form of Theorem 8.7; the
# affine-E ternary forms divide by 2, as the printed 3 fails the series
# check (discrepancy/Etilde-constant)
EXCEPTIONAL_MEASURES: Dict[str, Tuple[str, str]] = {
    "E6": ("alpha_12 + (d_12 - d_6 - d_4 + d_3)/2", "d''_2/6 + alpha''_2/3 + d'''_1/2"),
    "E7": ("beta'_9 + (d'_1 - d'_3)/2", "(2*beta''_3 + d'_1)/3"),
    "E8": ("alpha'_15 + gamma'_15 - (d'_5 + d'_3)/2", "(2*alpha''_5 + 2*gamma''_5 - d''_1)/3"),
    **{tag: (f"(d_{n} + d_3 + d_2 - d_1)/2", _etilde_ternary(_ETILDE_ELL[tag], 2))
       for tag, n in (("E6tilde", 3), ("E7tilde", 4), ("E8tilde", 5))},
}


def candidate_measure(family: GraphFamily, variant: str) -> CyclotomicMeasure:
    """The closed-form circular measure of the family, in the level-0/binary
    table (thm71) or the ternary table (thm87); the two agree on the four
    parametrized series."""
    if variant not in ("thm71", "thm87"):
        raise ValueError(f"unknown variant {variant!r}")
    tag, m = family.tag, family.param
    if tag == "A":
        return atom_measure("alpha", "d", m + 1)
    if tag == "Atilde":
        return atom_measure("d", "d", m // 2)
    if tag == "D":
        return atom_measure("alpha", "dprime", m - 1)
    if tag == "Dtilde":
        return Fraction(1, 2) * (basic_measure("d", m - 2) + basic_measure("dprime", 1))
    return exprs.parse_measure_expr(EXCEPTIONAL_MEASURES[tag][variant == "thm87"])


class CheckResult(Value):
    __slots__ = ("check_id", "status", "order", "elapsed", "details")

    def __init__(self, check_id: str, status: str, order: int, elapsed: float,
                 details: str = ""):
        self.check_id = check_id
        self.status = status  # pass | fail | skipped
        self.order = order
        self.elapsed = elapsed
        self.details = details


class VerificationReport(Value):
    __slots__ = ("order", "results")

    def __init__(self, order: int, results: Optional[List[CheckResult]] = None):
        self.order = order
        self.results = [] if results is None else results

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
        import json  # only a serialised report needs it

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
    """One run's order and graph families, and a memo of what its checks share:
    per family the graph, loop counts, each theta route, graph measure, its
    T fraction and candidates, each read once at the family's certifying
    order (graph_order); the fraction of each printed xi text of the xi
    identities, keyed by the text.  Those texts, EXCEPTIONAL_MEASURES and
    the measure identities are all a run parses: the series tables build
    their xi forms from numbers.  A check is timed with the shared values
    it computes."""

    def __init__(self, order: int, sizes: Optional[Dict[str, Sequence[int]]] = None):
        _check_order(order)
        self.order = order
        # each tag's families, in FAMILY_TAGS order; building them refuses an
        # unknown tag or a parameter out of range before any check runs
        built = {tag: tuple(GraphFamily(tag, m) for m in params)
                 for tag, params in (DEFAULT_SIZE_MATRIX if sizes is None else sizes).items()}
        self.families = {tag: built[tag] for tag in FAMILY_TAGS if tag in built}
        self._cache: Dict[tuple, object] = {}

    def _memo(self, key, fn):
        value = self._cache.get(key)  # no memoized value is None
        if value is None:
            value = self._cache[key] = fn()
        return value

    def graph(self, fam: GraphFamily) -> RootedBipartiteGraph:
        return self._memo(("graph", fam), lambda: build_ade(fam))

    def graph_order(self, fam: GraphFamily) -> int:
        """K = max(order, 2n + max(2n, 30)), n the vertex count: the one order
        of the family's pipeline, at which graph_measure certifies it."""
        n2 = 2 * self.graph(fam).vertex_count
        return max(self.order, n2 + max(n2, 30))

    def counts(self, fam: GraphFamily) -> PowerSeries:
        return self._memo(("counts", fam), lambda: series_from_integers(
            loop_counts(self.graph(fam), self.graph_order(fam))))

    def theta_formula(self, fam: GraphFamily) -> PowerSeries:
        return self._memo(("theta-formula", fam), lambda: theta_from_poincare_formula(
            self.counts(fam), self.graph_order(fam)))

    def theta_subst(self, fam: GraphFamily) -> PowerSeries:
        return self._memo(("theta-subst", fam), lambda: theta_from_poincare_subst(
            self.counts(fam), self.graph_order(fam)))

    def graph_measure(self, fam: GraphFamily):
        """The graph's circular measure, certified from the pipeline's own
        theta, or the ValueError that says why no period fits.

        m_r, coefficient r of 1 + T(q)(1 - q) = 1 + theta(q) - q, is twice the
        moment 2r, and m_r = (C_2r(A))_vv, C_r(2cos t) = 2cos(rt), is a sum of
        at most 2n geometric sequences, n the vertex count.  So is
        m_(k+P) - m_k, and such a sequence that vanishes for k < 2n vanishes
        for all k: the least P that passes this test with P + 2n <= K is the
        least period of the doubled moments, and the measure lives on the
        2P-th roots.  Theta is read at K = graph_order(fam), as P <= 2n on
        the four series and P <= 30, the Coxeter number of E8, on the
        exceptional graphs."""
        def build():
            n2, k = 2 * self.graph(fam).vertex_count, self.graph_order(fam)
            nums = self.theta_subst(fam).nums
            m = [nums[0] + 1, nums[1] - 1, *nums[2:]]
            p = next((p for p in range(1, k - n2 + 1) if m[p:p + n2] == m[:n2]), None)
            if p is None:
                return ValueError(f"no period P of the doubled moments with P + {n2} <= {k}")
            return _normalized(CyclotomicMeasure, 2 * p, m[:p], 2)
        return self._memo(("graph-measure", fam), build)

    def graph_fraction(self, fam: GraphFamily):
        """The T of graph_measure(fam) as a fraction, or the ValueError that
        says why no period fits, which a case then reports."""
        def build():
            e = self.graph_measure(fam)
            return e if isinstance(e, ValueError) else t_fraction_of_measure(e)
        return self._memo(("graph-fraction", fam), build)

    def candidate(self, fam: GraphFamily, variant: str) -> CyclotomicMeasure:
        return self._memo(("measure", fam, variant),
                          lambda: candidate_measure(fam, variant))

    def xi_fraction(self, text: str) -> SeriesFraction:
        return self._memo(("xi", text), lambda: exprs.parse_xi_expr(text).fraction())


# --- the runner: every check is a table of (label, got, expected) cases -----

def _difference(got, expected) -> str:
    """Where two unequal values differ (series, measures, or anything else);
    a value that could not be computed is the ValueError that says why."""
    for value in (got, expected):
        if isinstance(value, ValueError):
            return str(value)
    if isinstance(got, SeriesFraction):
        # both expanded to the degree of the cross products, which they decide
        k = len(got.cross(expected)[0]) - 1
        got, expected = got.expand(k), expected.expand(k)
    if isinstance(got, PowerSeries):
        i, x, y = next((i, x, y) for i, (x, y) in enumerate(zip(got.coeffs, expected.coeffs))
                       if x != y)
        return f"coefficient {i}: {x} != {y}"
    if isinstance(got, CyclotomicMeasure):
        # each representative r is the least position of its orbit, so the
        # first differing representative, both measures lifted to one
        # order, is the first differing position
        pairs = zip(*[m.reps for m in got._align(expected)])
        j, x, y = next((r, x, y) for r, (x, y) in enumerate(pairs) if x != y)
        return f"atom {j}: {x!r} != {y!r}"
    return f"{got!r} != {expected!r}"


def _verdict(cases, summary: str) -> Tuple[str, str]:
    """("fail", "label: difference") at the first (label, got, expected)
    case with got != expected, computing no later case; else ("pass", summary)."""
    for label, got, expected in cases:
        if got != expected:
            return "fail", f"{label}: {_difference(got, expected)}"
    return "pass", summary


def _equal_check(cases, summary: str) -> Callable:
    """The check over the case table cases(ctx), passing with summary."""
    return lambda ctx: _verdict(cases(ctx), summary)


def _graph_check(tag: str, cases) -> Callable:
    """cases(ctx, fam) for each family of the tag in the size matrix, each
    label prefixed with "<tag> param <m>: "; no parameters skips the check."""
    def run(ctx: RunContext):
        fams = ctx.families.get(tag, ())
        if not fams:
            return "skipped", "no parameters in size matrix"
        return _verdict(((f"{tag} param {fam.param}: {label}", got, expected) for fam in fams
                         for label, got, expected in cases(ctx, fam)),
                        f"{len(fams)} instance(s)")
    return run


# --- graph cases ------------------------------------------------------------

def _thm25_cases(ctx: RunContext, fam: GraphFamily):
    expected = theorem_2_5_lookup(fam).fraction()
    yield ("T from the formula theta", t_from_theta(ctx.theta_formula(fam)),
           expected.expand(ctx.graph_order(fam)))
    yield "T from the substitution theta", ctx.graph_fraction(fam), expected


def _theta_cases(ctx: RunContext, fam: GraphFamily):
    yield "formula theta vs substitution theta", ctx.theta_formula(fam), ctx.theta_subst(fam)


def _prop33_cases(ctx: RunContext, fam: GraphFamily):
    # the four-fold symmetry holds by construction: a measure is stored as
    # its even moments over one period, and odd moments vanish, as each
    # orbit holds u and -u
    e = ctx.candidate(fam, "thm71")
    for j, v in enumerate(e.nums):
        yield f"denominator of twice even moment {2 * j}", Fraction(2 * v, e.den).denominator, 1


_PROP34_FAMILIES = (GraphFamily("A", 4), GraphFamily("Dtilde", 6), GraphFamily("E7"))


def _prop34_cases(ctx: RunContext):
    # a measure is stored as its even moments over one period, so equal
    # measures have equal moments at every order
    for fam in _PROP34_FAMILIES:
        yield (f"{fam.label} measure read off the graph's T", ctx.graph_measure(fam),
               ctx.candidate(fam, "thm71"))


def _prop36_cases(ctx: RunContext, fam: GraphFamily):
    uniform = basic_measure("d", fam.param // 2)
    yield "candidate vs uniform measure", ctx.candidate(fam, "thm71"), uniform
    yield "uniform measure T", t_fraction_of_measure(uniform), ctx.graph_fraction(fam)


def _thm71_cases(ctx: RunContext, fam: GraphFamily):
    e = ctx.candidate(fam, "thm71")
    yield "T series", t_fraction_of_measure(e), ctx.graph_fraction(fam)
    yield "probability measure", e.is_probability(), True


def _thm87_cases(ctx: RunContext, fam: GraphFamily):
    e = ctx.candidate(fam, "thm87")
    yield "ternary T series", t_fraction_of_measure(e), ctx.graph_fraction(fam)
    yield "ternary vs binary form", e, ctx.candidate(fam, "thm71")


# --- series tables ----------------------------------------------------------

_SAMPLE_POLYS = ((1,), (1, -1), (1, Fraction(1, 2)), (1, -1, 1), (1, 0, 0, -1), (1, -2, 1))


def _closed_form_cases(instances):
    """The closed-form T lemma against the T of the measure built from the atoms;
    instances are (label, P, n, variant), the unprimed variant on d and the
    primed one on d'."""
    def cases(ctx: RunContext):
        for label, poly, n, variant in instances:
            e = density_measure(poly, "d" if variant == "unprimed" else "dprime", n)
            yield label, closed_form_fraction(poly, n, variant), t_fraction_of_measure(e)
    return cases


def _lemma_cases(variant: str):
    return _closed_form_cases([(f"P={list(map(Fraction, poly))} n={n}", poly, n, variant)
                               for poly in _SAMPLE_POLYS for n in {len(poly), 7, 10}
                               if n >= len(poly)])


_SWEEP_CASES = _closed_form_cases([(f"{name} {variant} n={n}", poly, n, variant)
                                   for name, poly in DENSITY_POLYS.items()
                                   for variant in ("unprimed", "primed")
                                   for n in range(len(poly), 21)])


def _measure_xi_cases(instances):
    """The T of a measure against its xi form; instances are (label,
    density P, base kind, n, xi form), P = 1 for the base measure itself."""
    for label, poly, kind, n, form in instances:
        yield label, t_fraction_of_measure(density_measure(poly, kind, n)), form.fraction()


def _one_minus_power_cases(kind: str):
    # the printed xi'(l,n-l:n) on d and xi'(l,n-l+:n+) on d'
    plus = kind == "dprime"
    return lambda ctx: _measure_xi_cases(
        (f"l={l} n={n}", one_minus_power(l), kind, n, xi([l, (n - l, plus)], [(n, plus), 1]))
        for n in range(2, 13) for l in range(1, n))


# (atom, least n, its xi form at n, plus on d'): the paper prints xi'(n+:n),
# xi(n-1:n), xi(1+,n-2:n) and xi'(3,n-3:n) on d, and xi'(n:n+), xi(n-1+:n+),
# xi(1+,n-2+:n+) and xi'(3,n-3+:n+) on d'
_DENSITY_XI_ROWS = (
    ("d", 1, lambda n, plus: xi([(n, not plus)], [(n, plus), 1])),
    ("alpha", 2, lambda n, plus: xi([(n - 1, plus)], [(n, plus)])),
    ("beta", 3, lambda n, plus: xi([(1, True), (n - 2, plus)], [(n, plus)])),
    ("gamma", 4, lambda n, plus: xi([3, (n - 3, plus)], [(n, plus), 1])),
)


def _density_table_cases(kind: str):
    plus = kind == "dprime"
    return lambda ctx: _measure_xi_cases(
        (f"{name} n={n}", DENSITY_POLYS.get(name, (1,)), kind, n, form(n, plus))
        for name, start, form in _DENSITY_XI_ROWS for n in range(start, 21))


# --- expansion, weight and level cases --------------------------------------

def _check_thm46(ctx: RunContext):
    # beta_7 and gamma_11 join the graph measures, so the list is never empty
    measures = [ctx.candidate(fam, "thm71") for fams in ctx.families.values() for fam in fams]
    measures += [atom_measure("beta", "d", 7), atom_measure("gamma", "d", 11)]

    def cases():
        for e in measures:
            n = e.minimal_support_order() // 2
            yield f"round trip n={n}", reconstruct_expansion(cyclotomic_expansion(e, n)), e
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
    value = level(atom_measure("alpha", "d", 12))
    yield "uniform-only expansion", None if value > 0 else f"level {value}", None
    yield "expansion with degree-1 densities", value > 1, False


def _check_level_ade(ctx: RunContext):
    fams = [fam for fams in ctx.families.values() for fam in fams]
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
               2 * basic_measure("d", 2 * n) - basic_measure("d", n))
        yield (f"6k+-1 description n={n}",
               direct(12 * n, Fraction(1, 4 * n), lambda j: j % 6 in (1, 5)),
               basic_measure("ddoubleprime", n))
        yield (f"3k+-1 description n={n}", direct(6 * n, Fraction(1, 4 * n), lambda j: j % 3),
               basic_measure("dtripleprime", n))


def _check_etilde_constant(ctx: RunContext):
    winners = []
    for tag, ell in _ETILDE_ELL.items():
        graph = ctx.graph_measure(GraphFamily(tag))
        matches = [Fraction(1, den) for den in (2, 3)
                   if exprs.parse_measure_expr(_etilde_ternary(ell, den)) == graph]
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

def _xi_cases(table):
    """table: list of (label, lhs_terms, rhs_terms); terms are
    (coefficient, xi text, monomial shift), and each side is one fraction."""
    def side(ctx: RunContext, terms):
        return fraction_sum([(c, ctx.xi_fraction(text), shift) for c, text, shift in terms])
    return lambda ctx: ((label, side(ctx, lhs), side(ctx, rhs)) for label, lhs, rhs in table)


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
    registry["prop4.5"] = _equal_check(_one_minus_power_cases("d"), "l < n <= 12")
    registry["thm4.6"] = _check_thm46
    registry["prop5.3"] = _equal_check(_density_table_cases("d"), "n <= 20")
    registry["prop5.4/common-weights"] = _equal_check(_common_weight_cases, "n in 2, 3, 4, 6")
    registry["prop5.4/alpha12-weights"] = _equal_check(_alpha12_weight_cases, "seven weights")
    registry["prop5.4/n12-infeasible"] = _equal_check(_n12_infeasible_cases,
                                                      "uniform-only system is inconsistent")
    registry["lemma6.2"] = _equal_check(_lemma_cases("primed"),
                                        f"{len(_SAMPLE_POLYS)} polynomials")
    registry["prop6.3"] = _equal_check(_one_minus_power_cases("dprime"), "l < n <= 12")
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
    """Run every registered check (or those matching the glob) and report.
    A glob that matches no check id, a negative order and a size matrix with
    an unknown tag or a parameter out of range (each family of it is built)
    are ValueErrors raised before any check runs, not an empty report."""
    checks = [(check_id, runner) for check_id, runner in registry().items()
              if only is None or fnmatch.fnmatchcase(check_id, only)]
    if only is not None and not checks:
        raise ValueError(f"no check id matches {only!r}")
    ctx = RunContext(order, size_matrix)
    report = VerificationReport(order)
    for check_id, runner in checks:
        report.results.append(_run_one(check_id, runner, ctx))
    return report

