"""One unit of a cyclade benchmark workload, run in a fresh child process.

    python3 perfbench/workloads.py --workload graph_sweep --seed 1 --mode plain

run.py starts this with ``PYTHONPATH=src`` from the root of a checkout.  The
child imports cyclade (import time is the separate ``setup_s`` metric), builds
the seeded job list, runs it once as a closed loop with one caller, checks
every output outside the timed region, and prints one JSON line.  Job times
are scaled to a reference machine speed by calibration samples taken between
jobs (see calibrate.py).

Modes: ``plain`` times whole jobs only; ``spans`` also times each call into a
cyclade layer and then runs the fixed exact-arithmetic probes; ``counts``
counts calls to named functions, with no calibration.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from fractions import Fraction
from math import comb
from pathlib import Path

import calibrate
from cyclade import exact, measures, verify
from cyclade.exact import PowerSeries, cyclo_as_rational, cyclo_embed, cyclo_make
from cyclade.exprs import parse_measure_expr
from cyclade.graphs import FAMILY_TAGS, GraphFamily, build_ade, loop_counts
from cyclade.measures import (
    cyclotomic_expansion,
    expand_over_level,
    level,
    moment,
    pushforward_real,
    reconstruct_expansion,
    t_series_of_measure,
)
from cyclade.transforms import (
    t_from_theta,
    theorem_2_5_lookup,
    theta_from_poincare_formula,
    theta_from_poincare_subst,
    xi_expand,
)

REFERENCE = Path(__file__).with_name("reference.json")

# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------


class Recorder:
    """What a unit measures besides raw job times: calibration samples
    between jobs, per-call spans in ``spans`` mode (one dict of seconds per
    job), and call counts in ``counts`` mode."""

    def __init__(self, mode: str):
        self.spans_on = mode == "spans"
        self.counter = CallCounter() if mode == "counts" else None
        self.jobs: list = []
        self.samples: list = []

    def calibrate(self):
        # the kernel's own Fraction calls must not be counted
        if not self.counter:
            self.samples.append(calibrate.sample())

    def factors(self, n: int) -> list:
        """Scale factors of n jobs; one factor for all of them when the
        samples did not fall between the jobs."""
        if self.counter:
            return [1.0] * n
        if len(self.samples) == n + 1:
            return calibrate.factors(self.samples)
        return calibrate.factors([self.samples[0], self.samples[-1]]) * n

    def counting(self):
        return self.counter or nullcontext()

    def start_job(self):
        self.jobs.append({})

    def __call__(self, name, fn, *args):
        if not self.spans_on:
            return fn(*args)
        t0 = time.perf_counter()
        out = fn(*args)
        record = self.jobs[-1]
        record[name] = record.get(name, 0.0) + time.perf_counter() - t0
        return out


def job_hash(jobs) -> str:
    return hashlib.sha256(json.dumps(jobs, sort_keys=True).encode()).hexdigest()


def _fr(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# verify64: one registry run at order 64 over the default size matrix
# ---------------------------------------------------------------------------

VERIFY_CONFIG = {
    "full": {"order": 64, "size_matrix": None, "only": None},
    # a few seconds: the closed-form table for two small graphs
    "tiny": {"order": 8, "size_matrix": {"A": (3,), "E6": (6,)}, "only": "thm2.5/*"},
}


def _timed_check(runner, rec, raw: list):
    """A registry entry that records its own time and then takes a
    calibration sample, so run_all's checks are scaled one by one."""
    def run(ctx):
        t = time.perf_counter()
        try:
            return runner(ctx)
        finally:
            raw.append(time.perf_counter() - t)
            rec.calibrate()
    return run


def run_verify(scale, rec, reference):
    cfg = VERIFY_CONFIG[scale]
    registry = verify.registry()
    original = dict(registry)
    raw: list = []
    if not rec.counter:
        registry.update({cid: _timed_check(r, rec, raw) for cid, r in original.items()})
    rec.calibrate()
    try:
        with rec.counting():
            report = verify.run_all(**cfg)
    finally:
        registry.update(original)
    rss = peak_rss_mb()
    if len(raw) != len(report.results):  # the entries were not called
        raw = [r.elapsed for r in report.results]
        rec.calibrate()
    digest = hashlib.sha256(report.to_json(include_timing=False).encode()).hexdigest()
    digest_ok = digest == reference["verify64"][scale]
    failures = [f"{r.check_id}: {r.details}" for r in report.failures]
    if not digest_ok:
        failures.append(f"report sha256 {digest} differs from the reference")
    jobs = [r.check_id for r in report.results]
    return {
        "rss_mb": rss, "digest": digest,
        "job_ms": [t * f * 1000 for t, f in zip(raw, rec.factors(len(raw)))],
        "raw_ms": [t * 1000 for t in raw], "samples": rec.samples,
        "jobs": jobs, "job_hash": job_hash([cfg["order"], jobs]),
        "attempted": len(jobs),
        # a wrong report is at least one wrong job even when every check passed
        "failed": max(len(report.failures), 0 if digest_ok else 1),
        "failures": failures[:5],
    }


# ---------------------------------------------------------------------------
# graph_sweep: loop counts -> both theta routes -> T, against the closed form
# ---------------------------------------------------------------------------

GRAPH_ORDERS = (64, 88, 112, 136, 160)
GRAPH_PARAMS = {
    "A": range(2, 25), "D": range(3, 25), "Atilde": range(2, 25, 2),
    "Dtilde": range(4, 25), "E6": (6,), "E7": (7,), "E8": (8,),
    "E6tilde": (6,), "E7tilde": (7,), "E8tilde": (8,),
}
# jobs per (family, order) pair, and the orders; at most eight distinct
# orders, so the first job at each order fills the series_compose power table
# and the others find it
GRAPH_SCALE = {"full": (2, GRAPH_ORDERS), "tiny": (1, (16,))}


def graph_jobs(seed: int, scale: str) -> list:
    """[tag, param, order] jobs: every family at every order equally often,
    each family's parameters drawn one from each of equal slices of its
    range, all in a seeded order, so seeds differ little in cost."""
    repeat, orders = GRAPH_SCALE[scale]
    rng = random.Random(seed)
    jobs = []
    for tag in FAMILY_TAGS:
        params, k = GRAPH_PARAMS[tag], repeat * len(orders)
        picks = [rng.choice(params[i * len(params) // k:(i + 1) * len(params) // k] or params)
                 for i in range(k)]
        rng.shuffle(picks)
        jobs += [[tag, p, order] for p, order in zip(picks, orders * repeat)]
    rng.shuffle(jobs)
    return jobs


def graph_job(job, span):
    tag, param, order = job
    fam = GraphFamily(tag, param)
    counts = span("graphs.loop_counts",
                  lambda: PowerSeries.from_list(loop_counts(build_ade(fam), order)))
    theta_f = span("transforms.theta_formula", theta_from_poincare_formula, counts, order)
    theta_s = span("transforms.theta_subst", theta_from_poincare_subst, counts, order)
    closed = span("transforms.closed_form",
                  lambda: xi_expand(theorem_2_5_lookup(fam), order))
    return t_from_theta(theta_f), t_from_theta(theta_s), closed


def graph_gate(out):
    t_formula, t_subst, closed = out
    if t_formula != closed:
        return "formula route differs from the closed form"
    if t_subst != closed:
        return "substitution route differs from the closed form"
    return None


# ---------------------------------------------------------------------------
# measure_queries: the queries the CLI serves, on combinations of atoms
# ---------------------------------------------------------------------------

# support order of an atom with this many primes is factor * parameter
_KIND_FACTOR = (2, 4, 12)
_DEGREE = {"d": 0, "alpha": 1, "beta": 2, "gamma": 3}
# every support divides 240, so no query runs away on a large lcm; level
# costs grow steeply with the support, so the largest here is 60
MEASURE_SUPPORTS = (12, 20, 24, 30, 40, 60)
MEASURE_OPS = ("tseries", "moments", "pushforward", "expansion", "level")
MEASURE_ARG = {"tseries": 64, "moments": 16, "pushforward": 8, "expansion": None, "level": None}
# queries per stratum, and the supports
MEASURE_SCALE = {"full": (2, MEASURE_SUPPORTS), "tiny": (1, (12,))}


def _atoms_for(support: int) -> dict:
    """Atoms whose support divides the given one, by density degree (0 for
    d), each with its own support; parameters above the degree, so no atom
    is the zero measure."""
    out: dict = {deg: [] for deg in _DEGREE.values()}
    for name, deg in _DEGREE.items():
        for primes, factor in enumerate(_KIND_FACTOR):
            if support % factor:
                continue
            for m in range(deg + 1, support // factor + 1):
                if (support // factor) % m == 0:
                    out[deg].append((f"{name}{chr(39) * primes}_{m}", factor * m))
    return out


def _scalar_text(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def measure_jobs(seed: int, scale: str) -> list:
    """[text, op, terms] with terms the [coefficient, atom] pairs the text
    denotes.  Each op meets each support with a lead atom of each density
    degree equally often.  The stratum fixes the lead atom, which has the full
    support, and how many more atoms of no higher degree join it, so seeds
    differ little in cost; the seed picks those atoms, the coefficients and
    the order of the queries.  Only + joins terms and every coefficient is
    positive: the atoms are nonnegative nonzero measures, so no query is the
    zero measure.  The grammar has no leading unary minus."""
    repeat, supports = MEASURE_SCALE[scale]
    rng = random.Random(seed)
    jobs = []
    for i, op in enumerate(MEASURE_OPS):
        for j, support in enumerate(supports):
            pools = _atoms_for(support)
            for deg, atoms in pools.items():
                leads = [a for a, s in atoms if s == support]
                others = [a for d in range(deg + 1) for a, _ in pools[d]]
                for r in range(repeat):
                    lead = leads[(i + j + r) % len(leads)]
                    extra = rng.sample([a for a in others if a != lead], (i + j + deg + r) % 3)
                    text, terms = _measure_expr(rng, [lead] + extra)
                    jobs.append([text, op, [[_fr(c), a] for c, a in terms]])
    rng.shuffle(jobs)
    return jobs


def _measure_expr(rng: random.Random, atoms: list):
    terms, texts = [], []
    for atom in atoms:
        style = rng.randrange(4)
        if style == 0:
            c, text = Fraction(1), atom
        elif style == 1:
            k = rng.randint(2, 5)
            c, text = Fraction(k), f"{k}*{atom}"
        elif style == 2:
            k = rng.randint(2, 5)
            c, text = Fraction(1, k), f"{atom}/{k}"
        else:
            c = Fraction(rng.randint(1, 5), rng.randint(2, 6))
            text = f"{_scalar_text(c)}*{atom}"
        terms.append([c, atom])
        texts.append(text)
    text = " + ".join(texts)
    if len(atoms) > 1 and rng.random() < 0.3:
        k = rng.randint(2, 4)
        text = f"({text})/{k}"
        terms = [[c / k, a] for c, a in terms]
    return text, terms


def measure_job(job, span):
    text, op, _ = job
    e = span("exprs.parse", parse_measure_expr, text)
    arg = MEASURE_ARG[op]
    if op == "tseries":
        out = span("measures.t_series", t_series_of_measure, e, arg)
    elif op == "moments":
        out = span("measures.moments",
                   lambda: [cyclo_as_rational(moment(e, k)) for k in range(arg + 1)])
    elif op == "pushforward":
        out = span("measures.pushforward", lambda: pushforward_real(e).moments(arg))
    elif op == "expansion":
        out = span("measures.expansion",
                   lambda: cyclotomic_expansion(e, e.minimal_support_order() // 2))
    else:
        out = span("measures.level", level, e)
    return e, out


def canonical(op, out) -> str:
    """Representation-independent text of a query result."""
    if op == "tseries":
        return ",".join(map(_fr, out.coeffs))
    if op == "moments":
        return ",".join(map(_fr, out))
    if op == "pushforward":
        return ",".join(_fr(cyclo_as_rational(v)) for v in out)
    if op == "expansion":
        return ";".join(f"{l}:{_fr(c)}" for l, c in sorted(out.coefficients.items())) \
            + f"|{out.n}|{out.residual_ok}"
    return str(out)


class _AtomCache(dict):
    def __missing__(self, atom):
        value = self[atom] = parse_measure_expr(atom)
        return value


def measure_gate(job, out, atoms: _AtomCache):
    """Exact cross-checks that hold for any seed; None when all pass."""
    text, op, terms = job
    e, value = out
    terms = [(Fraction(c), atoms[a]) for c, a in terms]
    if op in ("tseries", "moments"):
        # moments are linear in the measure, so the sum over the atoms must
        # give the same doubled-moment series 1 + T(q)(1 - q), or moments
        n = MEASURE_ARG[op]
        if op == "tseries":
            one_minus_q = PowerSeries.from_list([1, -1], n)

            def linear(m):
                return t_series_of_measure(m, n) * one_minus_q + 1
            got = value * one_minus_q + 1
        else:
            def linear(m):
                return PowerSeries(n, [cyclo_as_rational(moment(m, k)) for k in range(n + 1)])
            got = PowerSeries(n, value)
        total = PowerSeries.zero(got.order)
        for c, atom in terms:
            total = total + linear(atom) * c
        return None if got == total else "differs from the sum over its atoms"
    if op == "pushforward":
        # moment k of the pushforward is the sum of C(2k, j) m_{2k-2j}; the
        # even moments of a symmetric measure satisfy m_{-i} = m_i
        even = [cyclo_as_rational(moment(e, 2 * i)) for i in range(len(value))]
        for k, v in enumerate(value):
            expect = sum(comb(2 * k, j) * even[abs(k - j)] for j in range(2 * k + 1))
            if cyclo_as_rational(v) != expect:
                return f"pushforward moment {k} differs from the binomial sum"
        return None
    if op == "expansion":
        if not value.residual_ok:
            return "expansion has a residual"
        order = 2 * value.n + 2
        if t_series_of_measure(reconstruct_expansion(value), order) != t_series_of_measure(e, order):
            return "rebuilt expansion has another T series"
        return None
    if expand_over_level(e, value) is None:
        return f"no expansion at level {value}"
    if value and expand_over_level(e, value - 1) is not None:
        return f"an expansion exists below level {value}"
    return None


# ---------------------------------------------------------------------------
# Stream runner shared by graph_sweep and measure_queries
# ---------------------------------------------------------------------------

STREAMS = {
    "graph_sweep": (graph_jobs, graph_job),
    "measure_queries": (measure_jobs, measure_job),
}


def run_stream(workload, scale, seed, rec, reference, cross_check):
    make_jobs, job_fn = STREAMS[workload]
    jobs = make_jobs(seed, scale)
    outs, raw, failures = [], [], []
    rec.calibrate()
    with rec.counting():
        for job in jobs:
            rec.start_job()
            t = time.perf_counter()
            try:
                outs.append(job_fn(job, rec))
            except Exception as exc:  # a crashed job is a failed job
                outs.append(None)
                failures.append(f"{job}: {exc!r}")
            raw.append(time.perf_counter() - t)
            rec.calibrate()
    rss = peak_rss_mb()
    factors = rec.factors(len(jobs))
    # output gate, outside the timed region
    digest = None
    if workload == "graph_sweep":
        failures += [f"{job}: {bad}" for job, out in zip(jobs, outs)
                     if out is not None and (bad := graph_gate(out))]
    else:
        digest = hashlib.sha256("\n".join(
            "error" if out is None else canonical(job[1], out[1])
            for job, out in zip(jobs, outs)).encode()).hexdigest()
        expected = reference["measure_queries"][scale].get(str(seed))
        if expected is not None and digest != expected:
            failures.append(f"result sha256 {digest} differs from the reference for seed {seed}")
        elif expected is None and cross_check:
            atoms = _AtomCache()
            failures += [f"{job[0]} [{job[1]}]: {bad}" for job, out in zip(jobs, outs)
                         if out is not None and (bad := measure_gate(job, out, atoms))]
    return {
        "rss_mb": rss, "digest": digest,
        "job_ms": [t * f * 1000 for t, f in zip(raw, factors)],
        "raw_ms": [t * 1000 for t in raw], "samples": rec.samples,
        "jobs": jobs, "job_hash": job_hash(jobs), "attempted": len(jobs),
        "failed": min(len(failures), len(jobs)), "failures": failures[:5],
        "spans": [{k: v * f for k, v in spans.items()} for spans, f in zip(rec.jobs, factors)]
        if rec.spans_on else None,
    }


# ---------------------------------------------------------------------------
# Probes: fixed inputs, warm caches, median of repeated calls
# ---------------------------------------------------------------------------


def _median_time(fn, reps: int) -> float:
    """Median time of a warm call, scaled by samples around the repeats."""
    fn()  # warm: reduction tables and power tables are filled here
    samples = [calibrate.sample()]
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    samples.append(calibrate.sample())
    return statistics.median(times) * calibrate.factors(samples)[0]


def probes() -> dict:
    rng = random.Random(20071217)

    def frac():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    def cyclo(n):
        return cyclo_make(n, {j: frac() for j in range(n)})

    out = {}
    for n, reps in ((24, 400), (80, 60), (240, 15)):
        a, b = cyclo(n), cyclo(n)
        out[f"exact.cyclo_mul_us.N{n}"] = _median_time(lambda: a * b, reps) * 1e6
    weights = {rng.randrange(240): frac() for _ in range(8)}
    out["exact.cyclo_make_us.N240"] = _median_time(lambda: cyclo_make(240, weights), 200) * 1e6
    z = cyclo(48)
    out["exact.cyclo_embed_us.N240"] = _median_time(lambda: cyclo_embed(z, 240), 100) * 1e6
    f = PowerSeries(128, [frac() for _ in range(129)])
    g = PowerSeries(128, [frac() for _ in range(129)])
    out["exact.series_mul_ms.o128"] = _median_time(lambda: f * g, 15) * 1e3
    # the inner series of the substitution theta route, q/(1+q)^2
    one_plus_q = PowerSeries.from_list([1, 1], 128)
    inner = exact.series_invert(one_plus_q * one_plus_q).shift(1)
    out["exact.series_compose_ms.o128"] = _median_time(
        lambda: exact.series_compose(f, inner), 15) * 1e3
    rows = [[Fraction(rng.randint(-5, 5)) for _ in range(40)] for _ in range(40)]
    rhs = [Fraction(rng.randint(-5, 5)) for _ in range(40)]
    out["exact.solve_ms.n40"] = _median_time(
        lambda: exact.solve_linear_system(rows, rhs), 5) * 1e3
    return out


# ---------------------------------------------------------------------------
# Call counts
# ---------------------------------------------------------------------------


class CallCounter:
    """Counts calls to named functions while the jobs run, by wrapping them
    where cyclade looks them up; a function that no longer exists counts 0.
    Counts repeat exactly for a commit and a seed."""

    METHODS = {
        "exact.fraction_new_calls": (Fraction, "__new__"),
        "exact.cyclo_init_calls": (exact.CyclotomicNumber, "__init__"),
        "exact.series_init_calls": (exact.PowerSeries, "__init__"),
    }
    FUNCTIONS = {
        "exact.cyclo_embed_calls": "cyclo_embed",
        "measures.density_measure_calls": "density_measure",
        "measures.level_calls": "level",
        "measures.level_attempts": "expand_over_level",
    }

    def __init__(self):
        self.counts = dict.fromkeys([*self.METHODS, *self.FUNCTIONS], 0)
        self._undo: list = []
        self._in_level = 0

    def _wrap(self, metric, fn):
        if metric == "measures.level_calls":
            def wrapper(*args, **kwargs):
                self.counts[metric] += 1
                self._in_level += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._in_level -= 1
        elif metric == "measures.level_attempts":
            # expand_over_level calls made from inside level are its attempts
            def wrapper(*args, **kwargs):
                self.counts[metric] += bool(self._in_level)
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                self.counts[metric] += 1
                return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def __enter__(self):
        for metric, (cls, name) in self.METHODS.items():
            if name in cls.__dict__:
                wrapper = self._wrap(metric, getattr(cls, name))
                self._patch(cls, name, staticmethod(wrapper) if name == "__new__" else wrapper)
        # cyclade's modules and this one, which calls some of them directly
        modules = [m for n, m in sys.modules.items()
                   if n.split(".")[0] == "cyclade" or n == __name__]
        for metric, name in self.FUNCTIONS.items():
            original = getattr(measures, name, None) or getattr(exact, name, None)
            if original is None:
                continue
            wrapper = self._wrap(metric, original)
            for module in modules:
                if module.__dict__.get(name) is original:
                    self._patch(module, name, wrapper)
        self._fills = self._inner_powers_misses()
        return self

    def __exit__(self, *exc):
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        calls = self.counts["measures.level_calls"]
        attempts = self.counts.pop("measures.level_attempts")
        self.counts["measures.level_attempts_per_call"] = attempts / calls if calls else 0.0
        self.counts["transforms.inner_powers_fills"] = self._inner_powers_misses() - self._fills
        return False

    @staticmethod
    def _inner_powers_misses() -> int:
        """Fills of the series_compose power table: misses of its cache."""
        powers = getattr(exact, "_inner_powers", None)
        return powers.cache_info().misses if hasattr(powers, "cache_info") else 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_unit(workload, seed, mode, scale, reference, cross_check=True):
    rec = Recorder(mode)
    if workload == "verify64":
        out = run_verify(scale, rec, reference)
    else:
        out = run_stream(workload, scale, seed, rec, reference, cross_check)
    if rec.counter:
        out["counts"] = rec.counter.counts
    if rec.spans_on:
        out["probes"] = probes()
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("verify64",) + tuple(STREAMS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("plain", "spans", "counts"), default="plain")
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--reference", default=str(REFERENCE))
    ap.add_argument("--cross-check", type=int, choices=(0, 1), default=1,
                    help="0 skips the cross-checks of measure_queries for a seed "
                         "with no reference digest")
    args = ap.parse_args(argv)
    reference = json.loads(Path(args.reference).read_text())
    out = run_unit(args.workload, args.seed, args.mode, args.scale, reference,
                   bool(args.cross_check))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
