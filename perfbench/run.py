"""The cyclade benchmark: one seeded workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload verify64 --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports cyclade from ``src/``.  Each
unit of work runs in a fresh child process (``workloads.py``) with one caller
and no threads.  With ``--trace 0`` the command measures set-up time, then runs
units until the next one would end after ``--seconds``, and reports the
end-to-end metrics.  With ``--trace 1`` it runs one unit with spans and
probes, one untraced unit and one that counts calls, writes everything to
``perfbench/out/`` and reports the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  README.md describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("verify64", "graph_sweep", "measure_queries")
DEADLINE_S = 170.0  # the command must end within 180 s
SETUP_RUNS = 9
# set-up is what a fresh interpreter spends in cyclade before its first
# answer; calibration samples are taken after it, so the timed region
# imports everything cyclade needs itself
SETUP_CODE = """
import sys, time
t = time.perf_counter()
import cyclade
cyclade.all_check_ids()
t = time.perf_counter() - t
sys.path.insert(0, sys.argv[1])
import calibrate
calibrate.sample()
print(t * calibrate.factors([calibrate.sample(), calibrate.sample()])[0])
"""

END_TO_END = {"setup_s": "s", "wall_s": "s", "p50_ms": "ms", "p90_ms": "ms",
              "peak_rss_mb": "MB"}

# The four groups partition the registry: every id not named in the first
# three groups is an identity check.
VERIFY_GROUPS = {
    "graph_checks": ("thm2.5/", "theta-paths/", "prop3.3/", "prop3.4", "prop3.6/",
                     "thm7.1/", "thm8.7/", "discrepancy/"),
    "series_tables": ("lemma4.4", "prop4.5", "prop5.3", "lemma6.2", "prop6.3",
                      "prop6.4", "closed-form/"),
    "expansion": ("thm4.6", "level/", "prop5.4/n12-infeasible"),
}
VERIFY_CHECKS = ("thm4.6", "closed-form/sweep", "prop6.4", "level/ADE")

# span name in workloads.py -> per-layer metric (median per job, in ms)
SPAN_METRICS = {
    "graphs.loop_counts": "graphs.loop_counts_ms",
    "transforms.theta_formula": "transforms.theta_formula_ms",
    "transforms.theta_subst": "transforms.theta_subst_ms",
    "transforms.closed_form": "transforms.closed_form_ms",
    "exprs.parse": "exprs.parse_ms",
    "measures.t_series": "measures.t_series_ms",
    "measures.moments": "measures.moments_ms",
    "measures.pushforward": "measures.pushforward_ms",
    "measures.expansion": "measures.expansion_ms",
    "measures.level": "measures.level_ms",
}
PROBES = {"exact.cyclo_mul_us.N24": "us", "exact.cyclo_mul_us.N80": "us",
          "exact.cyclo_mul_us.N240": "us", "exact.cyclo_make_us.N240": "us",
          "exact.cyclo_embed_us.N240": "us", "exact.series_mul_ms.o128": "ms",
          "exact.series_compose_ms.o128": "ms", "exact.solve_ms.n40": "ms"}
COUNTS = {"exact.fraction_new_calls": "count", "exact.cyclo_init_calls": "count",
          "exact.cyclo_embed_calls": "count", "exact.series_init_calls": "count",
          "measures.density_measure_calls": "count", "measures.level_calls": "count",
          "measures.level_attempts_per_call": "ratio",
          "transforms.inner_powers_fills": "count"}
PER_LAYER = {
    **{f"verify.{g}_s": "s" for g in (*VERIFY_GROUPS, "identities")},
    **{f"verify.check.{c.replace('/', '.')}_s": "s" for c in VERIFY_CHECKS},
    **{m: "ms" for m in SPAN_METRICS.values()},
    "transforms.theta_subst_first_s": "s",
    **PROBES, **COUNTS,
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def verify_group(check_id: str) -> str:
    for group, prefixes in VERIFY_GROUPS.items():
        if check_id.startswith(prefixes):
            return group
    return "identities"


class Runner:
    """Starts child processes from the checkout root, within one deadline."""

    def __init__(self, root: Path, scale: str, reference: str):
        self.root = root
        self.scale = scale
        self.reference = reference
        self.start = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0")
        self.units: list = []

    def remaining(self) -> float:
        left = DEADLINE_S - (time.perf_counter() - self.start)
        if left <= 0:
            raise BenchError("out of time")
        return left

    def python(self, args) -> str:
        try:
            proc = subprocess.run([sys.executable, *args], cwd=self.root, env=self.env,
                                  capture_output=True, text=True, timeout=self.remaining())
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            raise BenchError(f"child timed out: {args[:3]}") from exc
        if proc.returncode:
            raise BenchError(f"child failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
        return proc.stdout

    def setup_s(self) -> float:
        """Median over fresh interpreters of the scaled set-up time."""
        return statistics.median(float(self.python(["-c", SETUP_CODE, str(HERE)]))
                                 for _ in range(SETUP_RUNS))

    def unit(self, workload: str, seed: int, mode: str) -> dict:
        """One cold unit.  Only the first unit of a run makes the
        cross-checks a seed with no reference digest needs; every later one
        must reproduce the first one's outputs exactly."""
        first = not self.units
        t = time.perf_counter()
        out = self.python([str(HERE / "workloads.py"), "--workload", workload,
                           "--seed", str(seed), "--mode", mode, "--scale", self.scale,
                           "--reference", self.reference, "--cross-check", str(int(first))])
        unit = json.loads(out.strip().splitlines()[-1])
        unit["unit_s"] = time.perf_counter() - t
        if not first and unit["digest"] != self.units[0]["digest"]:
            unit["failed"] += 1
            unit["failures"].append("outputs differ from the first unit's")
        self.units.append(unit)
        return unit


def p90(values) -> float:
    """The 90th percentile, as the mean of the values from the 85th to the
    95th percentile: a single order statistic moves with the noise of the
    one job that sits there."""
    ordered = sorted(values)
    n = len(ordered)
    window = ordered[int(0.85 * n):int(0.95 * n) + 1]
    return sum(window) / len(window)


def end_to_end(runner: Runner, workload: str, seed: int, seconds: int):
    """Set-up time, then cold units of the same job list until the next one
    would end after ``seconds`` (at least one); a job's time is its median
    over the units."""
    setup = runner.setup_s()
    t0 = time.perf_counter()
    while True:
        last = runner.unit(workload, seed, "plain")["unit_s"]
        if time.perf_counter() - t0 + last > min(seconds, runner.remaining()):
            break
    units = runner.units
    job_ms = [statistics.median(times) for times in zip(*(u["job_ms"] for u in units))]
    metrics = {
        "setup_s": setup,
        "wall_s": sum(job_ms) / 1000,
        "p50_ms": statistics.median(job_ms),
        "p90_ms": p90(job_ms),
        "peak_rss_mb": statistics.median(u["rss_mb"] for u in units),
    }
    return metrics


def _median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(workload: str, plain: dict, spans: dict, counts: dict) -> dict:
    """Every per-layer metric; a layer this workload does not call reads 0."""
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    if workload == "verify64":
        for check_id, ms in zip(spans["jobs"], spans["job_ms"]):
            metrics[f"verify.{verify_group(check_id)}_s"] += ms / 1000
            if check_id in VERIFY_CHECKS:
                metrics[f"verify.check.{check_id.replace('/', '.')}_s"] = ms / 1000
    else:
        firsts = set()
        if workload == "graph_sweep":
            seen = set()
            for i, job in enumerate(spans["jobs"]):
                if job[2] not in seen:
                    seen.add(job[2])
                    firsts.add(i)
        for span, name in SPAN_METRICS.items():
            values = [rec[span] * 1000 for i, rec in enumerate(spans["spans"])
                      if span in rec and not (span == "transforms.theta_subst" and i in firsts)]
            metrics[name] = _median_or_zero(values)
        metrics["transforms.theta_subst_first_s"] = sum(
            spans["spans"][i]["transforms.theta_subst"] for i in firsts)
        metrics["trace.overhead_s"] = (sum(spans["job_ms"]) - sum(plain["job_ms"])) / 1000
    metrics.update(spans["probes"])
    metrics.update(counts["counts"])
    return metrics


def trace(runner: Runner, workload: str, seed: int):
    spans = runner.unit(workload, seed, "spans")
    # verify64 times its checks itself, so its spans unit is also its
    # untraced unit and the harness adds no overhead there
    plain = spans if workload == "verify64" else runner.unit(workload, seed, "plain")
    counts = runner.unit(workload, seed, "counts")
    metrics = per_layer(workload, plain, spans, counts)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed, "metrics": metrics,
                                "plain": plain, "spans": spans, "counts": counts},
                               indent=1) + "\n")
    print(f"trace written to {path.relative_to(runner.root)}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny runs a few jobs per workload, for the self-test")
    ap.add_argument("--reference", default=str(HERE / "reference.json"),
                    help="reference digests the output gate compares against")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cyclade" / "__init__.py").is_file():
        print("error: run from the root of a cyclade checkout (no src/cyclade here)",
              file=sys.stderr)
        return 2
    runner = Runner(root, args.scale, args.reference)
    try:
        if args.trace:
            metrics = trace(runner, args.workload, args.seed)
            unit_of = PER_LAYER
        else:
            metrics = end_to_end(runner, args.workload, args.seed, args.seconds)
            unit_of = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    units = runner.units
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    print(f"python {sys.version.split()[0]}, nproc {os.cpu_count()}, "
          f"workload {args.workload}, seed {args.seed}, {len(units)} unit(s), "
          f"{len(units[0]['job_ms'])} jobs per unit, closed loop with one caller")
    print(f"job list sha256 {units[0]['job_hash']}")
    print("unit seconds " + " ".join(f"{u['unit_s']:.1f}" for u in units))
    for u in units:
        for line in u["failures"]:
            print(f"FAILED {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
