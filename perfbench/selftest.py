"""Self-test of the benchmark harness at tiny scale (about a minute).

    python3 perfbench/selftest.py

Run it from the root of a checkout.  It checks that every metric named in
BENCHMARK.json appears with its unit, that a corrupted reference digest makes
the output gate count a failure, and that a seed always gives the same job
list.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("verify64", "graph_sweep", "measure_queries")


def bench(workload: str, seed: int, trace: int, reference: Path | None = None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    if reference:
        cmd += ["--reference", str(reference)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode:
        raise AssertionError(f"{cmd} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    job_hash = next(l.split()[-1] for l in lines if l.startswith("job list sha256"))
    return json.loads(lines[-1]), job_hash


def check(cond: bool, what: str, problems: list):
    print(("ok      " if cond else "FAILED  ") + what)
    if not cond:
        problems.append(what)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list = []
    hashes = {}
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, hashes[workload, trace] = bench(workload, 1, trace)
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload} trace={trace}: result has exactly the four keys", problems)
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{workload} trace={trace}: every job passes its gate", problems)
            missing = [m["name"] for m in spec[key]
                       if result["metrics"].get(m["name"], {}).get("unit") != m["unit"]]
            check(not missing, f"{workload} trace={trace}: every {key} metric with its unit"
                  + (f" (missing {missing})" if missing else ""), problems)
        check(hashes[workload, 0] == hashes[workload, 1],
              f"{workload}: seed 1 gives the same job list twice", problems)
    for workload in ("graph_sweep", "measure_queries"):
        # seed 2 has no reference digest, so measure_queries cross-checks it
        result, other = bench(workload, 2, 0)
        check(result["correct"] and other != hashes[workload, 0],
              f"{workload}: seed 2 gives another job list, and it passes its gate", problems)

    # a corrupted reference digest must count as a failed job
    reference = json.loads((HERE / "reference.json").read_text())
    reference["verify64"]["tiny"] = "0" * 64
    reference["measure_queries"]["tiny"] = {"1": "0" * 64}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    corrupt = out_dir / "corrupt-reference.json"
    corrupt.write_text(json.dumps(reference))
    for workload in ("verify64", "measure_queries"):
        result, _ = bench(workload, 1, 0, corrupt)
        check(result["failed"] > 0 and not result["correct"],
              f"{workload}: a corrupted reference digest counts as a failure", problems)
    corrupt.unlink()

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
