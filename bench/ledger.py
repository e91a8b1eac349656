"""Run the benchmark over several seeds and summarise every metric.

Usage:
    python3 bench/ledger.py [--out FILE]

For each workload in BENCHMARK.json, runs ``bench/run.py`` untraced with
seeds 1 to 10 and traced with seeds 1 to 3, for the file's ``run_seconds``
each.  Writes a JSON ledger with, per metric, the values, their median and
quartiles, and the spread (interquartile range over the median), plus the
machine stamp and input properties of the first run.
Compare two commits by running this on each, alternating.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
FIRST_SEED = 1
RUNS = {0: 10, 1: 3}  # untraced and traced runs per workload


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def summarise(results: list[dict]) -> dict:
    out = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        entry = {"unit": first["unit"], "median": median, "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
        out[name] = entry
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the ledger here as well as to stdout")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ledger = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for name in [w["name"] for w in spec["workloads"]]:
        entry = {}
        for trace, runs in RUNS.items():
            seeds = list(range(FIRST_SEED, FIRST_SEED + runs))
            outcomes = [run_once(name, seed, spec["run_seconds"], trace) for seed in seeds]
            reports, results = zip(*outcomes)
            ledger.setdefault("stamp", reports[0]["stamp"])
            entry.setdefault("inputs", reports[0]["inputs"])
            entry["traced" if trace else "untraced"] = {
                "seeds": seeds,
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": summarise(list(results)),
            }
            print(f"{name} trace={trace}: done", file=sys.stderr)
        ledger["workloads"][name] = entry
    text = json.dumps(ledger, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
