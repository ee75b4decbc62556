#!/usr/bin/env python3
"""Run-to-run spread of the pipeline benchmark's end-to-end metrics.

    python3 perfbench/spread.py --seeds 1-10 --workloads lift-fpu,fleet-alu
    python3 perfbench/spread.py --seeds 1-10 --sets 2

Runs perfbench/run.py once per (workload, seed), one run at a time, and
prints for each end-to-end metric the median of the runs and the
distance between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)). Spreads at or above a third of the
metric's bound in BENCHMARK.json are flagged. With --sets N the seeds
are run N times in a row per workload, and a set whose median is worse
than the first set's by more than the bound is flagged as well. The
runs' final JSON lines go to
.bench_build/perfbench-results/spread-<workload>-set<k>.json.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".bench_build" / "perfbench-results"


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_set(workload, seeds, seconds):
    """One run per seed; the list of results, or None if a run failed."""
    runs = []
    for seed in seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             check=False)
        if out.returncode != 0:
            print(f"{workload} seed {seed}: exit {out.returncode}")
            print(out.stderr[-2000:])
            return None
        runs.append({"seed": seed,
                     "result": json.loads(out.stdout.strip().splitlines()[-1])})
    return runs


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args()

    metrics = spec["end_to_end"]
    steady = True
    RESULTS.mkdir(parents=True, exist_ok=True)
    for workload in args.workloads.split(","):
        first = {}
        for k in range(args.sets):
            runs = run_set(workload, parse_seeds(args.seeds), args.seconds)
            if runs is None:
                return 1
            (RESULTS / f"spread-{workload}-set{k}.json").write_text(
                json.dumps(runs, indent=1) + "\n")
            for r in runs:
                if not r["result"]["correct"] or r["result"]["failed"]:
                    print(f"{workload} seed {r['seed']}: incorrect or "
                          "failed ops")
                    steady = False

            print(f"{workload} set {k}: {len(runs)} runs")
            for m in metrics:
                name, bound = m["name"], m["bound"]
                values = [r["result"]["metrics"][name]["value"]
                          for r in runs]
                med = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else float("inf")
                line = (f"  {name:24s} median {med:14.6g}  spread "
                        f"{spread:7.4f}  (bound {bound})")
                if spread >= bound / 3:
                    line += "  <-- spread above bound/3"
                    steady = False
                if k == 0:
                    first[name] = med
                elif first[name]:
                    worse = (med / first[name] - 1 if m["better"] == "lower"
                             else 1 - med / first[name])
                    line += f"  worse than set 0 by {worse:+.4f}"
                    if worse > bound:
                        line += "  <-- over bound"
                        steady = False
                print(line)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
