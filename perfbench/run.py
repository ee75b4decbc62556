#!/usr/bin/env python3
"""Pipeline benchmark: build the vega library and vega_perfbench from source,
run one workload, check its outputs and print every metric.

    python3 perfbench/run.py --workload campaign-alu --seed 1 \
        --seconds 30 --trace 0

Run from the repository root. The build goes to .bench_build/perfbench,
per-run details (provenance, span summary, per-repetition values) to
.bench_build/perfbench-results. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RESULTS = ROOT / ".bench_build" / "perfbench-results"
SCRATCH = ROOT / ".bench_build" / "perfbench-tmp"
WORKLOADS = ["lift-fpu", "campaign-alu", "fleet-alu", "campaign-mem"]
# Compilers and vega_perfbench keep their temporary files under .bench_build.
ENV = dict(os.environ, TMPDIR=str(ROOT / ".bench_build" / "tmp"))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_group(cmd, timeout, stdout):
    """Run @cmd in its own process group and wait for it; on timeout or
    interruption kill the whole group (a build's compilers included).
    Returns (exit code or None on timeout, captured stdout or None)."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr,
                            text=True, start_new_session=True, env=ENV)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout} s: {' '.join(cmd)}")
        return None, None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def run_logged(cmd, timeout):
    """Run a build step with its output on stderr; True on success."""
    code, _ = run_group(cmd, timeout, sys.stderr)
    return code == 0


def build():
    """Configure (once) and build vega_perfbench; its path or None."""
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if not (BUILD / "CMakeCache.txt").exists():
        if not run_logged(configure, BUILD_TIMEOUT_S):
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD), "-j", jobs,
           "--target", "vega_perfbench"]
    if not run_logged(cmd, BUILD_TIMEOUT_S):
        # A cache left by a checkout at another path: start afresh.
        shutil.rmtree(BUILD, ignore_errors=True)
        if not (run_logged(configure, BUILD_TIMEOUT_S)
                and run_logged(cmd, BUILD_TIMEOUT_S)):
            return None
    binary = BUILD / "vega_perfbench"
    return binary if binary.exists() else None


def git_describe():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
            env=env, capture_output=True, text=True, timeout=10,
            check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if present."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    # A SIGTERM unwinds through run_group, which then kills its group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    pathlib.Path(ENV["TMPDIR"]).mkdir(parents=True, exist_ok=True)
    binary = build()
    if binary is None:
        log("build failed")
        return 1

    RESULTS.mkdir(parents=True, exist_ok=True)
    SCRATCH.mkdir(parents=True, exist_ok=True)
    detail = RESULTS / (f"{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}.json")
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scratch", str(SCRATCH),
           "--detail", str(detail)]
    code, out = run_group(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    lines = (out or "").strip().splitlines()
    if code != 0 or not lines:
        log(f"vega_perfbench failed (exit {code})")
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("vega_perfbench result has unexpected keys")
        return 1
    declared = declared_metrics(args.trace)
    if declared is not None and sorted(declared) != sorted(result["metrics"]):
        log("vega_perfbench metrics differ from BENCHMARK.json")
        return 1

    prov = json.loads(detail.read_text())["provenance"]
    prov["git_describe"] = git_describe()
    print("provenance: " + json.dumps(prov, sort_keys=True))
    if not prov.get("optimized", False):
        print("WARNING: the benchmark was built without optimization")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:>20.6g} {m['unit']}")
    print(f"  correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
