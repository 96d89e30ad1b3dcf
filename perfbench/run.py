#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the perfbench program and the tlrwse libraries it links from source
(Release, into .bench_build/perfbench at the repository root), runs one
workload in its own process, and relays its output. The last line of
standard output is the program's result object. Before relaying it, the
result is checked against BENCHMARK.json: every end-to-end metric (trace 0)
or per-layer metric (trace 1) must appear with its declared unit. The exit
code is non-zero when the build, a correctness check or the schema check
fails.

--smoke 1 selects seconds-scale input sizes (used by selftest.py).
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "work"
WORKLOADS = ("mdd_dram", "serve_mixed", "cluster_sharded")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return False
    return True


def omp_env(workload):
    """OpenMP settings of each workload's deployment.

    mdd_dram is one caller whose frequency loop and transforms use every
    core. serve_mixed runs one single-threaded request worker per core and
    cluster_sharded gets its parallelism from the shards, so their
    transforms run on one thread. mdd_dram's team owns the machine, so it
    spins between parallel regions: a sleeping team thread costs a wake-up
    of its virtual CPU at every region, and those wake-ups made the median
    latency swing between runs on a shared host. The other workloads' teams
    (ingest only) sleep instead of spinning on cores their threads need.
    """
    cpus = os.cpu_count() or 1
    threads = {"mdd_dram": cpus, "serve_mixed": 1,
               "cluster_sharded": 1}[workload]
    policy = "active" if workload == "mdd_dram" else "passive"
    return {"OMP_NUM_THREADS": str(threads), "OMP_WAIT_POLICY": policy}


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def schema_errors(result, trace):
    errors = []
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in result:
            errors.append(f"result lacks '{key}'")
    metrics = result.get("metrics", {})
    want = expected_metrics(trace)
    for name, unit in want.items():
        got = metrics.get(name)
        if got is None:
            errors.append(f"metric {name} missing")
        elif got.get("unit") != unit:
            errors.append(f"metric {name} has unit {got.get('unit')}, "
                          f"BENCHMARK.json says {unit}")
        elif not isinstance(got.get("value"), (int, float)):
            errors.append(f"metric {name} has no numeric value")
    for name in metrics:
        if name not in want:
            errors.append(f"metric {name} is not declared in BENCHMARK.json")
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 1
    WORK.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.update(omp_env(args.workload))
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--smoke", str(args.smoke),
           "--workdir", str(WORK)]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                             cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = [l for l in res.stdout.splitlines() if l.strip()]
    if not lines:
        log(f"{args.workload} printed nothing (exit {res.returncode})")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or "correct" not in result:
        sys.stdout.write("\n".join(lines) + "\n")
        log(f"{args.workload} printed no result (exit {res.returncode})")
        return 1
    errors = schema_errors(result, args.trace == 1)
    if errors:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        for e in errors:
            log("schema: " + e)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    return res.returncode


if __name__ == "__main__":
    sys.exit(main())
