#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --selftest
  python3 perfbench/run.py --record-digests <first>-<last> [--jobs <n>]

Run from the root of a checkout. The program is built from source into
.bench_build/ on first use. The last line of standard output is the JSON
result; everything else is a human-readable report. See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORK = BUILD / "work"
DIGESTS = HERE / "reference_digests.json"
WORKLOADS = ("search-a2c-combo", "search-a3c-nt3", "serve-sliced-nt3")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(target):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"the ncnas sources are not in {ROOT}; run from the root of a checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", target, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the report.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return BUILD / target


def reference_digests(workload, seed):
    table = json.loads(DIGESTS.read_text())["digests"]
    return table.get(workload, {}).get(str(seed))


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_metrics(trace):
    return [m["name"] for m in benchmark_spec()["per_layer" if trace else "end_to_end"]]


def run(args):
    binary = build("perfbench")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work-dir", str(WORK)]
    expected = reference_digests(args.workload, args.seed)
    if expected:
        cmd += ["--expect", expected]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1]) if done.returncode == 0 else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        sys.stderr.write(done.stdout)
        fail(f"perfbench exited with {done.returncode} and no result")
    names = declared_metrics(args.trace)
    if sorted(result["metrics"]) != sorted(names):
        fail(f"metrics {sorted(result['metrics'])} differ from BENCHMARK.json {sorted(names)}")
    print("\n".join(lines[:-1]))
    if not expected:
        print(f"no reference digests recorded for seed {args.seed}: results unchecked")
    print(json.dumps(result))
    return 0


def selftest():
    binary = build("perfbench_selftest")
    WORK.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PERFBENCH_WORK_DIR=str(WORK))
    return subprocess.run([str(binary)], env=env, timeout=BUILD_TIMEOUT_S).returncode


def record(seed_range, jobs):
    binary = build("perfbench")
    first, last = (int(x) for x in seed_range.split("-"))
    # The run length fixes how many instances a run makes; record them all.
    seconds = str(benchmark_spec()["run_seconds"])
    WORK.mkdir(parents=True, exist_ok=True)

    def one(task):
        workload, seed = task
        # One pool thread per process: digests do not depend on the pool size.
        done = subprocess.run(
            [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", seconds,
             "--digest-only", "--threads", "1", "--work-dir", str(WORK)],
            stdout=subprocess.PIPE, text=True, timeout=1800)
        row = json.loads(done.stdout.strip().split("\n")[-1])
        if done.returncode != 0 or row["failed"]:
            fail(f"{workload} seed {seed} did not finish cleanly")
        return workload, seed, row["digests"]

    spec = json.loads(DIGESTS.read_text())
    tasks = [(w, s) for s in range(first, last + 1) for w in WORKLOADS]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        for workload, seed, digests in pool.map(one, tasks):
            spec["digests"].setdefault(workload, {})[str(seed)] = digests
            print(f"{workload} seed {seed}: {digests}", flush=True)
    for workload in spec["digests"]:
        spec["digests"][workload] = dict(
            sorted(spec["digests"][workload].items(), key=lambda kv: int(kv[0])))
    DIGESTS.write_text(json.dumps(spec, indent=2) + "\n")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, help="default: run_seconds in BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--record-digests", metavar="FIRST-LAST")
    p.add_argument("--jobs", type=int, default=2)
    args = p.parse_args()
    os.chdir(ROOT)
    if args.selftest:
        return selftest()
    if args.record_digests:
        return record(args.record_digests, args.jobs)
    if not args.workload:
        p.error("--workload is required")
    if args.seconds is None:
        args.seconds = benchmark_spec()["run_seconds"]
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
