#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

usage: python3 perfbench/run.py --workload t1_grid|fleet_mix|serve_open|all
                                [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The first run configures and builds
perfbench/ together with the library sources under src/ into
.bench_build/perfbench (a Release build); later runs rebuild only what
changed. Build output goes to stderr. The benchmark's table and, as the last
line of stdout, its JSON result go to stdout. The metric names and units in
that result are checked against BENCHMARK.json: --trace 0 must report every
end_to_end metric and --trace 1 every per_layer metric. Exits non-zero when
the build fails, an output check fails or the metric set does not match.

--workload all runs the three workloads one after another and ends with one
JSON object whose metrics are keyed "<workload>.<metric>".
"""

import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["t1_grid", "fleet_mix", "serve_open"]
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join("perfbench", "CMakeLists.txt")):
        fail("run from the repository root (perfbench/CMakeLists.txt not found)")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("configuring the benchmark failed")
    jobs = str(min(os.cpu_count() or 1, 4))
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], stdout=sys.stderr).returncode:
        fail("building the benchmark failed")


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, parsed result or None)."""
    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload", workload, "--seed", seed,
           "--seconds", seconds, "--trace", trace]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        print(proc.stdout, end="")
        fail(f"{workload} printed no JSON result (exit {proc.returncode})")
    print("\n".join(lines[:-1]))
    want = expected_metrics(trace == "1")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        print(f"perfbench/run.py: {workload}: metrics differ from BENCHMARK.json: "
              f"missing {missing}, unexpected {extra}, unit mismatch {units}", file=sys.stderr)
        return 1, result
    return proc.returncode, result


def main(argv):
    args = {"--workload": None, "--seed": "1", "--seconds": "10", "--trace": "0"}
    if len(argv) % 2 != 0:
        fail("flags take one value each\n" + __doc__)
    for flag, value in zip(argv[::2], argv[1::2]):
        if flag not in args:
            fail(f"unknown flag {flag}\n" + __doc__)
        args[flag] = value
    workload = args["--workload"]
    if workload not in WORKLOADS + ["all"]:
        fail("--workload must be one of " + ", ".join(WORKLOADS + ["all"]))
    if not os.path.isfile("BENCHMARK.json"):
        fail("BENCHMARK.json not found; run from the repository root")

    build()
    names = WORKLOADS if workload == "all" else [workload]
    code = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        rc, result = run_one(name, args["--seed"], args["--seconds"], args["--trace"])
        code = code or rc
        if workload != "all":
            print(json.dumps(result))
            return rc
        combined["correct"] = combined["correct"] and result["correct"] and rc == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
