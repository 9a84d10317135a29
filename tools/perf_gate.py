#!/usr/bin/env python3
"""Paired perf gate: this checkout against BASE_REF on the repository benchmark.

usage: python3 tools/perf_gate.py BASE_REF

Run from the repository root. The head is this checkout's working tree,
uncommitted changes included. BASE_REF is checked out into a temporary git
worktree, which is removed on every exit path. For each workload in
BENCHMARK.json, perfbench/run.py runs PAIRS times in the base tree and PAIRS
times in this checkout, in alternating pairs (base first in the odd pairs,
head first in the even ones), each with --seed SEED --seconds SECONDS
--trace 0. Each tree builds its own perfbench on its first run.

Each pair gives, per end-to-end metric, the change (head - base) / base. The
gate fails when a metric's median change, taken in its worse direction, is
larger than the metric's BENCHMARK.json bound. It also fails when a head run
fails its output checks, when a run prints no result, and when the head's
failed/attempted share on a workload is higher than the base's. One markdown
row per (workload, metric) goes to stdout and, when GITHUB_STEP_SUMMARY is
set, to the job summary. Progress and build output go to stderr.

Exit codes: 0 pass, 1 gate failure (a run of either tree that prints no
result is one), 2 usage error or a BASE_REF that names no commit.
"""

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

PAIRS = 10
SECONDS = "2"
SEED = "1"


def perfbench(tree, workload):
    """Runs one workload in `tree`; returns (exit code, stdout, result or None).

    run.py starts perfbench as its own child, so the run gets a process
    group of its own and the whole group is killed if the gate is stopped
    mid-run: nothing may keep writing into a worktree being removed.
    """
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", SEED,
           "--seconds", SECONDS, "--trace", "0"]
    proc = subprocess.Popen(cmd, cwd=tree, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate()
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    try:
        return proc.returncode, out, json.loads(out.rstrip("\n").split("\n")[-1])
    except json.JSONDecodeError:
        return proc.returncode, out, None


def pct(x):
    return f"{x * 100:+.1f}%"


def compare(workload, metrics, base_runs, head_runs):
    """Markdown rows for one workload, and the list of its failures."""
    rows, failures = [], []
    for m in metrics:
        name, better, bound = m["name"], m["better"], m["bound"]
        if any(name not in r["metrics"] for r in base_runs):
            rows.append(f"| {workload} | `{name}` | {better} | {bound:.0%} | — | — | "
                        "not reported by the base | — | — | new |")
            continue
        base = [r["metrics"][name]["value"] for r in base_runs]
        head = [r["metrics"][name]["value"] for r in head_runs]
        changes = [(h - b) / b if b else float(h != b) for b, h in zip(base, head)]
        sign = 1 if better == "lower" else -1  # sign * change > 0: the head is worse
        median = statistics.median(changes)
        over = sign * median > bound
        if over:
            failures.append(f"{workload} {name}: median change {pct(median)} "
                            f"is worse than the {bound:.0%} bound")
        rows.append(f"| {workload} | `{name}` | {better} | {bound:.0%} | "
                    f"{statistics.median(base):.4g} | {statistics.median(head):.4g} | "
                    f"{pct(median)} | {sum(sign * c < 0 for c in changes)} | "
                    f"{sum(sign * c > 0 for c in changes)} | {'FAIL' if over else 'ok'} |")
    share = {side: sum(r["failed"] for r in runs) / max(sum(r["attempted"] for r in runs), 1)
             for side, runs in (("base", base_runs), ("head", head_runs))}
    if share["head"] > share["base"]:
        failures.append(f"{workload}: failed share {share['head']:.3g} is higher than "
                        f"the base's {share['base']:.3g}")
    rows.append(f"| {workload} | failed/attempted | lower | ≤ base | {share['base']:.3g} | "
                f"{share['head']:.3g} | — | — | — | "
                f"{'FAIL' if share['head'] > share['base'] else 'ok'} |")
    return rows, failures


def run_pairs(base_tree, workload, failures):
    """PAIRS alternating base/head runs of one workload: the results per side,
    or None once a run prints no result. Failed head runs go to `failures`."""
    runs = {"base": [], "head": []}
    for pair in range(PAIRS):
        for side in ("base", "head") if pair % 2 == 0 else ("head", "base"):
            code, out, result = perfbench(base_tree if side == "base" else ".", workload)
            print(f"perf_gate: {workload} pair {pair + 1}/{PAIRS} {side}: exit {code}",
                  file=sys.stderr)
            if result is None or (side == "head" and (code != 0 or not result["correct"])):
                sys.stderr.write(out)
                what = "printed no result" if result is None else "failed its output checks"
                failures.append(f"{workload}: {side} run {pair + 1} {what} (exit {code})")
            if result is None:
                return None
            runs[side].append(result)
    return runs


def gate(base_tree, label):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    rows, failures = [], []
    for workload in (w["name"] for w in spec["workloads"]):
        runs = run_pairs(base_tree, workload, failures)
        if runs:
            workload_rows, workload_failures = compare(workload, spec["end_to_end"],
                                                       runs["base"], runs["head"])
            rows += workload_rows
            failures += workload_failures

    table = "\n".join([
        f"### Perf gate: this checkout vs {label}",
        "",
        f"{PAIRS} alternating pairs of {SECONDS} s perfbench runs per workload, seed {SEED}. "
        "Change is (head - base) / base, median over pairs; won and lost count the pairs "
        "in which the head was better or worse.",
        "",
        "| workload | metric | better | bound | base | head | median change | won | lost "
        "| verdict |",
        "|---|---|---|---:|---:|---:|---:|---:|---:|---|",
        *rows,
        "",
        "**perf gate failed:**\n" + "\n".join(f"- {f}" for f in failures)
        if failures else "perf gate passed",
    ])
    print(table)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as f:
            f.write(table + "\n")
    return 1 if failures else 0


def stop(signum, _frame):
    sys.exit(128 + signum)  # unwinds through the worktree cleanup


def main(argv):
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    if not os.path.isfile("BENCHMARK.json"):
        print("perf_gate: run from the repository root (BENCHMARK.json not found)",
              file=sys.stderr)
        return 2
    rev = subprocess.run(["git", "rev-parse", "--verify", "--quiet", argv[0] + "^{commit}"],
                         stdout=subprocess.PIPE, text=True)
    if rev.returncode != 0:
        print(f"perf_gate: {argv[0]} names no commit", file=sys.stderr)
        return 2
    sha = rev.stdout.strip()
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGHUP, stop)
    base_tree = tempfile.mkdtemp(prefix="perf-gate-")
    try:
        subprocess.run(["git", "worktree", "add", "--detach", base_tree, sha], check=True,
                       stdout=sys.stderr)
        return gate(base_tree, f"{argv[0]} ({sha[:12]})")
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", base_tree],
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        shutil.rmtree(base_tree, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
