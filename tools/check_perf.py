#!/usr/bin/env python3
"""Supervised-overhead gate: the supervised fleet clean path against in-process.

``--fleet-inproc FILE`` / ``--fleet-supervised FILE`` are ``BENCH_fleet.json``
files from the same grid run in-process and under ``--supervise N`` (both
repeatable: best-of-N is used). The gate is relative, with no stored
baseline: it fails when the supervised clean path is more than
``--max-fleet-overhead`` slower than in-process, or when the two digest
chains disagree (the supervised clean path must be bitwise identical).

A markdown table goes to stdout and, when the ``GITHUB_STEP_SUMMARY``
environment variable is set (GitHub Actions), to the job summary as well.
Comparisons of this tree against another commit are tools/perf_gate.py's.

Exit codes: 0 ok, 1 over budget or digest mismatch, 2 usage/input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"error: cannot read {path}: {err}")


def fmt(value: float) -> str:
    if value >= 1000:
        return f"{value:,.0f}"
    return f"{value:.3g}"


def best_fleet_run(paths: list[str], label: str) -> tuple[float, str]:
    """Best (highest) sessions_per_sec across repeats + the shared digest chain.

    Repeats of the same deterministic grid must agree on the digest chain;
    best-of-N throughput is used so a noisy neighbour on one repeat does not
    fail the overhead gate.
    """
    best = 0.0
    digest = None
    for path in paths:
        data = load_json(path)
        rate = data.get("sessions_per_sec")
        chain = data.get("digest_chain")
        if not isinstance(rate, (int, float)) or rate <= 0:
            sys.exit(f"error: {path}: missing or non-positive sessions_per_sec")
        if not isinstance(chain, str) or not chain:
            sys.exit(f"error: {path}: missing digest_chain")
        if digest is None:
            digest = chain
        elif chain != digest:
            sys.exit(
                f"error: {label} repeats disagree on digest_chain "
                f"({digest} vs {chain} in {path}) — the run is not deterministic"
            )
        best = max(best, float(rate))
    return best, digest


def check_fleet_overhead(args: argparse.Namespace) -> int:
    """Gate the supervised clean path: bitwise identical, < max overhead."""
    inproc_rate, inproc_digest = best_fleet_run(args.fleet_inproc, "in-process")
    sup_rate, sup_digest = best_fleet_run(args.fleet_supervised, "supervised")

    overhead = inproc_rate / sup_rate - 1.0
    digests_match = inproc_digest == sup_digest
    over_budget = overhead > args.max_fleet_overhead

    lines = [
        f"### Supervised fleet overhead gate (limit: {args.max_fleet_overhead * 100:.0f}%)",
        "",
        "| path | best sessions/s | digest chain |",
        "|---|---:|---|",
        f"| in-process | {fmt(inproc_rate)} | `{inproc_digest}` |",
        f"| supervised | {fmt(sup_rate)} | `{sup_digest}` |",
        "",
        f"overhead: **{overhead * 100:+.1f}%** — "
        + ("❌ over budget" if over_budget else "✅ within budget")
        + " · digest chains "
        + ("✅ identical" if digests_match else "❌ DIFFER"),
    ]
    table = "\n".join(lines)
    print(table)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a", encoding="utf-8") as fh:
            fh.write(table + "\n")

    failed = False
    if not digests_match:
        print(
            f"\nfleet gate FAILED: supervised digest chain {sup_digest} != "
            f"in-process {inproc_digest} (clean path must be bitwise identical)",
            file=sys.stderr,
        )
        failed = True
    if over_budget:
        print(
            f"\nfleet gate FAILED: supervised overhead {overhead * 100:+.1f}% exceeds "
            f"limit {args.max_fleet_overhead * 100:.0f}%",
            file=sys.stderr,
        )
        failed = True
    if not failed:
        print("\nfleet overhead gate passed")
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fleet-inproc", action="append", metavar="FILE", required=True,
                        help="BENCH_fleet.json from an in-process run (repeatable)")
    parser.add_argument("--fleet-supervised", action="append", metavar="FILE", required=True,
                        help="BENCH_fleet.json from a --supervise run (repeatable)")
    parser.add_argument("--max-fleet-overhead", type=float, default=0.05,
                        help="max tolerated supervised-vs-inproc slowdown (default 0.05)")
    return check_fleet_overhead(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
