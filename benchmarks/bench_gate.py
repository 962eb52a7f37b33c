"""Performance regression gate for the microbenchmarks.

Runs ``benchmarks/test_micro.py`` under pytest-benchmark and compares
each bench's best (min) time against the committed ``BENCH_micro.json``
baseline:

* a bench slower than ``post_pr_s * (1 + tolerance)`` fails the gate
  (tolerance defaults to 0.30; override with ``BENCH_GATE_TOLERANCE`` or
  ``--tolerance`` when a CI runner class is known to differ);
* the committed improvement claims are re-checked arithmetically: every
  bench flagged ``improved_3x`` must have ``pre_pr_s / post_pr_s >= 3``,
  and every entry under ``claims`` (e.g. the warm-start campaign
  speedup) must have ``recorded.cold_s / recorded.warm_s >= min_speedup``;
* claims naming a live ``pair`` of benches are additionally re-measured:
  the cold bench's min over the warm bench's min must clear
  ``min_speedup`` on this machine, not just in the committed record.

``--update`` refreshes the ``post_pr_s`` numbers from the current run
(preserving the ``pre_pr_s`` reference column, which is only measured
against pre-fastpath code; see PERFORMANCE.md for the methodology).

Usage::

    python benchmarks/bench_gate.py [--baseline BENCH_micro.json]
                                    [--tolerance 0.30] [--update]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "BENCH_micro.json"


def run_benchmarks(passes: int = 2) -> dict:
    """Run the micro suite; return {bench_name: min_seconds}.

    The baseline was measured as a min over several warmed-up process
    invocations (CPU frequency drift makes any single cold run read
    20–70% high — see PERFORMANCE.md), so the gate reproduces that
    method: warmup on, several rounds, min across ``passes`` separate
    pytest processes.
    """
    results: dict = {}
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    with tempfile.TemporaryDirectory() as td:
        for i in range(passes):
            out = Path(td) / f"bench{i}.json"
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "pytest",
                    "-q",
                    str(REPO_ROOT / "benchmarks" / "test_micro.py"),
                    "--benchmark-warmup=on",
                    "--benchmark-min-rounds=5",
                    f"--benchmark-json={out}",
                ],
                env=env,
                cwd=REPO_ROOT,
            )
            if proc.returncode != 0:
                print("bench-gate: benchmark run failed", file=sys.stderr)
                sys.exit(proc.returncode)
            data = json.loads(out.read_text())
            for b in data["benchmarks"]:
                got = b["stats"]["min"]
                name = b["name"]
                if name not in results or got < results[name]:
                    results[name] = got
    return results


def check_claims(baseline: dict) -> list:
    """Arithmetic re-check of the committed improvement claims."""
    failures = []
    for name, entry in baseline.get("benches", {}).items():
        if not entry.get("improved_3x"):
            continue
        pre = entry.get("pre_pr_s")
        post = entry.get("post_pr_s")
        if not pre or not post or pre / post < 3.0:
            failures.append(
                f"{name}: claimed >=3x but baseline says "
                f"{pre!r}/{post!r} = {pre / post if pre and post else 'n/a'}"
            )
    for name, claim in baseline.get("claims", {}).items():
        recorded = claim.get("recorded", {})
        need = float(claim.get("min_speedup", 2.0))
        cold = recorded.get("cold_s")
        warm = recorded.get("warm_s")
        if not need or not cold or not warm or cold / warm < need:
            failures.append(
                f"{name}: claimed >={need}x but recorded "
                f"{cold!r}/{warm!r} = "
                f"{cold / warm if cold and warm else 'n/a'}"
            )
    return failures


def check_live_pairs(baseline: dict, measured: dict) -> list:
    """Re-measure every claim that names a live (cold, warm) bench pair."""
    failures = []
    for name, claim in baseline.get("claims", {}).items():
        pair = claim.get("pair")
        if not pair:
            continue
        cold_name, warm_name = pair
        need = float(claim.get("min_speedup", 2.0))
        cold = measured.get(cold_name)
        warm = measured.get(warm_name)
        if cold is None or warm is None:
            failures.append(
                f"{name}: pair bench missing from the run "
                f"({cold_name}={cold!r}, {warm_name}={warm!r})"
            )
            continue
        ratio = cold / warm
        status = "ok" if ratio >= need else "FAIL"
        print(
            f"bench-gate: claim {name}: live {cold * 1e3:.2f} ms / "
            f"{warm * 1e3:.2f} ms = {ratio:.2f}x (need >={need}x) {status}"
        )
        if ratio < need:
            failures.append(
                f"{name}: live speedup {ratio:.2f}x < required {need}x"
            )
    return failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    ap.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("BENCH_GATE_TOLERANCE", "0.30")),
        help="allowed fractional slowdown vs the baseline (default 0.30)",
    )
    ap.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline's post_pr_s column from this run",
    )
    args = ap.parse_args()

    baseline = json.loads(args.baseline.read_text())
    claim_failures = check_claims(baseline)
    if claim_failures:
        for f in claim_failures:
            print(f"bench-gate CLAIM FAIL: {f}", file=sys.stderr)
        return 1

    measured = run_benchmarks()

    if args.update:
        for name, entry in baseline["benches"].items():
            if name in measured:
                entry["post_pr_s"] = round(measured[name], 6)
        args.baseline.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"bench-gate: baseline updated at {args.baseline}")
        return 0

    failures = []
    for name, entry in baseline["benches"].items():
        post = entry.get("post_pr_s")
        got = measured.get(name)
        if got is None:
            failures.append(f"{name}: present in baseline but not measured")
            continue
        limit = post * (1.0 + args.tolerance)
        status = "ok" if got <= limit else "REGRESSION"
        print(
            f"bench-gate: {name}: {got * 1e3:.2f} ms "
            f"(baseline {post * 1e3:.2f} ms, limit {limit * 1e3:.2f} ms) {status}"
        )
        if got > limit:
            failures.append(
                f"{name}: {got * 1e3:.2f} ms > limit {limit * 1e3:.2f} ms "
                f"(baseline {post * 1e3:.2f} ms + {args.tolerance:.0%})"
            )
    for name in measured:
        if name not in baseline["benches"]:
            print(f"bench-gate: {name}: no baseline entry (new bench?) — skipped")
    failures.extend(check_live_pairs(baseline, measured))

    if failures:
        for f in failures:
            print(f"bench-gate FAIL: {f}", file=sys.stderr)
        return 1
    print("bench-gate: all benches within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
