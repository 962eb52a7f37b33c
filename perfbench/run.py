"""End-to-end benchmark of the phase-1 campaign and the TCP/VIA steady state.

Usage, from the repository root::

    python3 perfbench/run.py --workload campaign --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py                        # every workload, one table
    python3 perfbench/run.py --record               # re-record reference.json

Every measured execution runs in a fresh process (``child.py``), one
after another, until ``--seconds`` have passed and at least
``MIN_RUNS`` have finished.  ``wall_s`` is their mean and
``sim_req_per_s`` their total requests over their total wall time;
``setup_s`` and ``peak_rss_mb`` are medians over the processes.

Host times are scaled to a reference host speed.  On a shared host the
CPU's speed drifts (by up to 1.6x, over seconds to tens of minutes), so
the benchmark pins itself and its executions to one CPU and times a
fixed pure-Python loop on it right before and right after each
execution; the execution's times are multiplied by ``CAL_REF_S`` over
the mean of the two.  The loop is the benchmark's own code, so a change
to the program moves the scaled times exactly as it moves the raw ones;
both are printed.

Each execution's result fingerprint is checked against the reference
recorded for its seed in ``reference.json`` (for an unrecorded seed,
against the first execution of the run); a mismatch is a failed
operation.

``--trace 0`` reports the end-to-end metrics, with tracing off.
``--trace 1`` alternates untraced and traced executions and reports
the per-layer metrics of the traced ones, the tracing overhead, and
whether the layers' self times account for the traced wall time.  The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORKLOADS = ("campaign", "steady-tcp", "steady-via")
MIN_RUNS = 3
CHILD_TIMEOUT_S = 150.0
#: Seconds the calibration loop takes at the reference host speed (the
#: fast state of a shared 2-vCPU VM, Python 3.11).
CAL_REF_S = 0.015


class BenchmarkError(RuntimeError):
    """An execution could not be measured at all."""


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def metric_units() -> dict:
    """Metric name -> unit, as declared in the root ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def calibrate() -> float:
    """Seconds this CPU now takes for a fixed pure-Python loop (best of 5)."""
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def spawn(workload: str, seed: int, trace: int) -> dict:
    """Run one execution in a fresh interpreter and return its record.

    The record gains ``speed``: the factor that scales the execution's
    host times to the reference host speed.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(trace),
    ]
    before = calibrate()
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(spawned_at)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload}: execution timed out") from exc
    if proc.returncode != 0:
        raise BenchmarkError(
            f"{workload}: execution exited {proc.returncode}\n{proc.stderr[-2000:]}"
        )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{workload}: execution printed nothing")
    record = json.loads(lines[-1])
    record["speed"] = CAL_REF_S / ((before + calibrate()) / 2)
    return record


def failures(records, expected: str) -> int:
    """Executions whose result fingerprint differs from ``expected``."""
    return sum(r["fingerprint"] != expected for r in records)


def _describe(values) -> str:
    if len(values) < 2:
        return f"over {len(values)} run"
    return f"over {len(values)} runs (min {min(values):.6g}, max {max(values):.6g})"


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure ``workload`` for ``seconds``; returns the result object."""
    recorded = load_reference()["workloads"][workload]["fingerprints"]
    expected = recorded.get(str(seed))
    deadline = time.monotonic() + seconds
    plain, traced = [], []
    while True:
        plain.append(spawn(workload, seed, 0))
        if trace:
            traced.append(spawn(workload, seed, 1))
        if len(plain) >= (1 if trace else MIN_RUNS) and time.monotonic() >= deadline:
            break
    source = "reference" if expected is not None else "first-run"
    if expected is None:
        expected = plain[0]["fingerprint"]
    failed = failures(plain + traced, expected)
    attempted = len(plain) + len(traced)

    units = metric_units()
    # The host's speed also drifts within a run, so host time is averaged
    # over all of the run's executions (total work / total time) rather
    # than taken from one; set-up and memory are per-process medians.
    walls = [r["wall_s"] * r["speed"] for r in plain]
    untraced_wall = statistics.fmean(walls)
    if not trace:
        samples = {
            "wall_s": walls,
            "sim_req_per_s": [r["requests"] / w for r, w in zip(plain, walls)],
            "setup_s": [r["setup_s"] * r["speed"] for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        }
        values = {
            "wall_s": untraced_wall,
            "sim_req_per_s": sum(r["requests"] for r in plain) / sum(walls),
            "setup_s": statistics.median(samples["setup_s"]),
            "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        }
        for name, v in samples.items():
            print(f"{workload}: {name} = {values[name]:.6g} {units[name]} {_describe(v)}")
        raw = [r["wall_s"] for r in plain]
        speeds = [r["speed"] for r in plain]
        print(
            f"{workload}: unscaled wall_s = {statistics.fmean(raw):.6g} s "
            f"{_describe(raw)}; host speed factor {_describe(speeds)}"
        )
    else:
        breakdown_ok = [r["breakdown_ok"] for r in traced]
        failed += breakdown_ok.count(False)
        values = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        values["trace.wall_s"] = statistics.fmean(
            r["wall_s"] * r["speed"] for r in traced
        )
        values["trace.untraced_wall_s"] = untraced_wall
        values["trace.overhead"] = values["trace.wall_s"] / untraced_wall
        for name, v in values.items():
            print(f"{workload}: {name} = {v:.6g} {units[name]}")
        print(
            f"{workload}: layer self times account for the traced wall time "
            f"within {traced[0]['breakdown_tolerance']:.0%}: {all(breakdown_ok)} "
            f"(unattributed {values['trace.unattributed_share']:+.2%}); "
            f"tracing overhead {values['trace.overhead']:.2f}x "
            f"({values['trace.wall_s']:.3f} s traced / {untraced_wall:.3f} s untraced)"
        )
        missing = sorted({m for r in traced for m in r["missing_hooks"]})
        if missing:
            print(f"{workload}: hooks not found, their time is charged to sim: {missing}")
    print(
        f"{workload} seed={seed}: {attempted} executions, {failed} failed the "
        f"result check against the {source} fingerprint {expected[:16]}"
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }


def record(seeds) -> None:
    """Re-record the reference fingerprints for ``seeds``."""
    reference = load_reference()
    for workload in WORKLOADS:
        prints = reference["workloads"][workload]["fingerprints"]
        for seed in seeds:
            prints[str(seed)] = spawn(workload, seed, 0)["fingerprint"]
            print(f"{workload} seed={seed}: {prints[str(seed)]}")
    REFERENCE.write_text(json.dumps(reference, indent=2) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record",
        action="store_true",
        help="re-record the reference fingerprints of the default and held-out seeds",
    )
    args = parser.parse_args(argv)
    reference = load_reference()
    seed = args.seed if args.seed is not None else reference["default_seed"]

    # Calibration and executions share one CPU (the loop measures the
    # speed of the CPU the execution runs on).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # Byte-compile up front, so no execution pays for it in setup_s.
    compileall.compile_dir(str(ROOT / "src"), quiet=2)
    try:
        if args.record:
            record((reference["default_seed"], reference["held_out_seed"]))
            return 0
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: measure(w, seed, args.seconds, args.trace) for w in names}
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{name}": m
                for w, r in results.items()
                for name, m in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
