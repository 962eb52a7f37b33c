"""One measured execution of a benchmark workload, in a fresh process.

Started by ``run.py``; prints one JSON line with the execution's
measurements.  ``--spawned-at`` is the parent's ``time.monotonic()``
just before it started this process, so ``setup_s`` runs from process
start to the first simulated event: interpreter start-up, importing
``repro``, building the cluster and start/prewarm.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(HERE), str(SRC)]
    import bench_workloads
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"repro imported from {repro.__file__}, not {SRC}")

    tracer = None
    if args.trace:
        from layer_tracer import LayerTracer

        tracer = LayerTracer()
    run = bench_workloads.execute(args.workload, args.seed, tracer)
    out = {
        "setup_s": run.first_event_at - args.spawned_at,
        "wall_s": run.wall_s,
        "peak_rss_mb": run.peak_rss_mb,
        "requests": run.requests,
        "fingerprint": run.fingerprint,
    }
    if tracer is not None:
        layers = bench_workloads.layer_metrics(tracer, run)
        tolerance = bench_workloads.BREAKDOWN_TOLERANCE
        out["layers"] = layers
        out["breakdown_tolerance"] = tolerance
        out["breakdown_ok"] = abs(layers["trace.unattributed_share"]) <= tolerance
        out["missing_hooks"] = tracer.missing
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
