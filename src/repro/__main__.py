"""Command-line interface: regenerate any exhibit of the paper.

Usage::

    python -m repro table1
    python -m repro figure 2
    python -m repro figure 6
    python -m repro timeline --version VIA-PRESS-5 --fault link-down
    python -m repro campaign --versions TCP-PRESS VIA-PRESS-5
    python -m repro dashboard .repro-cache
    python -m repro store-diff .cache-a .cache-b
    python -m repro --profile campaign --versions TCP-PRESS
    python -m repro perf-report .repro-cache
    python -m repro perf-compare .cache-a .cache-b
    python -m repro trace-validate traces/
    python -m repro crossover
    python -m repro validate

Global flags such as ``--scale N`` (CPU/byte scale factor; larger =
faster, default 200), ``--seed N`` and ``--replications N`` go before
the subcommand: ``python -m repro --scale 400 table1``.
"""

from __future__ import annotations

import argparse
import os
import sys

from .experiments.settings import (
    REPETITION_RULES,
    Phase1Settings,
    RepetitionPolicy,
)
from .experiments.store import CACHE_DIR_ENV
from .faults.spec import FaultKind
from .press.cluster import ExperimentScale
from .press.config import ALL_VERSIONS_EXTENDED as VERSIONS


def _repetition(args: argparse.Namespace):
    """The adaptive policy from --reps-policy/--reps-max/--rep-budget,
    or ``None`` (legacy fixed-``replications``)."""
    if args.reps_policy == "fixed":
        if args.rep_budget is not None:
            sys.exit(
                "repro: --rep-budget needs an adaptive --reps-policy "
                f"(one of {[r for r in REPETITION_RULES if r != 'fixed']})"
            )
        return None
    try:
        return RepetitionPolicy(
            rule=args.reps_policy,
            min_reps=min(args.replications, args.reps_max),
            max_reps=args.reps_max,
            rep_budget=args.rep_budget,
        )
    except ValueError as exc:
        sys.exit(f"repro: {exc}")


def _settings(args: argparse.Namespace) -> Phase1Settings:
    try:
        return Phase1Settings(
            scale=ExperimentScale(cpu_factor=args.scale),
            seed=args.seed,
            replications=args.replications,
            fastpath=not args.no_fastpath,
            n_nodes=args.nodes,
            repetition=_repetition(args),
        )
    except ValueError as exc:
        sys.exit(f"repro: {exc}")


def cmd_table1(args) -> None:
    from .experiments.table1 import format_table1, run_table1

    print(format_table1(run_table1(_settings(args))))


def cmd_figure(args) -> None:
    settings = _settings(args)
    if args.number in (2, 3, 4, 5):
        from .experiments import timelines as tl

        runner = {
            2: tl.run_figure2,
            3: tl.run_figure3,
            5: tl.run_figure5,
        }
        if args.number == 4:
            for label, fig in tl.run_figure4(settings).items():
                print(tl.format_timeline_figure(fig, title=f"Figure 4 — {label}"))
                print()
        else:
            fig = runner[args.number](settings)
            print(
                tl.format_timeline_figure(
                    fig, title=f"Figure {args.number} — {fig.fault.value}"
                )
            )
    elif args.number in (6, 7, 8, 9, 10):
        from .experiments import performability as pf

        if args.number == 6:
            print(pf.format_figure6(pf.run_figure6(settings)))
        else:
            runner = {
                7: pf.run_figure7,
                8: pf.run_figure8,
                9: pf.run_figure9,
                10: pf.run_figure10,
            }
            print(pf.format_sensitivity(runner[args.number](settings)))
    else:
        sys.exit(f"no figure {args.number}; the paper has figures 2-10")


def cmd_timeline(args) -> None:
    from .analysis.report import timeline_report
    from .experiments.phase1 import run_single_fault
    from .obs.exporters import export_traces

    kind = FaultKind(args.fault)
    recorder = None
    if args.trace_dir:
        from .obs.bus import EventRecorder

        recorder = EventRecorder(keep_events=True)
    spans = None
    if args.spans_dir:
        from .obs.spans import SpanCollector

        spans = SpanCollector(sample_every=args.span_sample)
    record, cluster = run_single_fault(
        VERSIONS[args.version], kind, _settings(args),
        recorder=recorder, spans=spans,
    )
    print(timeline_report(record))
    paths, span_paths = export_traces(
        f"{args.version}__{kind.value}__seed{args.seed}",
        {"version": args.version, "fault": kind.value, "seed": args.seed},
        trace_dir=args.trace_dir or None,
        recorder=recorder,
        spans_dir=args.spans_dir or None,
        collector=spans,
        now=cluster.engine.now,
    )
    if recorder is not None:
        print(f"trace: {recorder.total} events ->",
              " ".join(str(p) for p in paths))
    if spans is not None:
        print(f"spans: {len(spans.spans)} spans in {spans.n_traces} "
              "traces ->",
              " ".join(str(p) for p in span_paths))


def cmd_campaign(args) -> None:
    from .analysis.report import (
        attribution_report,
        campaign_report,
        campaign_timing_report,
        latency_band_report,
        repetition_report,
        trace_summary_report,
    )
    from .experiments.campaign import full_campaign_with_report

    campaign, timing = full_campaign_with_report(
        _settings(args), versions=args.versions or None
    )
    print(campaign_report(campaign, replicates=timing.replicates))
    latency = latency_band_report(timing)
    if latency:
        print(latency)
    attribution = attribution_report(timing)
    if attribution:
        print(attribution)
    print(campaign_timing_report(timing))
    reps = repetition_report(timing)
    if reps:
        print(reps)
    traces = trace_summary_report(timing)
    if traces:
        print(traces)


def cmd_store_diff(args) -> None:
    """Compare the deterministic content of two campaign stores.

    Cells are matched by their on-disk key digest (the file name, which
    covers version/fault/seed/schema and the settings, so a store mixing
    campaigns at two scales keeps both) and compared by
    :func:`~repro.experiments.store.payload_fingerprint`, which ignores
    the volatile keys (wall-clock, warm-start provenance).  A store
    whose cells predate the current schema is called out as
    *invalidated* — the next campaign re-runs them, it does not re-read
    them.  Exits non-zero on any missing or differing cell — this is
    what CI's warm-vs-cold double run drives.
    """
    from pathlib import Path

    from .experiments.store import (
        SCHEMA_VERSION,
        DiskStore,
        payload_fingerprint,
    )

    def fingerprints(root: str) -> dict:
        if not Path(root).is_dir():
            sys.exit(f"store-diff: {root} is not a directory")
        out = {}
        for digest, key, payload in DiskStore(root).iter_cell_files():
            out[digest] = (key, payload_fingerprint(payload))
        schemas = [key.get("schema") or 0 for key, _ in out.values()]
        stale = sorted({s for s in schemas if s < SCHEMA_VERSION})
        if stale:
            n = sum(1 for s in schemas if s < SCHEMA_VERSION)
            olds = ", ".join(f"v{s}" for s in stale)
            print(
                f"store-diff: {root}: {n} cell(s) under stale schema "
                f"{olds} — invalidated by current schema "
                f"v{SCHEMA_VERSION}; campaigns re-run these cells "
                "rather than re-reading them"
            )
        return out

    def label(key: dict) -> str:
        return (
            f"{key.get('version')} {key.get('fault') or 'baseline'} "
            f"seed={key.get('seed')} schema={key.get('schema')}"
        )

    a = fingerprints(args.store_a)
    b = fingerprints(args.store_b)
    labels = {d: label(key) for d, (key, _) in {**b, **a}.items()}
    problems = 0
    for d in sorted(labels, key=lambda d: (labels[d], d)):
        if d not in a:
            print(f"store-diff: only in {args.store_b}: {labels[d]}")
            problems += 1
        elif d not in b:
            print(f"store-diff: only in {args.store_a}: {labels[d]}")
            problems += 1
        elif a[d][1] != b[d][1]:
            print(f"store-diff: payload mismatch: {labels[d]}")
            problems += 1
    if problems:
        sys.exit(f"store-diff: {problems} difference(s)")
    print(f"store-diff: {len(a)} cell(s) compared, payloads identical")


def cmd_perf_report(args) -> None:
    from .analysis.perf import perf_report_from_store

    try:
        print(perf_report_from_store(args.store))
    except ValueError as exc:
        sys.exit(f"perf-report: {exc}")


def cmd_perf_compare(args) -> None:
    from .analysis.perf import perf_compare

    text, comparable = perf_compare(args.store_a, args.store_b)
    print(text)
    if not comparable:
        sys.exit("perf-compare: nothing to compare")


def cmd_dashboard(args) -> None:
    from .analysis.dashboard import dashboard_from_store

    try:
        out = dashboard_from_store(args.store, args.out)
    except ValueError as exc:
        sys.exit(f"dashboard: {exc}")
    print(f"dashboard: {out}")


def cmd_trace_validate(args) -> None:
    from .obs.exporters import validate_trace_dir

    try:
        results = validate_trace_dir(args.trace_dir_arg)
    except ValueError as exc:
        sys.exit(f"trace-validate: {exc}")
    for name, count in sorted(results.items()):
        print(f"{name}: {count} events ok")
    print(f"trace-validate: {len(results)} file(s) ok")


def cmd_crossover(args) -> None:
    from .analysis.report import crossover_summary
    from .experiments.campaign import full_campaign_with_report
    from .experiments.performability import crossover_bands

    campaign, report = full_campaign_with_report(_settings(args))
    bands = crossover_bands(campaign, report.replicates)
    print("§9 crossover multipliers (VIA fault rates vs. TCP-PRESS):")
    for version, band in bands.items():
        print(f"  {version:14s} {band.value:5.2f}x   (paper: ~4x)")
    print("replicate bands:")
    print(crossover_summary(bands, report.replicates))


def cmd_validate(args) -> None:
    import dataclasses

    from .experiments.validation import run_sequential_validation

    settings = dataclasses.replace(_settings(args), utilization=0.72)
    print("model validation — sequential fault roster:")
    for version in ("TCP-PRESS", "VIA-PRESS-5"):
        r = run_sequential_validation(version, settings, spacing=500.0)
        print(
            f"  {version:14s} simulated AA {r.simulated_availability:.4f}"
            f"  predicted AA {r.predicted_availability:.4f}"
            f"  error/unavailability {r.relative_error:.2f}"
        )


def _positive_int(text: str) -> int:
    if text.isdigit() and int(text) >= 1:
        return int(text)
    raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the tables and figures of the HPCA'03 "
        "communication-architecture performability study.",
    )
    parser.add_argument("--scale", type=float, default=200.0,
                        help="CPU/byte scale factor (larger = faster run)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--replications", type=int, default=3)
    parser.add_argument(
        "--reps-policy", choices=list(REPETITION_RULES), default="fixed",
        help="replication stopping rule: fixed (exactly --replications "
        "per stream, the default), rse (stop when the stream metric's "
        "relative standard error converges), or ci (stop when its "
        "Student-t CI half width converges); see EXPERIMENTS.md",
    )
    parser.add_argument(
        "--reps-max", type=int, default=10,
        help="per-stream replication ceiling for adaptive --reps-policy "
        "(min is --replications; default 10)",
    )
    parser.add_argument(
        "--rep-budget", type=int, default=None,
        help="campaign-wide cap on extra replications beyond the "
        "minimum, spent highest-variance-first (adaptive policies only)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for campaign cells (1 = serial)",
    )
    parser.add_argument(
        "--cache-dir", default=os.environ.get(CACHE_DIR_ENV),
        help="persist campaign cell results here (survives restarts; "
        f"default ${CACHE_DIR_ENV} if set, else in-memory only)",
    )
    parser.add_argument(
        "--clear-cache", action="store_true",
        help="drop every cached campaign cell in --cache-dir, then run",
    )
    parser.add_argument(
        "--no-warm-start", action="store_true",
        help="simulate every campaign cell's warm-up from scratch instead "
        "of restoring the per-(version, rep) warm-state checkpoint "
        "(bit-identical results either way; see PERFORMANCE.md "
        "\"Warm-start checkpointing\")",
    )
    parser.add_argument(
        "--no-fastpath", action="store_true",
        help="reference mode: schedule every per-hop network event "
        "explicitly instead of the coalesced fast path (bit-identical "
        "results, several times slower; see PERFORMANCE.md)",
    )
    parser.add_argument(
        "--nodes", type=int, default=4,
        help="cluster size (the paper's testbed is 4; larger clusters "
        "run in the same single event loop)",
    )
    parser.add_argument(
        "--trace-dir", default=None,
        help="emit one structured trace per run/cell into this directory "
        "(*.jsonl + Perfetto *.trace.json; campaign cells always execute "
        "when tracing)",
    )
    parser.add_argument(
        "--spans", default=None, metavar="DIR", dest="spans_dir",
        help="emit request-scoped causal spans per run/cell into this "
        "directory (*.spans.jsonl + Perfetto *.spans.trace.json; span "
        "cells always execute and run cold; see OBSERVABILITY.md)",
    )
    parser.add_argument(
        "--span-sample", type=_positive_int, default=1, metavar="N",
        help="keep every Nth request trace when collecting spans "
        "(default 1 = every request)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="run every campaign cell under the wall-clock layer "
        "profiler: per-layer calls and self time, fabric frame and "
        "heap-churn counts — "
        "rolled into one BENCH_campaign.json ledger in the cache dir "
        "(results stay byte-identical; "
        "read back with perf-report; see OBSERVABILITY.md)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="near-peak throughput of the 5 versions")

    p_fig = sub.add_parser("figure", help="regenerate one figure (2-10)")
    p_fig.add_argument("number", type=int)

    p_tl = sub.add_parser("timeline", help="one (version, fault) timeline")
    p_tl.add_argument("--version", required=True, choices=VERSIONS)
    p_tl.add_argument(
        "--fault",
        required=True,
        choices=[k.value for k in FaultKind],
    )

    p_camp = sub.add_parser("campaign", help="full phase-1+2 report")
    p_camp.add_argument("--versions", nargs="*", choices=VERSIONS)

    p_diff = sub.add_parser(
        "store-diff",
        help="compare two campaign cache dirs cell by cell (non-zero exit "
        "on any payload mismatch; volatile keys ignored)",
    )
    p_diff.add_argument("store_a", help="first campaign cache dir")
    p_diff.add_argument("store_b", help="second campaign cache dir")

    p_perf = sub.add_parser(
        "perf-report",
        help="where a profiled campaign's wall-clock went: per-layer "
        "calls and self time, top sites, fabric paths, heap churn, "
        "per-cell breakdown "
        "(needs a --profile campaign in the store)",
    )
    p_perf.add_argument("store", help="campaign cache dir (a DiskStore)")

    p_pcmp = sub.add_parser(
        "perf-compare",
        help="diff the profiler ledgers of two campaign cache "
        "dirs (non-zero exit when either side has no perf data)",
    )
    p_pcmp.add_argument("store_a", help="first profiled cache dir")
    p_pcmp.add_argument("store_b", help="second profiled cache dir")

    p_dash = sub.add_parser(
        "dashboard",
        help="render a campaign store to one self-contained HTML report",
    )
    p_dash.add_argument("store", help="campaign cache dir (a DiskStore)")
    p_dash.add_argument(
        "--out", default=None,
        help="output HTML path (default: <store>/dashboard.html)",
    )

    p_tv = sub.add_parser(
        "trace-validate",
        help="validate every trace file in a directory (non-zero exit on "
        "malformed traces)",
    )
    p_tv.add_argument(
        "trace_dir_arg", metavar="trace_dir",
        help="directory of *.jsonl / *.trace.json traces",
    )

    sub.add_parser("crossover", help="the §9 ~4x crossover multipliers")
    sub.add_parser("validate", help="validate the model against simulation")
    return parser


def _configure_campaign(args) -> None:
    """Apply --jobs/--cache-dir/--trace-dir to every campaign this
    process runs."""
    from .experiments.campaign import configure
    from .experiments.store import open_store

    store = open_store(args.cache_dir) if args.cache_dir else None
    if store is not None and args.clear_cache:
        store.clear()
    configure(
        store=store,
        jobs=args.jobs,
        trace_dir=args.trace_dir,
        warm_start=not args.no_warm_start,
        spans_dir=args.spans_dir,
        span_sample=args.span_sample,
        profile=args.profile,
    )


def main(argv=None) -> None:
    from .experiments import campaign

    args = build_parser().parse_args(argv)
    handler = {
        "table1": cmd_table1,
        "figure": cmd_figure,
        "timeline": cmd_timeline,
        "campaign": cmd_campaign,
        "store-diff": cmd_store_diff,
        "perf-report": cmd_perf_report,
        "perf-compare": cmd_perf_compare,
        "dashboard": cmd_dashboard,
        "trace-validate": cmd_trace_validate,
        "crossover": cmd_crossover,
        "validate": cmd_validate,
    }[args.command]
    # The flags configure this command only: a second main() in the
    # same process starts from the defaults again.
    saved = dict(campaign._defaults)
    try:
        _configure_campaign(args)
        handler(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed early (``| head``).  Point stdout at devnull
        # so the interpreter's flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    finally:
        campaign._defaults.clear()
        campaign._defaults.update(saved)


if __name__ == "__main__":
    main()
