"""Structured text reports over campaigns, profiles, and model results."""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

from ..core.faultload import DAY, MONTH, FaultLoad
from ..core.metric import performability_of
from ..core.model import PerformabilityResult, ProfileSet, evaluate
from ..core.stages import STAGES, SevenStageProfile
from ..faults.spec import FaultKind, category_of
from .charts import bar_chart, sparkline, timeline_plot


def profile_table(profiles: ProfileSet) -> str:
    """Per-fault stage table for one version's campaign measurements."""
    lines = [
        f"{profiles.version} — Tn = {profiles.normal_throughput:.0f} req/s",
        f"{'fault':32s}" + "".join(f"{s.value:>16s}" for s in STAGES),
    ]
    for key in sorted(profiles.keys()):
        p = profiles.get(key)
        cells = []
        for stage in STAGES:
            d = p.duration(stage)
            if d <= 0:
                cells.append(f"{'—':>16s}")
            else:
                cells.append(f"{d:7.1f}s@{p.throughput(stage):6.0f}")
        lines.append(f"{key:32s}" + "".join(cells))
    return "\n".join(lines)


def result_summary(
    result: PerformabilityResult, bands: Optional[Mapping] = None
) -> str:
    """One model evaluation: headline numbers + contribution chart.

    ``bands`` (optional) maps ``"AA"/"AT"/"P"`` to
    :class:`~repro.experiments.performability.MetricBand`; when at least
    two complete replicates back a band, the headline carries ± CI half
    widths.
    """

    def pm(metric: str, fmt: str) -> str:
        band = (bands or {}).get(metric)
        if band is None or band.n < 2:
            return ""
        return f" ±{band.half_width:{fmt}}"

    lines = [
        f"{result.version}: AA = {result.availability:.5f}{pm('AA', '.5f')}"
        f"  (unavailability {result.unavailability * 100:.3f}%)"
        f"  AT = {result.average_throughput:.0f}{pm('AT', '.0f')} req/s"
        f"  P = {performability_of(result):.1f}{pm('P', '.1f')}",
    ]
    banded = [b for b in (bands or {}).values() if b.n >= 2]
    if banded:
        b = banded[0]
        lines.append(
            f"  (±: {b.confidence:.0%} Student-t CI over {b.n} "
            "complete replicate(s))"
        )
    lines.append("unavailability contributions:")
    rows = {
        c.name: c.unavailability * 100
        for c in sorted(result.contributions, key=lambda c: -c.unavailability)
        if c.unavailability > 1e-6
    }
    lines.append(bar_chart(rows, width=30, unit="%"))
    return "\n".join(lines)


def category_breakdown(result: PerformabilityResult) -> Dict[str, float]:
    """Unavailability grouped by Table-2 category (Figure 6(a) grouping)."""
    grouping = {}
    for kind in FaultKind:
        grouping[kind.value] = category_of(kind).value
    # Sensitivity extras keep their labels.
    return result.grouped_unavailability(grouping)


#: The phase-2 fault loads the campaign report and the dashboard evaluate.
DEFAULT_FAULTLOADS: Mapping[str, FaultLoad] = {
    "app faults 1/day": FaultLoad.table3(app_fault_mttf=DAY),
    "app faults 1/month": FaultLoad.table3(app_fault_mttf=MONTH),
}


def phase2_evaluation(
    campaign: Mapping[str, ProfileSet],
    replicates: Optional[Mapping[str, Iterable[ProfileSet]]] = None,
) -> Dict[str, List[tuple]]:
    """Evaluate every version against every default fault load.

    Maps each load label to ``(version, skipped, result, bands)`` rows:
    a partial campaign is evaluated against the components it measured
    (``skipped`` counts the others), and ``bands`` are the AA/AT/P CI
    bands over the version's replicates (``n < 2`` means no band).
    """
    from ..experiments.performability import _usable_load, banded_evaluation

    out: Dict[str, List[tuple]] = {}
    for label, load in DEFAULT_FAULTLOADS.items():
        out[label] = []
        for version, profiles in campaign.items():
            usable = _usable_load(load, profiles)
            reps = list((replicates or {}).get(version) or [])
            out[label].append(
                (
                    version,
                    len(load) - len(usable),
                    evaluate(profiles, usable),
                    banded_evaluation(profiles, reps, usable),
                )
            )
    return out


def campaign_report(
    campaign: Mapping[str, ProfileSet],
    replicates: Optional[Mapping[str, Iterable[ProfileSet]]] = None,
) -> str:
    """The full phase-1 + phase-2 story for a set of versions.

    ``replicates`` (optional, from ``CampaignReport.replicates``) maps a
    version to its per-replication ProfileSets; when given, the phase-2
    summaries carry Student-t CI bands on AA, AT, and P, and the §9
    crossover block (printed when the campaign holds TCP-PRESS and a VIA
    version) carries one on each VIA version's multiplier.
    """
    from ..experiments.performability import VIA_VERSIONS, crossover_bands

    sections = ["=" * 72, "PHASE 1 — measured seven-stage profiles", "=" * 72]
    for version in campaign:
        sections.append(profile_table(campaign[version]))
        sections.append("")
    sections += ["=" * 72, "PHASE 2 — modeled performability", "=" * 72]
    for label, rows in phase2_evaluation(campaign, replicates).items():
        sections.append(f"--- fault load: {label} ---")
        for version, skipped, result, bands in rows:
            if skipped:
                sections.append(
                    f"(note: {skipped} fault sources without measured"
                    f" profiles were skipped for {version})"
                )
            sections.append(result_summary(result, bands))
            sections.append("")
    if "TCP-PRESS" in campaign and any(v in campaign for v in VIA_VERSIONS):
        sections.append(
            "--- §9 crossover: VIA fault-rate multiplier vs. TCP-PRESS"
            " (paper: ~4x) ---"
        )
        try:
            bands = crossover_bands(campaign, replicates or {})
        except ValueError as exc:
            sections.append(f"  no crossover in the merged campaign: {exc}")
        else:
            sections.append(crossover_summary(bands, replicates))
        sections.append("")
    return "\n".join(sections)


def crossover_summary(
    bands: Mapping,
    replicates: Optional[Mapping[str, Iterable[ProfileSet]]] = None,
) -> str:
    """One row per VIA version of
    :func:`~repro.experiments.performability.crossover_bands`: the merged
    multiplier, ± the CI half width when at least two TCP-PRESS/VIA
    replicate pairs cross in [1, 64]x, and how many of the pairs did.
    """
    reps = {v: list(sets) for v, sets in (replicates or {}).items()}
    lines = []
    for version, band in bands.items():
        pairs = min(len(reps.get("TCP-PRESS", ())), len(reps.get(version, ())))
        pm = f" ±{band.half_width:.2f}" if band.n >= 2 else ""
        lines.append(
            f"  {version:14s} {band.value:5.2f}x{pm}"
            f"  ({band.n} of {pairs} replicate pair(s) cross in [1, 64]x)"
        )
    banded = [b for b in bands.values() if b.n >= 2]
    if banded:
        lines.append(
            f"  (±: {banded[0].confidence:.0%} Student-t CI over the"
            " crossing pairs)"
        )
    return "\n".join(lines)


def repetition_report(report) -> str:
    """Per-stream replication outcome of a ``CampaignReport``.

    One row per (version, fault) stream — reps spent, why the stream
    stopped, and the stream metric's CI at that moment — plus the
    campaign's reps-spent-vs-fixed savings line.
    """
    if not report.repetition:
        return ""
    lines = [
        f"replication ({report.policy} policy):",
        f"  {'stream':42s} {'reps':>4s}  {'reason':16s}"
        f" {'mean':>10s} {'rse':>7s} {'ci±':>9s}",
    ]
    for r in report.repetition:
        rse = "—" if r.rse != r.rse or r.rse == float("inf") else f"{r.rse:.4f}"
        lines.append(
            f"  {r.label:42s} {r.reps:4d}  {r.reason:16s}"
            f" {r.mean:10.4f} {rse:>7s} {r.ci_half_width:9.4f}"
        )
    ceiling = report.reps_ceiling
    line = (
        f"  reps spent: {report.reps_spent} of {ceiling} "
        f"(fixed-{report.reps_ceiling_per_stream} ceiling)"
    )
    if report.policy != "fixed":
        line += f" — {report.reps_saved_fraction * 100:.0f}% saved"
    lines.append(line)
    return "\n".join(lines)


def campaign_timing_report(report) -> str:
    """Where a campaign's wall-clock went (a ``CampaignReport``).

    Shows the executed/cached split, aggregate cell time vs. wall time
    — split into pure simulation (execute) and warm-checkpoint restore
    columns, with a ratio for each: ``speedup`` counts everything the
    cells spent, ``parallelism`` only the simulation work, so a
    campaign whose wall-clock went to unpickling checkpoints cannot
    masquerade as well-parallelized — and per-version / per-fault
    breakdowns of simulation cost.
    """
    total = len(report.cells)
    lines = [
        f"campaign: {total} cells "
        f"({report.executed} executed, {report.cached} from cache)"
        f" on {report.jobs} job{'s' if report.jobs != 1 else ''}",
        f"wall-clock {report.wall_clock:.2f}s,"
        f" execute {report.execute_seconds:.2f}s"
        f" + warm-restore {report.restore_seconds:.2f}s"
        f" ({report.speedup:.2f}x aggregate,"
        f" {report.parallelism:.2f}x execute-only)",
    ]
    by_version = {
        k: v for k, v in report.by_version().items() if v > 0
    }
    if by_version:
        lines.append("simulation seconds by version:")
        lines.append(bar_chart(by_version, width=30, unit="s"))
    by_fault = {k: v for k, v in report.by_fault().items() if v > 0}
    if by_fault:
        lines.append("simulation seconds by fault:")
        lines.append(bar_chart(by_fault, width=30, unit="s"))
    return "\n".join(lines)


def trace_summary_report(report) -> str:
    """Campaign-level run telemetry (a ``CampaignReport``).

    Aggregates the per-cell event counts recorded by the observability
    bus into one campaign-wide table, and surfaces store notices (e.g.
    "cache invalidated (schema v1→v2)") so silent re-runs become
    visible.
    """
    lines = []
    for notice in report.notices:
        lines.append(f"note: {notice}")
    totals = report.event_totals()
    instrumented = sum(1 for c in report.cells if c.telemetry)
    if not totals:
        if instrumented == 0 and report.cells:
            lines.append(
                "no run telemetry recorded (cells served from a"
                " pre-telemetry cache; re-run with --clear-cache to collect)"
            )
        return "\n".join(lines)
    lines.append(
        f"run telemetry: {sum(totals.values())} events across"
        f" {instrumented} cell(s)"
    )
    shown = dict(
        sorted(totals.items(), key=lambda kv: -kv[1])
    )
    lines.append(bar_chart(shown, width=30, unit=""))
    return "\n".join(lines)


_QUANTILE_COLUMNS = ("p50", "p95", "p99", "p999")


def pool_latency(cells) -> Dict[tuple, dict]:
    """Pool per-cell latency sketches into one entry per stream.

    ``cells`` carry ``version``/``fault``/``rep``/``observatory`` (the
    records of ``CampaignReport.cells``, or the dashboard's store
    cells).  Each ``(version, fault or "baseline")`` stream that served
    a request maps, in sorted order, to ``n`` (served requests),
    ``quantiles`` (per-cell P² estimates for each quantile column) and
    ``stage_p95`` (per-cell p95 of requests completing in each online
    stage), every list in replication order.
    """
    groups: Dict[tuple, list] = {}
    for c in sorted(cells, key=lambda c: (c.rep is None, c.rep or 0)):
        if c.observatory:
            groups.setdefault((c.version, c.fault or "baseline"), []).append(
                c.observatory.get("latency") or {}
            )
    out: Dict[tuple, dict] = {}
    for stream, latencies in sorted(groups.items()):
        overall = [
            o for o in (lat.get("overall") for lat in latencies)
            if o and o.get("count")
        ]
        if not overall:
            continue
        stage_p95: Dict[str, list] = {}
        for lat in latencies:
            for stage, sketch in lat.get("by_stage", {}).items():
                if sketch.get("p95") is not None:
                    stage_p95.setdefault(stage, []).append(sketch["p95"])
        out[stream] = {
            "n": sum(o["count"] for o in overall),
            "quantiles": {
                q: [o[q] for o in overall if o.get(q) is not None]
                for q in _QUANTILE_COLUMNS
            },
            "stage_p95": stage_p95,
        }
    return out


def pool_attribution(cells) -> Dict[str, dict]:
    """Sum per-cell attribution summaries into one entry per version.

    ``cells`` are as for :func:`pool_latency`.  Each version with at
    least one attributed request maps, in sorted order, to ``requests``,
    ``lost``, ``slow`` and ``mech`` (mechanism -> ``{"lost", "slow"}``,
    every known mechanism first, zeros included).
    """
    from ..obs.attribution import MECHANISMS

    out: Dict[str, dict] = {}
    for c in cells:
        att = (c.observatory or {}).get("attribution")
        if not att or not att.get("requests"):
            continue
        agg = out.setdefault(
            c.version,
            {
                "requests": 0,
                "lost": 0,
                "slow": 0,
                "mech": {m: {"lost": 0, "slow": 0} for m in MECHANISMS},
            },
        )
        agg["requests"] += att["requests"]
        agg["lost"] += att["total_lost"]
        agg["slow"] += att["total_slow"]
        for mech, row in att["mechanisms"].items():
            dst = agg["mech"].setdefault(mech, {"lost": 0, "slow": 0})
            dst["lost"] += row["lost"]
            dst["slow"] += row["slow"]
    return dict(sorted(out.items()))


def latency_band_report(report, confidence: float = 0.95) -> str:
    """Tail-latency bands per (version, fault) from cell observatories.

    One row per campaign stream: the P² quantile estimates of served
    (``ok``) request latency, averaged across replications, with
    Student-t CI half widths once at least two replications back a
    stream.  Latencies are sim-seconds.  Cells served from a
    pre-observatory cache contribute nothing; the section disappears
    entirely when no cell carries latency sketches.
    """
    from ..experiments.repeaters import ci_half_width

    rows = []
    stage_rows = []
    for (version, fault), pooled in pool_latency(report.cells).items():
        cells = []
        for q in _QUANTILE_COLUMNS:
            samples = pooled["quantiles"][q]
            if not samples:
                cells.append(f"{'—':>15s}")
                continue
            mean = sum(samples) / len(samples)
            if len(samples) >= 2:
                half = ci_half_width(samples, confidence)
                cells.append(f"{mean:8.4f}±{half:6.4f}")
            else:
                cells.append(f"{mean:8.4f}{'':>7s}")
        rows.append(
            f"  {version + '/' + fault:38s} {pooled['n']:>7d}" + "".join(cells)
        )
        # Per-stage tails: the p95 of requests completing in each online
        # stage (A-G), averaged across replications.
        stages = pooled["stage_p95"]
        if len(stages) > 1:
            parts = " ".join(
                f"{stage}:{sum(v) / len(v):.3f}"
                for stage, v in sorted(stages.items())
            )
            stage_rows.append(f"  {version + '/' + fault:38s} {parts}")
    if not rows:
        return ""
    lines = [
        "tail latency of served requests (sim-seconds; "
        f"± = {confidence:.0%} Student-t CI across replications):",
        f"  {'stream':38s} {'n':>7s}"
        + "".join(f"{q:>15s}" for q in _QUANTILE_COLUMNS),
    ]
    lines += rows
    if stage_rows:
        lines.append("per-stage p95 (stage at completion time):")
        lines += stage_rows
    return "\n".join(lines)


def attribution_report(report) -> str:
    """Per-mechanism availability-cost tables, one per version.

    Sums every cell's :class:`~repro.obs.attribution.AttributionProbe`
    summary over the campaign: how many requests each mechanism lost
    (rejects + timeouts) or slowed past the SLO, and the per-mechanism
    slice of unavailability (``cost`` = lost / all requests).  Empty when
    no cell carries an attribution summary (pre-observatory cache).
    """
    per_version = pool_attribution(report.cells)
    if not per_version:
        return ""
    lines = [
        "unavailability attribution "
        "(lost = rejects + timeouts; slow = served above SLO):"
    ]
    for version, agg in per_version.items():
        n = agg["requests"]
        lines.append(
            f"  {version}: {n} requests, {agg['lost']} lost "
            f"({agg['lost'] / n * 100:.3f}% unavailable), "
            f"{agg['slow']} slow"
        )
        lines.append(
            f"    {'mechanism':22s} {'lost':>8s} {'slow':>8s}"
            f" {'charged':>8s} {'cost':>8s}"
        )
        for mech, row in agg["mech"].items():
            charged = row["lost"] + row["slow"]
            if not charged:
                continue
            lines.append(
                f"    {mech:22s} {row['lost']:8d} {row['slow']:8d}"
                f" {charged:8d} {row['lost'] / n * 100:7.3f}%"
            )
    return "\n".join(lines)


def timeline_report(record, bucket: float = 10.0) -> str:
    """Render one phase-1 record: plot + annotated instants."""
    tl = record.timeline
    markers = {record.injected_at: "F", record.cleared_at: "R"}
    if record.detection_at is not None:
        markers[record.detection_at] = "D"
    if record.reset_at is not None:
        markers[record.reset_at] = "O"
    lines = [
        f"{record.version} / {record.fault}"
        f"  (Tn = {record.normal_throughput:.0f} req/s)",
        timeline_plot(tl.series, bucket=bucket, markers=markers),
        "F=fault R=component-recovered D=detected O=operator-reset",
        f"availability over the run: {tl.availability:.4f}",
    ]
    return "\n".join(lines)
