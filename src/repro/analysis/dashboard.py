"""Self-contained HTML dashboard over a persisted campaign store.

``python -m repro dashboard <cache-dir>`` walks every cached cell and
renders one HTML file an operator can open from a laptop, a CI artifact
tab, or a 2003-era NOC workstation: zero external scripts, stylesheets,
fonts, or network fetches — charts are inline SVG built by
:mod:`repro.analysis.charts`.

Sections:

* **overview** — cell inventory and versions/faults covered;
* **performability** — phase-2 availability / average-throughput /
  performability tables rebuilt from the stored per-cell profiles
  (the campaign runner's own merge and the CLI report's evaluation);
* **fault matrix** — versions × faults availability grid (the TCP-vs-VIA
  comparison at a glance);
* **timelines** — per (version, fault) throughput timelines banded with
  the *online* stage classification from the observatory;
* **divergence** — online detector vs. ground-truth fit, per cell;
* **health** — SLO watchdog episodes and time-in-violation;
* **tail latency** — P² quantile bands (p50/p95/p99/p999) of served
  requests per (version, fault), from the per-cell latency sketches;
* **attribution** — the per-mechanism availability-cost table: which
  mechanism (fail-fast, retransmit stall, reconfiguration window, cache
  warmup, operator reset) each lost or SLO-slow request is charged to;
* **performance** — the wall-clock layer profiler's view of the
  *simulator* (``--profile`` campaigns only): per-layer calls and self
  time, fabric frame paths and heap churn from the campaign's
  ``BENCH_campaign.json`` ledger.
"""

from __future__ import annotations

from html import escape
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.metric import performability_of
from .charts import STAGE_COLORS, svg_timeline
from .report import phase2_evaluation, pool_attribution, pool_latency

_CSS = """
body { font-family: sans-serif; margin: 1.5em auto; max-width: 72em;
       color: #222; }
h1 { border-bottom: 2px solid #1565c0; padding-bottom: 0.2em; }
h2 { margin-top: 1.6em; border-bottom: 1px solid #ccc; }
table { border-collapse: collapse; margin: 0.8em 0; }
th, td { border: 1px solid #bbb; padding: 0.25em 0.6em; text-align: right; }
th { background: #eef2f8; }
td.label, th.label { text-align: left; }
.cellnote { color: #666; font-size: 85%; }
.warn { color: #b71c1c; }
.legend span { display: inline-block; padding: 0 0.5em; margin-right: 0.3em;
               border: 1px solid #aaa; }
figure { margin: 0.6em 0 1.4em 0; }
figcaption { font-size: 90%; color: #444; margin-bottom: 0.2em; }
"""


class _Cell:
    """One deduplicated store cell (newest schema generation wins)."""

    def __init__(self, key: dict, payload: dict):
        self.version = str(key.get("version"))
        self.fault: Optional[str] = key.get("fault")
        self.seed = key.get("seed")
        self.schema = int(key.get("schema", 0))
        #: replication index (schema v5 key records; None on older rows)
        self.rep: Optional[int] = key.get("rep")
        self.payload = payload

    @property
    def observatory(self) -> dict:
        return self.payload.get("observatory") or {}

    @property
    def timeline(self) -> dict:
        return self.payload.get("timeline") or {}

    @property
    def divergence(self) -> dict:
        return self.payload.get("divergence") or {}


def _collect(cells: Iterable[Tuple[dict, dict]]) -> Tuple[List[_Cell], int]:
    """Deduplicate raw store rows; returns (cells, stale_skipped).

    Each (version, fault, seed) identity keeps its newest-schema cell,
    and identities absent from the newest generation count as stale.
    Two newest-generation cells with one identity can only come from
    campaigns under different settings (the seed ignores scale and
    utilization), so that raises :class:`ValueError` instead of mixing
    two experiments.
    """
    by_ident: Dict[tuple, List[_Cell]] = {}
    for key, payload in cells:
        cell = _Cell(key, payload)
        by_ident.setdefault((cell.version, cell.fault, cell.seed), []).append(
            cell
        )
    newest = max(
        (c.schema for group in by_ident.values() for c in group), default=0
    )
    kept: List[_Cell] = []
    colliding = 0
    for group in by_ident.values():
        current = [c for c in group if c.schema == newest]
        if len(current) > 1:
            colliding += len(current)
        kept += current[:1]
    if colliding:
        raise ValueError(
            f"{colliding} cell(s) of schema v{newest} share a (version, "
            "fault, seed) identity: the store mixes campaigns run under "
            "different settings (e.g. --scale); give each its own cache dir"
        )
    kept.sort(key=lambda c: (c.version, c.fault or "", str(c.seed)))
    return kept, len(by_ident) - len(kept)


def _fmt(x, digits: int = 3) -> str:
    if x is None:
        return "—"
    if isinstance(x, float):
        return f"{x:.{digits}f}"
    return str(x)


def _merge(cells: List[_Cell]):
    """The runner's phase-1 merge over the store's cells."""
    from ..experiments.runner import merge_profiles

    return merge_profiles((c.version, c.fault, c.rep, c.payload) for c in cells)


def _performability_section(cells: List[_Cell]) -> List[str]:
    sets, replicates = _merge(cells)
    if not sets:
        return ["<p class='cellnote'>no complete version in the store "
                "(need a baseline and at least one fault profile)</p>"]
    out: List[str] = []
    banded_any = False
    for label, rows in phase2_evaluation(sets, replicates).items():
        out.append(f"<h3>fault load: {escape(label)}</h3>")
        out.append(
            "<table><tr><th class='label'>version</th><th>AA</th>"
            "<th>unavailability %</th><th>AT req/s</th>"
            "<th>performability</th><th>skipped sources</th></tr>"
        )
        for version, skipped, r, bands in rows:

            def pm(metric: str, fmt: str) -> str:
                band = bands[metric]
                if band.n < 2:
                    return ""
                return f" ±{band.half_width:{fmt}}"

            if any(b.n >= 2 for b in bands.values()):
                banded_any = True
            out.append(
                f"<tr><td class='label'>{escape(version)}</td>"
                f"<td>{r.availability:.5f}{pm('AA', '.5f')}</td>"
                f"<td>{r.unavailability * 100:.3f}</td>"
                f"<td>{r.average_throughput:.0f}{pm('AT', '.0f')}</td>"
                f"<td>{performability_of(r):.1f}{pm('P', '.1f')}</td>"
                f"<td>{skipped}</td></tr>"
            )
        out.append("</table>")
    if banded_any:
        n = max(len(v) for v in replicates.values())
        out.append(
            "<p class='cellnote'>± figures are 95% Student-t CI half "
            f"widths over up to {n} complete replicate(s).</p>"
        )
    return out


def _replication_section(summaries: Iterable[Tuple[dict, dict]]) -> List[str]:
    """Per-stream repetition outcome from the store's summary namespace."""
    rows: List[str] = []
    totals: Dict[tuple, List[int]] = {}
    ordered = sorted(
        summaries,
        key=lambda kp: (
            str(kp[0].get("version")),
            str(kp[0].get("fault") or ""),
        ),
    )
    for key, payload in ordered:
        policy = tuple(key.get("policy") or ())
        rule = str(policy[0]) if policy else "?"
        max_reps = int(policy[2]) if len(policy) > 2 else 0
        reps = int(payload.get("reps", 0))
        t = totals.setdefault(policy, [0, 0])
        t[0] += reps
        t[1] += max_reps
        rows.append(
            f"<tr><td class='label'>{escape(str(key.get('version')))}</td>"
            f"<td class='label'>{escape(key.get('fault') or 'baseline')}</td>"
            f"<td class='label'>{escape(rule)}</td>"
            f"<td>{reps}</td>"
            f"<td class='label'>{escape(str(payload.get('reason', '')))}</td>"
            f"<td>{_fmt(payload.get('mean'), 4)}</td>"
            f"<td>{_fmt(payload.get('ci_half_width'), 4)}</td></tr>"
        )
    if not rows:
        return [
            "<p class='cellnote'>no repetition summaries stored (pre-v5 "
            "store, or the campaign has not been re-run since the "
            "adaptive-replication bump)</p>"
        ]
    out = [
        "<p>how many replications each (version, fault) stream spent, "
        "and why it stopped.</p>",
        "<table><tr><th class='label'>version</th>"
        "<th class='label'>stream</th><th class='label'>policy</th>"
        "<th>reps</th><th class='label'>stopped</th>"
        "<th>mean</th><th>ci ±</th></tr>",
        *rows,
        "</table>",
    ]
    for policy, (spent, ceiling) in sorted(totals.items(), key=str):
        if not ceiling:
            continue
        saved = 100.0 * (1.0 - spent / ceiling)
        max_reps = int(policy[2]) if len(policy) > 2 else 0
        out.append(
            f"<p>policy <b>{escape(str(policy[0]) if policy else '?')}</b>: "
            f"{spent} reps spent vs {ceiling} at fixed-{max_reps} "
            f"({saved:.0f}% saved)</p>"
        )
    return out


def _fault_matrix_section(cells: List[_Cell]) -> List[str]:
    versions = sorted({c.version for c in cells})
    faults = sorted({c.fault for c in cells if c.fault is not None})
    if not faults:
        return ["<p class='cellnote'>no fault cells in the store</p>"]
    by: Dict[tuple, List[_Cell]] = {}
    for c in cells:
        if c.fault is not None:
            by.setdefault((c.version, c.fault), []).append(c)
    out = [
        "<p>run availability (mean over replications), with the online "
        "detector's final stage in parentheses.</p>",
        "<table><tr><th class='label'>fault</th>"
        + "".join(f"<th>{escape(v)}</th>" for v in versions)
        + "</tr>",
    ]
    for fault in faults:
        row = [f"<tr><td class='label'>{escape(fault)}</td>"]
        for version in versions:
            group = by.get((version, fault))
            if not group:
                row.append("<td>—</td>")
                continue
            avails = [
                c.timeline.get("availability")
                for c in group
                if c.timeline.get("availability") is not None
            ]
            finals = {
                (c.observatory.get("stages") or {}).get("final_stage", "?")
                for c in group
            }
            avail = (
                f"{sum(avails) / len(avails):.4f}" if avails else "n/a"
            )
            row.append(
                f"<td>{avail} ({escape('/'.join(sorted(finals)))})</td>"
            )
        row.append("</tr>")
        out.append("".join(row))
    out.append("</table>")
    return out


def _stage_legend() -> str:
    spans = [
        f"<span style='background:{color}'>{escape(stage)}</span>"
        for stage, color in STAGE_COLORS.items()
        if color != "none"
    ]
    return "<p class='legend'>stage bands: " + "".join(spans) + "</p>"


def _timeline_section(cells: List[_Cell]) -> List[str]:
    out = [_stage_legend()]
    seen: set = set()
    for c in cells:
        ident = (c.version, c.fault)
        if ident in seen or not c.timeline.get("series"):
            continue
        seen.add(ident)
        stages = (c.observatory.get("stages") or {}).get("intervals") or []
        boundaries = (c.divergence.get("boundaries") or {})
        markers = {
            label[:3]: entry.get("online")
            for label, entry in boundaries.items()
            if entry.get("online") is not None
        }
        label = f"{c.version} / {c.fault or 'baseline'}"
        svg = svg_timeline(
            c.timeline["series"],
            tn=float(c.timeline.get("tn") or 0.0),
            stages=stages,
            markers=markers,
            bucket_width=float(c.timeline.get("bucket_width") or 1.0),
        )
        out.append(
            f"<figure><figcaption>{escape(label)} — availability "
            f"{_fmt(c.timeline.get('availability'), 4)}</figcaption>"
            f"{svg}</figure>"
        )
    if len(out) == 1:
        out.append(
            "<p class='cellnote'>no timelines stored (cells predate "
            "schema v3; re-run the campaign to collect them)</p>"
        )
    return out


def _divergence_section(cells: List[_Cell]) -> List[str]:
    rows = []
    for c in cells:
        div = c.divergence
        if not div:
            continue
        missing = div.get("online_missing") or []
        extra = div.get("online_extra") or []
        rows.append(
            f"<tr><td class='label'>{escape(c.version)}</td>"
            f"<td class='label'>{escape(c.fault or '')}</td>"
            f"<td>{_fmt(div.get('max_boundary_error'), 2)}</td>"
            f"<td>{_fmt(div.get('misclassified_s'), 1)}</td>"
            f"<td>{_fmt(100 * (div.get('misclassified_frac') or 0.0), 1)}</td>"
            f"<td class='label'>{escape(', '.join(missing)) or '—'}</td>"
            f"<td class='label'>{escape(', '.join(extra)) or '—'}</td></tr>"
        )
    if not rows:
        return ["<p class='cellnote'>no divergence reports stored</p>"]
    return [
        "<p>online stage detector vs. the ground-truth fit, per fault "
        "cell.  Boundary error is the worst absolute disagreement on a "
        "boundary both sides observed (seconds); hindsight-only "
        "boundaries are reported but not observable online.</p>",
        "<table><tr><th class='label'>version</th>"
        "<th class='label'>fault</th><th>max boundary err (s)</th>"
        "<th>misclassified (s)</th><th>misclassified (%)</th>"
        "<th class='label'>missing online</th>"
        "<th class='label'>extra online</th></tr>",
        *rows,
        "</table>",
    ]


def _health_section(cells: List[_Cell]) -> List[str]:
    slo = None
    rows = []
    for c in cells:
        health = c.observatory.get("health")
        if not health:
            continue
        slo = slo or health.get("slo")
        open_flag = any(e.get("open") for e in health.get("episodes", []))
        rows.append(
            f"<tr><td class='label'>{escape(c.version)}</td>"
            f"<td class='label'>{escape(c.fault or 'baseline')}</td>"
            f"<td>{health.get('violations', 0)}</td>"
            f"<td>{_fmt(health.get('time_in_violation'), 1)}</td>"
            f"<td>{_fmt(health.get('min_throughput'), 1)}</td>"
            f"<td>{_fmt(health.get('min_availability'), 3)}</td>"
            f"<td class='label'>{'yes' if open_flag else ''}</td></tr>"
        )
    if not rows:
        return ["<p class='cellnote'>no health telemetry stored</p>"]
    out = []
    if slo:
        out.append(
            "<p>SLO: throughput ≥ "
            f"{_fmt(100 * slo.get('throughput_floor', 0), 0)}% of "
            "calibrated Tn, availability ≥ "
            f"{_fmt(100 * slo.get('availability_floor', 0), 0)}%, over a "
            f"{_fmt(slo.get('window'), 0)}s rolling window "
            f"({_fmt(slo.get('calibration'), 0)}s calibration).</p>"
        )
    out += [
        "<table><tr><th class='label'>version</th>"
        "<th class='label'>fault</th><th>violations</th>"
        "<th>time in violation (s)</th><th>min throughput</th>"
        "<th>min availability</th><th class='label'>open at end</th></tr>",
        *rows,
        "</table>",
    ]
    return out


def _latency_section(cells: List[_Cell]) -> List[str]:
    pooled = pool_latency(cells)
    if not pooled:
        return [
            "<p class='cellnote'>no latency sketches stored (cells "
            "predate schema v6; re-run the campaign to collect them)</p>"
        ]
    out = [
        "<p>streaming P² quantile estimates of served-request latency "
        "(sim-seconds), averaged over replications.  Lost requests "
        "(rejects, timeouts) never enter these sketches — they are "
        "counted in the attribution table below.</p>",
        "<table><tr><th class='label'>version</th>"
        "<th class='label'>fault</th><th>n</th>"
        "<th>p50</th><th>p95</th><th>p99</th><th>p999</th></tr>",
    ]
    for (version, fault), stream in pooled.items():
        quantiles = [
            _fmt(sum(samples) / len(samples), 3) if samples else "—"
            for samples in stream["quantiles"].values()
        ]
        out.append(
            f"<tr><td class='label'>{escape(version)}</td>"
            f"<td class='label'>{escape(fault)}</td><td>{stream['n']}</td>"
            + "".join(f"<td>{v}</td>" for v in quantiles)
            + "</tr>"
        )
    out.append("</table>")
    return out


def _attribution_section(cells: List[_Cell]) -> List[str]:
    per_version = pool_attribution(cells)
    if not per_version:
        return [
            "<p class='cellnote'>no attribution summaries stored (cells "
            "predate schema v6; re-run the campaign to collect them)</p>"
        ]
    out = [
        "<p>every lost request (reject or timeout) and every served "
        "request slower than the SLO, charged to the mechanism that "
        "plausibly caused it.  <b>cost</b> is the mechanism's slice of "
        "unavailability (lost / all requests), summed over every cell "
        "of the version.</p>"
    ]
    for version, agg in per_version.items():
        n = agg["requests"]
        out.append(
            f"<h3>{escape(version)} — {n} requests, {agg['lost']} lost "
            f"({100.0 * agg['lost'] / n:.3f}% unavailable), "
            f"{agg['slow']} slow</h3>"
        )
        out.append(
            "<table><tr><th class='label'>mechanism</th><th>lost</th>"
            "<th>slow</th><th>charged</th><th>cost %</th></tr>"
        )
        for mech, row in agg["mech"].items():
            charged = row["lost"] + row["slow"]
            if not charged:
                continue
            out.append(
                f"<tr><td class='label'>{escape(mech)}</td>"
                f"<td>{row['lost']}</td><td>{row['slow']}</td>"
                f"<td>{charged}</td>"
                f"<td>{100.0 * row['lost'] / n:.3f}</td></tr>"
            )
        out.append("</table>")
    return out


def _performance_section(ledger: Optional[dict]) -> List[str]:
    """Layer-profiler rollup (``--profile`` campaigns only)."""
    from .perf import ledger_view

    if not ledger:
        return [
            "<p class='cellnote'>no profiler data stored (run the "
            "campaign with --profile to collect wall-clock profiles)</p>"
        ]
    timing = ledger.get("timing") or {}
    out = [
        f"<p>wall-clock {_fmt(ledger.get('wall_clock_s'), 2)}s on "
        f"{ledger.get('jobs', '?')} job(s): execute "
        f"{_fmt(timing.get('execute_s'), 2)}s, warm-restore "
        f"{_fmt(timing.get('restore_s'), 2)}s "
        f"(speedup {_fmt(timing.get('speedup'), 2)}x, parallelism "
        f"{_fmt(timing.get('parallelism'), 2)}x).</p>"
    ]
    agg = ledger_view(ledger)
    if agg["layers"]:
        total_s = agg["totals"]["self_s"]
        out.append(
            "<table><tr><th class='label'>layer</th><th>calls</th>"
            "<th>self time (s)</th><th>share %</th></tr>"
        )
        ordered = sorted(
            agg["layers"].items(), key=lambda kv: (-kv[1]["self_s"], kv[0])
        )
        for layer, stats in ordered:
            self_s = stats["self_s"]
            share = f"{100.0 * self_s / total_s:.1f}" if total_s else "—"
            out.append(
                f"<tr><td class='label'>{escape(layer)}</td>"
                f"<td>{stats['calls']}</td>"
                f"<td>{self_s:.4f}</td><td>{share}</td></tr>"
            )
        out.append("</table>")
    fast = agg["fabric"]["fast_frames"]
    ref = agg["fabric"]["reference_frames"]
    if fast or ref:
        out.append(
            f"<p>fabric fastpath: {fast} frames, {ref} reference-path "
            f"frames (fastpath share {100.0 * fast / (fast + ref):.1f}%).</p>"
        )
    eng = agg["engine"]
    if any(eng.values()):
        out.append(
            f"<p>engine: {eng['events_processed']} events "
            f"processed, {eng['timer_allocs']} timer allocations, "
            f"{eng['freelist_reuse']} freelist reuses, "
            f"{eng['compactions']} heap compaction(s).</p>"
        )
    if agg["cells"]:
        out.append(
            "<table><tr><th class='label'>cell</th><th>execute (s)</th>"
            "<th>restore (s)</th><th>serialize (s)</th>"
            "<th>snapshot (s)</th><th>events</th></tr>"
        )
        # The aggregate keeps cells label-sorted (byte-stable ledgers);
        # the panel shows the expensive ones first.
        by_cost = sorted(
            agg["cells"],
            key=lambda c: (-float(c.get("execute_s") or 0.0),
                           str(c.get("cell"))),
        )
        for c in by_cost[:15]:
            out.append(
                f"<tr><td class='label'>{escape(str(c.get('cell')))}</td>"
                f"<td>{_fmt(c.get('execute_s'), 3)}</td>"
                f"<td>{_fmt(c.get('restore_s'), 3)}</td>"
                f"<td>{_fmt(c.get('serialize_s'), 3)}</td>"
                f"<td>{_fmt(c.get('snapshot_s'), 3)}</td>"
                f"<td>{int(c.get('events') or 0)}</td></tr>"
            )
        out.append("</table>")
    return out


def render_dashboard(
    cells: Iterable[Tuple[dict, dict]],
    title: str = "PRESS performability campaign",
    source: str = "",
    summaries: Iterable[Tuple[dict, dict]] = (),
    ledger: Optional[dict] = None,
) -> str:
    """Render the raw ``(key, payload)`` rows into one HTML document."""
    kept, stale = _collect(cells)
    versions = sorted({c.version for c in kept})
    faults = sorted({c.fault for c in kept if c.fault is not None})
    baselines = sum(1 for c in kept if c.fault is None)
    sub_errors = sum(
        (c.payload.get("telemetry") or {}).get("subscriber_errors", 0)
        for c in kept
    )
    body: List[str] = [
        f"<h1>{escape(title)}</h1>",
        "<h2>overview</h2>",
        "<table>"
        f"<tr><th class='label'>store</th><td class='label'>{escape(source)}</td></tr>"
        f"<tr><th class='label'>cells</th><td class='label'>{len(kept)} "
        f"({baselines} baselines, {len(kept) - baselines} fault runs)</td></tr>"
        f"<tr><th class='label'>versions</th>"
        f"<td class='label'>{escape(', '.join(versions)) or '—'}</td></tr>"
        f"<tr><th class='label'>faults</th>"
        f"<td class='label'>{escape(', '.join(faults)) or '—'}</td></tr>"
        "</table>",
    ]
    if stale:
        body.append(
            f"<p class='warn'>{stale} cell(s) from older store schema "
            "generations were ignored.</p>"
        )
    if sub_errors:
        body.append(
            f"<p class='warn'>warning: {sub_errors} bus subscriber "
            "error(s) recorded — observers saw a partial event "
            "stream.</p>"
        )
    body += ["<h2>performability</h2>", *_performability_section(kept)]
    body += ["<h2>replication</h2>", *_replication_section(summaries)]
    body += ["<h2>fault matrix</h2>", *_fault_matrix_section(kept)]
    body += ["<h2>timelines</h2>", *_timeline_section(kept)]
    body += ["<h2>detector divergence</h2>", *_divergence_section(kept)]
    body += ["<h2>run health</h2>", *_health_section(kept)]
    body += ["<h2>tail latency</h2>", *_latency_section(kept)]
    body += [
        "<h2>unavailability attribution</h2>",
        *_attribution_section(kept),
    ]
    body += [
        "<h2>performance (layer profiler)</h2>",
        *_performance_section(ledger),
    ]
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        f"<title>{escape(title)}</title><style>{_CSS}</style></head>"
        "<body>" + "".join(body) + "</body></html>"
    )


def dashboard_from_store(cache_dir, out_path=None) -> Path:
    """Render ``cache_dir`` (a campaign DiskStore) to one HTML file.

    Returns the path written (default: ``dashboard.html`` inside the
    store directory).  Raises :class:`ValueError` when the directory
    holds no readable cells.
    """
    from ..experiments.store import DiskStore
    from .perf import load_ledger

    cache_dir = Path(cache_dir)
    if not cache_dir.is_dir():
        raise ValueError(f"{cache_dir}: not a directory")
    store = DiskStore(cache_dir)
    rows = list(store.iter_cells())
    if not rows:
        raise ValueError(f"{cache_dir}: no campaign cells found")
    html_text = render_dashboard(
        rows,
        source=str(cache_dir),
        summaries=list(store.iter_summaries()),
        ledger=load_ledger(cache_dir),
    )
    out = Path(out_path) if out_path else cache_dir / "dashboard.html"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(html_text, encoding="utf-8")
    return out
