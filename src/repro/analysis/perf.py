"""Campaign perf ledger + the ``perf-report`` / ``perf-compare`` views.

The layer profiler (:mod:`repro.obs.profiler`) gives every executed
cell of a ``--profile`` campaign a perf record: the wall-clock breakdown
(execute / warm-restore / serialize / snapshot) plus the profile digest
(per-layer calls and self time, the costliest sites, fabric frame
counts, engine heap churn).  The runner collects them on
``report.perf`` and rolls them into one ``BENCH_campaign.json``
**ledger** in the cache dir, joined with the report's wall-clock,
warm-start traffic and replication budget.  The ledger is the only
record a profiled campaign leaves behind.

This module builds the ledger (:func:`campaign_ledger`), renders the
human view over a cache dir (:func:`perf_report_from_store` → the
``python -m repro perf-report`` command), and diffs two cache dirs
(:func:`perf_compare` → ``perf-compare``).  Everything here reads
wall-clock data only; nothing feeds back into cache keys or payloads.

Older ledgers still render: :func:`ledger_view` reads the ten cells a
v1/v2 ledger kept, and :func:`profile_view` reads a v1 (root-callback
recorder) ledger's per-layer and per-site ``events`` as calls and its
fabric counters as frame counts.  A ``perf/`` directory that older
versions wrote beside the cells is ignored.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

#: File name of the consolidated ledger inside a campaign cache dir.
LEDGER_NAME = "BENCH_campaign.json"

#: Schema tag of the ledger payload (bump on incompatible layout).
#:   v1 — root-callback recorder: per-layer ``events``, named counters.
#:   v2 — layer profiler: per-layer ``calls``, ``sites``, ``fabric``
#:        frame counts and the profiled ``window_s``.
#:   v3 — the ledger is the only profiler record: ``cell_rows`` lists
#:        every profiled cell's breakdown (v1/v2 kept the ten costliest
#:        under ``top_cells``, beside per-cell records in ``perf/``).
LEDGER_VERSION = 3

#: Sites kept per record, per ledger, and shown by ``perf-report``.
TOP_SITES = 20

_ENGINE_KEYS = (
    "events_processed", "scheduled", "timer_allocs", "freelist_reuse",
    "compactions",
)

#: A cell's wall-clock columns, summed into the campaign totals.
_TIMES = ("execute_s", "restore_s", "serialize_s", "snapshot_s")


# ----------------------------------------------------------------------
# Aggregation over per-cell perf records
# ----------------------------------------------------------------------


def _cell_label(row: dict) -> str:
    version = row.get("version", "?")
    fault = row.get("fault") or "baseline"
    rep = row.get("rep")
    label = f"{version}/{fault}"
    if rep is not None:
        label += f"#r{rep}"
    return label


def _calls(stats: dict) -> int:
    """A layer's or site's call count; v1 records called them events."""
    return int(stats.get("calls", stats.get("events")) or 0)


def profile_view(profile) -> dict:
    """One record's (or ledger's) profile digest in the current layout.

    Missing keys degrade to zero; a v1 digest's fabric counters become
    frame counts (train frames took the fast path; slow-path sends are
    the reference path).
    """
    profile = profile if isinstance(profile, dict) else {}
    counters = profile.get("counters") or {}
    fabric = profile.get("fabric") or {
        "fast_frames": sum(
            int(counters.get(f"fabric.{name}") or 0)
            for name in ("fast_cached", "fast_checked", "fast_train")
        ),
        "reference_frames": counters.get("fabric.slow"),
    }
    eng = profile.get("engine") or {}
    layers = profile.get("layers") or {}
    return {
        "events": int(profile.get("events") or 0),
        "calls": int(profile.get("calls") or 0)
        or sum(_calls(stats) for stats in layers.values()),
        "self_s": float(profile.get("self_s") or 0.0),
        "window_s": float(profile.get("window_s") or 0.0),
        "layers": {
            layer: {
                "calls": _calls(stats),
                "self_s": float(stats.get("self_s") or 0.0),
            }
            for layer, stats in layers.items()
        },
        "sites": [
            {
                "site": str(site.get("site")),
                "layer": site.get("layer"),
                "calls": _calls(site),
                "self_s": float(site.get("self_s") or 0.0),
            }
            for site in profile.get("sites") or []
            if isinstance(site, dict)
        ],
        "fabric": {
            "fast_frames": int(fabric.get("fast_frames") or 0),
            "reference_frames": int(fabric.get("reference_frames") or 0),
        },
        "engine": {key: int(eng.get(key) or 0) for key in _ENGINE_KEYS},
    }


def aggregate_perf(rows: Iterable[dict]) -> dict:
    """Campaign-wide rollup of per-cell perf records.

    ``rows`` are the dicts the runner appends to ``report.perf``.
    Missing keys degrade to zero — a stale or partial record never
    raises.  Sites are summed across cells by name.
    """
    profiled = {"events": 0, "calls": 0, "self_s": 0.0, "window_s": 0.0}
    layers: Dict[str, Dict[str, float]] = {}
    sites: Dict[str, dict] = {}
    fabric = {"fast_frames": 0, "reference_frames": 0}
    engine = dict.fromkeys(_ENGINE_KEYS, 0)
    cells: List[dict] = []
    for row in rows:
        if not isinstance(row, dict):
            continue
        profile = profile_view(row.get("profile"))
        for key in profiled:
            profiled[key] += profile[key]
        for layer, stats in profile["layers"].items():
            dst = layers.setdefault(layer, {"calls": 0, "self_s": 0.0})
            dst["calls"] += stats["calls"]
            dst["self_s"] += stats["self_s"]
        for site in profile["sites"]:
            dst = sites.setdefault(
                site["site"],
                {"site": site["site"], "layer": site["layer"], "calls": 0,
                 "self_s": 0.0},
            )
            dst["calls"] += site["calls"]
            dst["self_s"] += site["self_s"]
        for group, acc in (("fabric", fabric), ("engine", engine)):
            for key, n in profile[group].items():
                acc[key] += n
        cells.append(
            {
                "cell": _cell_label(row),
                **{key: float(row.get(key) or 0.0) for key in _TIMES},
                "events": profile["events"],
                "warm_status": row.get("warm_status"),
            }
        )
    # Stable label order (not wall-clock order) so the aggregate — and
    # the ledger rows built from it — byte-diffs cleanly across runs
    # with identical structure; display views re-sort by cost locally.
    cells.sort(key=lambda c: c["cell"])
    return {
        "totals": {"cells": len(cells), **_time_totals(cells), **profiled},
        "layers": {k: layers[k] for k in sorted(layers)},
        "sites": sorted(
            sites.values(), key=lambda r: (-r["self_s"], r["site"])
        )[:TOP_SITES],
        "fabric": fabric,
        "engine": engine,
        "cells": cells,
    }


def _time_totals(cells: List[dict]) -> Dict[str, float]:
    """The cells' wall-clock columns summed in list order, so a ledger's
    ``cell_rows`` sum to exactly the totals :func:`aggregate_perf` gave."""
    return {
        key: sum((float(c.get(key) or 0.0) for c in cells), 0.0)
        for key in _TIMES
    }


def ledger_view(ledger: Optional[dict]) -> dict:
    """The aggregate every reader renders, rebuilt from a ledger in
    :func:`aggregate_perf`'s layout.

    A v3 ledger lists every profiled cell under ``cell_rows``.  A v1/v2
    ledger kept only the ten costliest under ``top_cells``, so its
    wall-clock totals come from the campaign ``timing`` section.
    """
    ledger = ledger if isinstance(ledger, dict) else {}
    profile = profile_view(ledger.get("profile"))
    legacy = "cell_rows" not in ledger
    rows = ledger.get("top_cells" if legacy else "cell_rows")
    cells = [c for c in rows or [] if isinstance(c, dict)]
    if legacy:
        timing = ledger.get("timing") or {}
        times = {key: float(timing.get(key) or 0.0) for key in _TIMES}
    else:
        times = _time_totals(cells)
    counts = ledger.get("cells") or {}
    return {
        "totals": {
            "cells": int(counts.get("profiled") or 0) or len(cells),
            **times,
            **{k: profile[k] for k in ("events", "calls", "self_s", "window_s")},
        },
        "layers": profile["layers"],
        "sites": profile["sites"],
        "fabric": profile["fabric"],
        "engine": profile["engine"],
        "cells": cells,
    }


# ----------------------------------------------------------------------
# The consolidated ledger (BENCH_campaign.json)
# ----------------------------------------------------------------------


def campaign_ledger(report, settings=None) -> dict:
    """JSON-ready campaign perf ledger from a ``CampaignReport``.

    Joins the per-cell profiler records with the report's
    campaign-level accounting (wall clock, cache hits, warm-start
    traffic, replication budget).  Written to :data:`LEDGER_NAME` by a
    profiled campaign; read back by ``perf-report``, ``perf-compare``
    and the dashboard through :func:`ledger_view`.
    """
    agg = aggregate_perf(report.perf)
    ledger = {
        "kind": "campaign-perf-ledger",
        "ledger_version": LEDGER_VERSION,
        "jobs": report.jobs,
        "wall_clock_s": report.wall_clock,
        "cells": {
            "total": len(report.cells),
            "executed": report.executed,
            "cached": report.cached,
            "profiled": agg["totals"]["cells"],
        },
        "timing": {
            "cell_s": report.cell_seconds,
            "execute_s": report.execute_seconds,
            "restore_s": report.restore_seconds,
            "serialize_s": agg["totals"]["serialize_s"],
            "snapshot_s": agg["totals"]["snapshot_s"],
            "speedup": report.speedup,
            "parallelism": report.parallelism,
        },
        "warm_start": dict(report.warm_start),
        "replication": {
            "policy": report.policy,
            "reps_spent": report.reps_spent,
            "reps_ceiling": report.reps_ceiling,
            "saved_fraction": report.reps_saved_fraction,
        },
        "profile": {
            "events": agg["totals"]["events"],
            "calls": agg["totals"]["calls"],
            "self_s": agg["totals"]["self_s"],
            "window_s": agg["totals"]["window_s"],
            "layers": agg["layers"],
            "sites": agg["sites"],
            "fabric": agg["fabric"],
            "engine": agg["engine"],
        },
        # Every profiled cell, label-sorted (see aggregate_perf).
        "cell_rows": agg["cells"],
    }
    if settings is not None:
        ledger["settings"] = {
            "scale": getattr(
                getattr(settings, "scale", None), "cpu_factor", None
            ),
            "seed": getattr(settings, "seed", None),
            "n_nodes": getattr(settings, "n_nodes", None),
            "fastpath": getattr(settings, "fastpath", None),
            "replications": getattr(settings, "replications", None),
        }
    return ledger


def load_ledger(cache_dir) -> Optional[dict]:
    """The cache dir's ``BENCH_campaign.json``, or None when absent/bad."""
    path = Path(cache_dir) / LEDGER_NAME
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


# ----------------------------------------------------------------------
# perf-report rendering
# ----------------------------------------------------------------------


def _pct(part: float, whole: float) -> str:
    if whole <= 0:
        return "    —"
    return f"{100.0 * part / whole:4.0f}%"


def _layer_lines(layers: Dict[str, dict], total_s: float) -> List[str]:
    lines = [f"  {'layer':12s} {'calls':>10s} {'self_s':>10s} {'share':>6s}"]
    ordered = sorted(layers.items(), key=lambda kv: (-kv[1]["self_s"], kv[0]))
    for layer, stats in ordered:
        lines.append(
            f"  {layer:12s} {stats['calls']:10d} {stats['self_s']:10.4f}"
            f" {_pct(stats['self_s'], total_s):>6s}"
        )
    return lines


def _site_lines(sites: List[dict], top: int = 10) -> List[str]:
    lines = [f"  {'site':58s} {'calls':>9s} {'self_s':>9s}"]
    for site in sites[:top]:
        lines.append(
            f"  {site['site']:58s} {site['calls']:9d} {site['self_s']:9.4f}"
        )
    return lines


def _fabric_line(fabric: Dict[str, int]) -> List[str]:
    fast = fabric["fast_frames"]
    ref = fabric["reference_frames"]
    if not (fast or ref):
        return []
    return [
        f"fabric fastpath: {fast} frames, {ref} reference-path frames "
        f"(fastpath share {_pct(fast, fast + ref).strip()})"
    ]


def _cell_lines(cells: List[dict], top: int = 15) -> List[str]:
    lines = [
        f"  {'cell':38s} {'execute':>9s} {'restore':>9s}"
        f" {'serialize':>9s} {'snapshot':>9s} {'events':>9s}"
    ]
    # The aggregate keeps cells label-sorted for byte-stable ledgers;
    # the human view wants the expensive ones first.
    cells = sorted(
        cells,
        key=lambda c: (-float(c.get("execute_s") or 0.0), str(c.get("cell"))),
    )
    for c in cells[:top]:
        times = " ".join(
            f"{float(c.get(k) or 0.0):8.3f}s"
            for k in ("execute_s", "restore_s", "serialize_s", "snapshot_s")
        )
        lines.append(
            f"  {str(c.get('cell')):38s} {times} {int(c.get('events') or 0):9d}"
        )
    if len(cells) > top:
        lines.append(f"  … and {len(cells) - top} more cell(s)")
    return lines


def render_perf_report(ledger: Optional[dict], source: str = "") -> str:
    """Text report over one campaign's ledger."""
    lines = [f"layer profile — {source}" if source else "layer profile"]
    if not ledger:
        lines.append(
            f"no profiler data found (no readable {LEDGER_NAME}); "
            "run the campaign with --profile to collect"
        )
        return "\n".join(lines)
    cells = ledger.get("cells") or {}
    timing = ledger.get("timing") or {}
    lines.append(
        f"campaign: {cells.get('total', '?')} cells "
        f"({cells.get('executed', '?')} executed, "
        f"{cells.get('cached', '?')} cached) on "
        f"{ledger.get('jobs', '?')} job(s), "
        f"wall-clock {float(ledger.get('wall_clock_s') or 0.0):.2f}s"
    )
    lines.append(
        f"  execute {float(timing.get('execute_s') or 0.0):.2f}s, "
        f"warm-restore {float(timing.get('restore_s') or 0.0):.2f}s "
        f"(speedup {float(timing.get('speedup') or 0.0):.2f}x, "
        f"parallelism {float(timing.get('parallelism') or 0.0):.2f}x)"
    )
    warm = ledger.get("warm_start") or {}
    if warm:
        traffic = ", ".join(f"{k}: {v}" for k, v in sorted(warm.items()))
        lines.append(f"  warm-start checkpoints — {traffic}")
    reps = ledger.get("replication") or {}
    if reps.get("reps_ceiling"):
        lines.append(
            f"  replication ({reps.get('policy', '?')}): "
            f"{reps.get('reps_spent', 0)} reps of "
            f"{reps.get('reps_ceiling', 0)} ceiling "
            f"({100.0 * float(reps.get('saved_fraction') or 0.0):.0f}% "
            "saved)"
        )
    agg = ledger_view(ledger)
    totals = agg["totals"]
    line = (
        f"profiled: {totals['cells']} cell record(s), "
        f"{totals['events']} events, {totals['calls']} hooked calls, "
        f"{totals['self_s']:.4f}s self time"
    )
    if totals["window_s"]:
        line += f" in a {totals['window_s']:.4f}s window"
    lines.append(line)
    if agg["layers"]:
        lines.append("self-time by layer:")
        lines += _layer_lines(agg["layers"], totals["self_s"])
    if agg["sites"]:
        lines.append("top sites by self time:")
        lines += _site_lines(agg["sites"])
    lines += _fabric_line(agg["fabric"])
    eng = agg["engine"]
    if any(eng.values()):
        scheduled = eng["scheduled"]
        reuse_pct = (
            f"{100.0 * eng['freelist_reuse'] / scheduled:.1f}%"
            if scheduled
            else "—"
        )
        lines.append(
            f"engine: {eng['events_processed']} events processed, "
            f"{scheduled} timers scheduled, "
            f"{eng['timer_allocs']} allocated "
            f"(freelist reuse {reuse_pct}), "
            f"{eng['compactions']} heap compaction(s)"
        )
    if agg["cells"]:
        lines.append("per-cell wall-clock breakdown (top by execute time):")
        lines += _cell_lines(agg["cells"])
    return "\n".join(lines)


def perf_report_from_store(cache_dir) -> str:
    """The ``perf-report`` command body: render one cache dir."""
    cache_dir = Path(cache_dir)
    if not cache_dir.is_dir():
        raise ValueError(f"{cache_dir}: not a directory")
    return render_perf_report(load_ledger(cache_dir), source=str(cache_dir))


# ----------------------------------------------------------------------
# perf-compare
# ----------------------------------------------------------------------


#: Totals perf-compare diffs, with their units (" " for counts).
_COMPARED_TOTALS = (
    ("execute_s", "s"),
    ("restore_s", "s"),
    ("serialize_s", "s"),
    ("snapshot_s", "s"),
    ("events", " "),
    ("calls", " "),
)


def _delta_line(label: str, a, b, unit: str = "s") -> str:
    a, b = float(a or 0.0), float(b or 0.0)
    if a:
        rel = f"{100.0 * (b - a) / a:+7.1f}%"
    elif b > 0:
        rel = "   new"
    else:
        rel = "     ="
    return f"  {label:28s} {a:12.4f}{unit} {b:12.4f}{unit} {rel}"


def perf_compare(dir_a, dir_b) -> Tuple[str, bool]:
    """Compare two profiled cache dirs; returns ``(text, comparable)``.

    ``comparable`` is False when either side has no ledger — the CLI
    maps that to a non-zero exit so CI catches a perf-smoke job that
    silently profiled nothing.
    """
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    ledger_a, ledger_b = load_ledger(dir_a), load_ledger(dir_b)
    lines = [f"perf-compare — A: {dir_a}  B: {dir_b}"]
    if not (ledger_a and ledger_b):
        for name, d, ledger in (("A", dir_a, ledger_a), ("B", dir_b, ledger_b)):
            if not ledger:
                lines.append(
                    f"{name} ({d}): no profiler data (run with --profile)"
                )
        return "\n".join(lines), False
    agg_a, agg_b = ledger_view(ledger_a), ledger_view(ledger_b)
    lines.append(f"  {'metric':28s} {'A':>13s} {'B':>13s} {'Δ':>8s}")
    wall_a, wall_b = ledger_a.get("wall_clock_s"), ledger_b.get("wall_clock_s")
    if wall_a or wall_b:
        lines.append(_delta_line("wall_clock", wall_a, wall_b))
    for key, unit in _COMPARED_TOTALS:
        lines.append(
            _delta_line(key, agg_a["totals"][key], agg_b["totals"][key], unit)
        )
    layers = sorted(set(agg_a["layers"]) | set(agg_b["layers"]))
    if layers:
        lines.append("self-time by layer:")
    for layer in layers:
        lines.append(
            _delta_line(
                f"layer.{layer}",
                (agg_a["layers"].get(layer) or {}).get("self_s"),
                (agg_b["layers"].get(layer) or {}).get("self_s"),
            )
        )
    lines.append("fabric frames:")
    for key in ("fast_frames", "reference_frames"):
        lines.append(
            _delta_line(key, agg_a["fabric"][key], agg_b["fabric"][key], " ")
        )
    return "\n".join(lines), True
