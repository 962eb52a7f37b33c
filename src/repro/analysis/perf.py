"""Campaign perf ledger + the ``perf-report`` / ``perf-compare`` views.

The layer profiler (:mod:`repro.obs.profiler`) leaves two artifacts
behind a ``--profile`` campaign:

* one JSON record per executed cell in the store's volatile ``perf/``
  namespace — the wall-clock breakdown (execute / warm-restore /
  serialize / snapshot) plus the profile digest (per-layer calls and
  self time, the costliest sites, fabric frame counts, engine heap
  churn);
* one consolidated ``BENCH_campaign.json`` **ledger** in the cache dir —
  the campaign-level rollup of those records joined with the report's
  wall-clock, warm-start traffic, and replication budget.

This module builds the ledger (:func:`campaign_ledger`), renders the
human view over a cache dir (:func:`perf_report_from_store` → the
``python -m repro perf-report`` command), and diffs two cache dirs
(:func:`perf_compare` → ``perf-compare``).  Everything here reads
wall-clock data only; nothing feeds back into cache keys or payloads.

Stores written before the layer profiler (ledger version 1, by the
root-callback recorder) still render: :func:`profile_view` reads their
per-layer and per-site ``events`` as calls and their fabric counters as
frame counts.
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
LEDGER_VERSION = 2

#: Sites kept per record, per ledger, and shown by ``perf-report``.
TOP_SITES = 20

_ENGINE_KEYS = (
    "events_processed", "scheduled", "timer_allocs", "freelist_reuse",
    "compactions",
)


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

    ``rows`` are the dicts the runner appends to ``report.perf`` (or the
    record halves of ``DiskStore.iter_perf``, with identity merged in).
    Missing keys degrade to zero — a stale or partial record never
    raises.  Sites are summed across cells by name.
    """
    totals = {
        "cells": 0,
        "execute_s": 0.0,
        "restore_s": 0.0,
        "serialize_s": 0.0,
        "snapshot_s": 0.0,
        "events": 0,
        "calls": 0,
        "self_s": 0.0,
        "window_s": 0.0,
    }
    layers: Dict[str, Dict[str, float]] = {}
    sites: Dict[str, dict] = {}
    fabric = {"fast_frames": 0, "reference_frames": 0}
    engine = dict.fromkeys(_ENGINE_KEYS, 0)
    cells: List[dict] = []
    for row in rows:
        if not isinstance(row, dict):
            continue
        totals["cells"] += 1
        for key in ("execute_s", "restore_s", "serialize_s", "snapshot_s"):
            totals[key] += float(row.get(key) or 0.0)
        profile = profile_view(row.get("profile"))
        for key in ("events", "calls", "self_s", "window_s"):
            totals[key] += profile[key]
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
                "execute_s": float(row.get("execute_s") or 0.0),
                "restore_s": float(row.get("restore_s") or 0.0),
                "serialize_s": float(row.get("serialize_s") or 0.0),
                "snapshot_s": float(row.get("snapshot_s") or 0.0),
                "events": profile["events"],
                "warm_status": row.get("warm_status"),
            }
        )
    # Stable label order (not wall-clock order) so the aggregate — and
    # the ledger rows built from it — byte-diffs cleanly across runs
    # with identical structure; display views re-sort by cost locally.
    cells.sort(key=lambda c: c["cell"])
    return {
        "totals": totals,
        "layers": {k: layers[k] for k in sorted(layers)},
        "sites": sorted(
            sites.values(), key=lambda r: (-r["self_s"], r["site"])
        )[:TOP_SITES],
        "fabric": fabric,
        "engine": engine,
        "cells": cells,
    }


def perf_view(rows: List[dict], ledger: Optional[dict]) -> dict:
    """The aggregate a report renders: the per-cell records when there
    are any, else the ledger's own rollup (e.g. a store whose ``perf/``
    records were pruned, or an in-memory campaign)."""
    agg = aggregate_perf(rows)
    if rows or not ledger:
        return agg
    profile = profile_view(ledger.get("profile"))
    return {
        "totals": dict(
            agg["totals"],
            **{k: profile[k] for k in ("events", "calls", "self_s", "window_s")},
        ),
        "layers": profile["layers"],
        "sites": profile["sites"],
        "fabric": profile["fabric"],
        "engine": profile["engine"],
        "cells": [c for c in ledger.get("top_cells") or [] if isinstance(c, dict)],
    }


# ----------------------------------------------------------------------
# The consolidated ledger (BENCH_campaign.json)
# ----------------------------------------------------------------------


def campaign_ledger(report, settings=None) -> dict:
    """JSON-ready campaign perf ledger from a ``CampaignReport``.

    Joins the per-cell profiler records with the report's
    campaign-level accounting (wall clock, cache hits, warm-start
    traffic, replication budget).  Written to :data:`LEDGER_NAME` by a
    profiled campaign; read back by ``perf-report`` / ``perf-compare``.
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
        # Top 10 by execute time, then label-sorted so the committed
        # ledger is byte-stable whenever the same rows make the cut.
        "top_cells": sorted(
            sorted(agg["cells"], key=lambda c: (-c["execute_s"], c["cell"]))[
                :10
            ],
            key=lambda c: c["cell"],
        ),
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


def _store_rows(cache_dir) -> List[dict]:
    """Per-cell perf records from the store, identity merged in."""
    from ..experiments.store import DiskStore

    rows: List[dict] = []
    for key, record in DiskStore(Path(cache_dir)).iter_perf():
        if not isinstance(record, dict):
            continue
        merged = dict(record)
        for field in ("version", "fault", "rep", "seed"):
            merged.setdefault(field, (key or {}).get(field))
        rows.append(merged)
    return rows


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


def render_perf_report(
    rows: List[dict], ledger: Optional[dict] = None, source: str = ""
) -> str:
    """Text report over per-cell perf records plus the optional ledger."""
    lines = [f"layer profile — {source}" if source else "layer profile"]
    if not rows and not ledger:
        lines.append(
            "no profiler data found (no perf/ records and no "
            f"{LEDGER_NAME}); run the campaign with --profile to collect"
        )
        return "\n".join(lines)
    if ledger:
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
    agg = perf_view(rows, ledger)
    totals = agg["totals"]
    line = (
        f"profiled: {totals['cells'] or len(agg['cells'])} cell record(s), "
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
    return render_perf_report(
        _store_rows(cache_dir),
        ledger=load_ledger(cache_dir),
        source=str(cache_dir),
    )


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


def _delta(a, b) -> dict:
    a, b = float(a or 0.0), float(b or 0.0)
    return {"a": a, "b": b, "delta": b - a, "relative": (b - a) / a if a else None}


def _compare(dir_a: Path, dir_b: Path) -> Tuple[dict, List[str]]:
    """The A/B deltas, plus the sides ("A"/"B") with no profiler data."""
    sides = {}
    for name, cache_dir in (("A", dir_a), ("B", dir_b)):
        agg, ledger = aggregate_perf(_store_rows(cache_dir)), load_ledger(cache_dir)
        sides[name] = (agg, ledger or {}, bool(agg["totals"]["cells"] or ledger))
    (agg_a, ledger_a, has_a), (agg_b, ledger_b, has_b) = sides["A"], sides["B"]
    layers = sorted(set(agg_a["layers"]) | set(agg_b["layers"]))
    payload = {
        "kind": "perf-compare",
        "a": str(dir_a),
        "b": str(dir_b),
        "comparable": has_a and has_b,
        "wall_clock_s": _delta(
            ledger_a.get("wall_clock_s"), ledger_b.get("wall_clock_s")
        ),
        "totals": {
            key: _delta(agg_a["totals"][key], agg_b["totals"][key])
            for key, _unit in _COMPARED_TOTALS
        },
        "layers": {
            layer: _delta(
                (agg_a["layers"].get(layer) or {}).get("self_s"),
                (agg_b["layers"].get(layer) or {}).get("self_s"),
            )
            for layer in layers
        },
        "fabric": {
            key: _delta(agg_a["fabric"][key], agg_b["fabric"][key])
            for key in ("fast_frames", "reference_frames")
        },
    }
    return payload, [name for name, side in sides.items() if not side[2]]


def _delta_line(label: str, d: dict, unit: str = "s") -> str:
    if d["relative"] is not None:
        rel = f"{100.0 * d['relative']:+7.1f}%"
    elif d["b"] > 0:
        rel = "   new"
    else:
        rel = "     ="
    return f"  {label:28s} {d['a']:12.4f}{unit} {d['b']:12.4f}{unit} {rel}"


def perf_compare(dir_a, dir_b) -> Tuple[str, bool]:
    """Compare two profiled cache dirs; returns ``(text, comparable)``.

    ``comparable`` is False when either side has no profiler data at
    all — the CLI maps that to a non-zero exit so CI catches a
    perf-smoke job that silently profiled nothing.
    """
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    cmp, missing = _compare(dir_a, dir_b)
    lines = [f"perf-compare — A: {dir_a}  B: {dir_b}"]
    if missing:
        for name in missing:
            d = dir_a if name == "A" else dir_b
            lines.append(f"{name} ({d}): no profiler data (run with --profile)")
        return "\n".join(lines), False
    lines.append(f"  {'metric':28s} {'A':>13s} {'B':>13s} {'Δ':>8s}")
    wall = cmp["wall_clock_s"]
    if wall["a"] or wall["b"]:
        lines.append(_delta_line("wall_clock", wall))
    for key, unit in _COMPARED_TOTALS:
        lines.append(_delta_line(key, cmp["totals"][key], unit))
    if cmp["layers"]:
        lines.append("self-time by layer:")
        for layer, d in cmp["layers"].items():
            lines.append(_delta_line(f"layer.{layer}", d))
    lines.append("fabric frames:")
    for key, d in cmp["fabric"].items():
        lines.append(_delta_line(key, d, unit=" "))
    return "\n".join(lines), True


# ----------------------------------------------------------------------
# Machine-readable views (--json)
# ----------------------------------------------------------------------


def perf_report_json(cache_dir) -> str:
    """``perf-report --json``: the aggregated ledger as stable JSON.

    Key order is sorted and the per-cell rows are label-sorted (see
    :func:`aggregate_perf`), so tracking the bench trajectory is a
    ``jq``/diff affair instead of scraping the text report.
    """
    cache_dir = Path(cache_dir)
    if not cache_dir.is_dir():
        raise ValueError(f"{cache_dir}: not a directory")
    payload = {
        "kind": "perf-report",
        "source": str(cache_dir),
        "aggregate": aggregate_perf(_store_rows(cache_dir)),
        "ledger": load_ledger(cache_dir),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def perf_compare_json(dir_a, dir_b) -> Tuple[str, bool]:
    """``perf-compare --json``: the A/B deltas as stable JSON.

    Same comparability contract as :func:`perf_compare`: the flag is
    False (CLI exits non-zero) when either side has no perf data.
    """
    cmp, missing = _compare(Path(dir_a), Path(dir_b))
    return json.dumps(cmp, indent=2, sort_keys=True), not missing
