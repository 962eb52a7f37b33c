"""Campaign perf ledger + the ``perf-report`` / ``perf-compare`` views.

The flight recorder (:mod:`repro.obs.profiler`) leaves two artifacts
behind a ``--profile`` campaign:

* one JSON record per executed cell in the store's volatile ``perf/``
  namespace — the wall-clock breakdown (execute / warm-restore /
  serialize / snapshot) plus the profiler digest (per-layer self-time,
  fastpath counters, engine heap churn);
* one consolidated ``BENCH_campaign.json`` **ledger** in the cache dir —
  the campaign-level rollup of those records joined with the report's
  wall-clock, warm-start traffic, and replication budget.

This module builds the ledger (:func:`campaign_ledger`), renders the
human view over a cache dir (:func:`perf_report_from_store` → the
``python -m repro perf-report`` command), and diffs two cache dirs
(:func:`perf_compare` → ``perf-compare``).  Everything here reads
wall-clock data only; nothing feeds back into cache keys or payloads.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

#: File name of the consolidated ledger inside a campaign cache dir.
LEDGER_NAME = "BENCH_campaign.json"

#: Schema tag of the ledger payload (bump on incompatible layout).
LEDGER_VERSION = 1


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


def aggregate_perf(rows: Iterable[dict]) -> dict:
    """Campaign-wide rollup of per-cell perf records.

    ``rows`` are the dicts the runner appends to ``report.perf`` (or the
    record halves of ``DiskStore.iter_perf``, with identity merged in).
    Missing keys degrade to zero — a stale or partial record never
    raises.
    """
    totals = {
        "cells": 0,
        "execute_s": 0.0,
        "restore_s": 0.0,
        "serialize_s": 0.0,
        "snapshot_s": 0.0,
        "events": 0,
        "self_s": 0.0,
    }
    layers: Dict[str, Dict[str, float]] = {}
    counters: Dict[str, int] = {}
    engine = {
        "events_processed": 0,
        "scheduled": 0,
        "timer_allocs": 0,
        "freelist_reuse": 0,
        "compactions": 0,
    }
    cells: List[dict] = []
    for row in rows:
        if not isinstance(row, dict):
            continue
        totals["cells"] += 1
        for key in ("execute_s", "restore_s", "serialize_s", "snapshot_s"):
            totals[key] += float(row.get(key) or 0.0)
        profile = row.get("profile") or {}
        totals["events"] += int(profile.get("events") or 0)
        totals["self_s"] += float(profile.get("self_s") or 0.0)
        for layer, stats in (profile.get("layers") or {}).items():
            dst = layers.setdefault(layer, {"events": 0, "self_s": 0.0})
            dst["events"] += int(stats.get("events") or 0)
            dst["self_s"] += float(stats.get("self_s") or 0.0)
        for name, n in (profile.get("counters") or {}).items():
            counters[name] = counters.get(name, 0) + int(n)
        eng = profile.get("engine") or {}
        for key in engine:
            engine[key] += int(eng.get(key) or 0)
        cells.append(
            {
                "cell": _cell_label(row),
                "execute_s": float(row.get("execute_s") or 0.0),
                "restore_s": float(row.get("restore_s") or 0.0),
                "serialize_s": float(row.get("serialize_s") or 0.0),
                "snapshot_s": float(row.get("snapshot_s") or 0.0),
                "events": int(profile.get("events") or 0),
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
        "counters": {k: counters[k] for k in sorted(counters)},
        "engine": engine,
        "cells": cells,
    }


# ----------------------------------------------------------------------
# The consolidated ledger (BENCH_campaign.json)
# ----------------------------------------------------------------------


def campaign_ledger(report, settings=None) -> dict:
    """JSON-ready campaign perf ledger from a ``CampaignReport``.

    Joins the per-cell flight-recorder records with the report's
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
            "self_s": agg["totals"]["self_s"],
            "layers": agg["layers"],
            "counters": agg["counters"],
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
    lines = [f"  {'layer':12s} {'events':>10s} {'self_s':>10s} {'share':>6s}"]
    ordered = sorted(
        layers.items(), key=lambda kv: (-kv[1].get("self_s", 0.0), kv[0])
    )
    for layer, stats in ordered:
        lines.append(
            f"  {layer:12s} {int(stats.get('events') or 0):10d}"
            f" {float(stats.get('self_s') or 0.0):10.4f}"
            f" {_pct(float(stats.get('self_s') or 0.0), total_s):>6s}"
        )
    return lines


def _fastpath_lines(counters: Dict[str, int]) -> List[str]:
    fast = (
        counters.get("fabric.fast_cached", 0)
        + counters.get("fabric.fast_checked", 0)
    )
    slow = counters.get("fabric.slow", 0)
    train = counters.get("fabric.fast_train", 0)
    if not (fast or slow or train):
        return []
    total = fast + slow
    rate = f"{100.0 * fast / total:.1f}%" if total else "—"
    return [
        "fabric fastpath: "
        f"{counters.get('fabric.fast_cached', 0)} cached + "
        f"{counters.get('fabric.fast_checked', 0)} checked hits, "
        f"{slow} slow-path sends (hit rate {rate}); "
        f"{train} train frames"
    ]


def _cell_lines(cells: List[dict], top: int = 15) -> List[str]:
    lines = [
        f"  {'cell':38s} {'execute':>9s} {'restore':>9s}"
        f" {'serialize':>9s} {'snapshot':>9s} {'events':>9s}"
    ]
    # The aggregate keeps cells label-sorted for byte-stable ledgers;
    # the human view wants the expensive ones first.
    cells = sorted(cells, key=lambda c: (-c["execute_s"], c["cell"]))
    for c in cells[:top]:
        lines.append(
            f"  {c['cell']:38s} {c['execute_s']:8.3f}s {c['restore_s']:8.3f}s"
            f" {c['serialize_s']:8.3f}s {c['snapshot_s']:8.3f}s"
            f" {c['events']:9d}"
        )
    if len(cells) > top:
        lines.append(f"  … and {len(cells) - top} more cell(s)")
    return lines


def render_perf_report(
    rows: List[dict], ledger: Optional[dict] = None, source: str = ""
) -> str:
    """Text report over per-cell perf records plus the optional ledger."""
    lines = [f"flight recorder — {source}" if source else "flight recorder"]
    if not rows and not ledger:
        lines.append(
            "no flight-recorder data found (no perf/ records and no "
            f"{LEDGER_NAME}); run the campaign with --profile to collect"
        )
        return "\n".join(lines)
    agg = aggregate_perf(rows)
    totals = agg["totals"]
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
    if not rows and ledger:
        # Fall back to the ledger's own rollup (e.g. an in-memory
        # campaign that only persisted the consolidated file).
        profile = ledger.get("profile") or {}
        agg = {
            "totals": dict(
                totals,
                events=int(profile.get("events") or 0),
                self_s=float(profile.get("self_s") or 0.0),
            ),
            "layers": profile.get("layers") or {},
            "counters": profile.get("counters") or {},
            "engine": profile.get("engine") or {},
            "cells": ledger.get("top_cells") or [],
        }
        totals = agg["totals"]
    lines.append(
        f"profiled: {totals['cells'] or len(agg['cells'])} cell record(s), "
        f"{totals['events']} events, {totals['self_s']:.4f}s self-time"
    )
    if agg["layers"]:
        lines.append("self-time by layer:")
        lines += _layer_lines(agg["layers"], totals["self_s"])
    lines += _fastpath_lines(agg["counters"])
    eng = agg["engine"]
    if eng and any(eng.values()):
        scheduled = int(eng.get("scheduled") or 0)
        reuse = int(eng.get("freelist_reuse") or 0)
        reuse_pct = f"{100.0 * reuse / scheduled:.1f}%" if scheduled else "—"
        lines.append(
            f"engine: {eng.get('events_processed', 0)} events processed, "
            f"{scheduled} timers scheduled, "
            f"{eng.get('timer_allocs', 0)} allocated "
            f"(freelist reuse {reuse_pct}), "
            f"{eng.get('compactions', 0)} heap compaction(s)"
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


def _side(cache_dir) -> Tuple[dict, Optional[dict]]:
    return aggregate_perf(_store_rows(cache_dir)), load_ledger(cache_dir)


def _delta_line(label: str, a: float, b: float, unit: str = "s") -> str:
    if a > 0:
        rel = f"{100.0 * (b - a) / a:+7.1f}%"
    elif b > 0:
        rel = "   new"
    else:
        rel = "     ="
    return f"  {label:28s} {a:12.4f}{unit} {b:12.4f}{unit} {rel}"


def perf_compare(dir_a, dir_b) -> Tuple[str, bool]:
    """Compare two profiled cache dirs; returns ``(text, comparable)``.

    ``comparable`` is False when either side has no flight-recorder data
    at all — the CLI maps that to a non-zero exit so CI catches a
    perf-smoke job that silently profiled nothing.
    """
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    agg_a, ledger_a = _side(dir_a)
    agg_b, ledger_b = _side(dir_b)
    has_a = bool(agg_a["totals"]["cells"] or ledger_a)
    has_b = bool(agg_b["totals"]["cells"] or ledger_b)
    lines = [f"perf-compare — A: {dir_a}  B: {dir_b}"]
    if not (has_a and has_b):
        for name, ok, d in (("A", has_a, dir_a), ("B", has_b, dir_b)):
            if not ok:
                lines.append(
                    f"{name} ({d}): no flight-recorder data "
                    "(run with --profile)"
                )
        return "\n".join(lines), False
    lines.append(f"  {'metric':28s} {'A':>13s} {'B':>13s} {'Δ':>8s}")
    for label, key in (
        ("wall_clock", "wall_clock_s"),
    ):
        a = float((ledger_a or {}).get(key) or 0.0)
        b = float((ledger_b or {}).get(key) or 0.0)
        if a or b:
            lines.append(_delta_line(label, a, b))
    for label in ("execute_s", "restore_s", "serialize_s", "snapshot_s"):
        lines.append(
            _delta_line(
                label,
                agg_a["totals"][label],
                agg_b["totals"][label],
            )
        )
    lines.append(
        _delta_line(
            "events",
            float(agg_a["totals"]["events"]),
            float(agg_b["totals"]["events"]),
            unit=" ",
        )
    )
    all_layers = sorted(set(agg_a["layers"]) | set(agg_b["layers"]))
    if all_layers:
        lines.append("self-time by layer:")
        for layer in all_layers:
            lines.append(
                _delta_line(
                    f"layer.{layer}",
                    float(
                        (agg_a["layers"].get(layer) or {}).get("self_s", 0.0)
                    ),
                    float(
                        (agg_b["layers"].get(layer) or {}).get("self_s", 0.0)
                    ),
                )
            )
    all_counters = sorted(set(agg_a["counters"]) | set(agg_b["counters"]))
    if all_counters:
        lines.append("counters:")
        for name in all_counters:
            lines.append(
                _delta_line(
                    name,
                    float(agg_a["counters"].get(name, 0)),
                    float(agg_b["counters"].get(name, 0)),
                    unit=" ",
                )
            )
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
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    agg_a, ledger_a = _side(dir_a)
    agg_b, ledger_b = _side(dir_b)
    has_a = bool(agg_a["totals"]["cells"] or ledger_a)
    has_b = bool(agg_b["totals"]["cells"] or ledger_b)

    def delta(a: Optional[float], b: Optional[float]) -> dict:
        a = float(a or 0.0)
        b = float(b or 0.0)
        return {
            "a": a,
            "b": b,
            "delta": b - a,
            "relative": (b - a) / a if a else None,
        }

    payload = {
        "kind": "perf-compare",
        "a": str(dir_a),
        "b": str(dir_b),
        "comparable": has_a and has_b,
        "wall_clock_s": delta(
            (ledger_a or {}).get("wall_clock_s"),
            (ledger_b or {}).get("wall_clock_s"),
        ),
        "totals": {
            key: delta(agg_a["totals"][key], agg_b["totals"][key])
            for key in (
                "execute_s",
                "restore_s",
                "serialize_s",
                "snapshot_s",
                "events",
            )
        },
        "layers": {
            layer: delta(
                (agg_a["layers"].get(layer) or {}).get("self_s"),
                (agg_b["layers"].get(layer) or {}).get("self_s"),
            )
            for layer in sorted(set(agg_a["layers"]) | set(agg_b["layers"]))
        },
        "counters": {
            name: delta(
                agg_a["counters"].get(name, 0),
                agg_b["counters"].get(name, 0),
            )
            for name in sorted(
                set(agg_a["counters"]) | set(agg_b["counters"])
            )
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True), has_a and has_b
