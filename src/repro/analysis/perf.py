"""Campaign perf ledger + the ``perf-report`` / ``perf-compare`` views.

The layer profiler (:mod:`repro.obs.profiler`) gives every executed
cell of a ``--profile`` campaign a perf record: the wall-clock breakdown
(execute / warm-restore / serialize / snapshot) plus the profile digest
(per-layer calls and self time, every hooked site that ran, fabric frame
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

Each view reads the ledger's sections as :func:`campaign_ledger` writes
them.  :func:`load_ledger` is the one check: a file of another
``ledger_version``, or with any key a view reads missing or mistyped,
is rejected there with a one-line reason (:class:`LedgerError`), which
every view prints in place of the profile.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from ..experiments.store import NUM, shape_problem

#: File name of the consolidated ledger inside a campaign cache dir.
LEDGER_NAME = "BENCH_campaign.json"

#: The ledger's ``kind`` tag.
LEDGER_KIND = "campaign-perf-ledger"

#: Schema tag of the ledger payload (bump on incompatible layout); a
#: ledger of any other version is rejected by :func:`load_ledger`.
#:   v1 — root-callback recorder: per-layer ``events``, named counters.
#:   v2 — layer profiler: per-layer ``calls``, ``sites``, ``fabric``
#:        frame counts and the profiled ``window_s``.
#:   v3 — the ledger is the only profiler record: ``cell_rows`` lists
#:        every profiled cell's breakdown (v1/v2 kept the ten costliest
#:        under ``top_cells``, beside per-cell records in ``perf/``).
LEDGER_VERSION = 3

#: Sites the ledger keeps of the campaign's sum over every cell's sites.
TOP_SITES = 20

_ENGINE_KEYS = (
    "events_processed", "scheduled", "timer_allocs", "freelist_reuse",
    "compactions",
)

#: A cell's wall-clock columns, summed into the campaign totals.
_TIMES = ("execute_s", "restore_s", "serialize_s", "snapshot_s")

#: The ledger as :func:`campaign_ledger` writes it, down to every key a
#: view reads, in the notation of the one shape walker, which the result
#: store shares (:func:`repro.experiments.store.shape_problem`).
_LEDGER_SHAPE = {
    "jobs": int,
    "wall_clock_s": NUM,
    "cells": dict.fromkeys(("total", "executed", "cached", "profiled"), int),
    "timing": dict.fromkeys(
        ("execute_s", "restore_s", "speedup", "parallelism"), NUM
    ),
    "warm_start": {str: int},
    "replication": {
        "policy": str, "reps_spent": int, "reps_ceiling": int,
        "saved_fraction": NUM,
    },
    "profile": {
        "events": int, "calls": int, "self_s": NUM, "window_s": NUM,
        "layers": {str: {"calls": int, "self_s": NUM}},
        "sites": [{"site": str, "layer": str, "calls": int, "self_s": NUM}],
        "fabric": dict.fromkeys(("fast_frames", "reference_frames"), int),
        "engine": dict.fromkeys(_ENGINE_KEYS, int),
    },
    "cell_rows": [
        {"cell": str, **dict.fromkeys(_TIMES, NUM), "events": int}
    ],
}


class LedgerError(ValueError):
    """A ledger file this version does not read; the message is one line."""


# ----------------------------------------------------------------------
# Aggregation over per-cell perf records
# ----------------------------------------------------------------------


def _cell_label(row: dict) -> str:
    return f"{row['version']}/{row['fault'] or 'baseline'}#r{row['rep']}"


def _time_totals(rows: List[dict]) -> Dict[str, float]:
    """The :data:`_TIMES` columns summed over cell rows."""
    return {key: sum((row[key] for row in rows), 0.0) for key in _TIMES}


def aggregate_perf(rows: Iterable[dict]) -> dict:
    """Campaign-wide rollup of per-cell perf records.

    ``rows`` are the dicts the runner appends to ``report.perf``, each
    carrying a :meth:`~repro.obs.profiler.LayerProfiler.digest` under
    ``"profile"``.  Sites are summed across cells by name; only the
    campaign's :data:`TOP_SITES` costliest are kept.
    """
    profiled = {"events": 0, "calls": 0, "self_s": 0.0, "window_s": 0.0}
    layers: Dict[str, Dict[str, float]] = {}
    sites: Dict[str, dict] = {}
    fabric = {"fast_frames": 0, "reference_frames": 0}
    engine = dict.fromkeys(_ENGINE_KEYS, 0)
    cells: List[dict] = []
    for row in rows:
        profile = row["profile"]
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
                **{key: row[key] for key in _TIMES},
                "events": profile["events"],
                "warm_status": row["warm_status"],
            }
        )
    # Stable label order (not wall-clock order) so the aggregate — and
    # the ledger rows built from it — byte-diffs cleanly across runs
    # with identical structure; display views re-sort by cost locally.
    cells.sort(key=lambda c: c["cell"])
    return {
        "totals": {
            "cells": len(cells),
            **_time_totals(cells),
            **profiled,
        },
        "layers": {k: layers[k] for k in sorted(layers)},
        "sites": sorted(
            sites.values(), key=lambda r: (-r["self_s"], r["site"])
        )[:TOP_SITES],
        "fabric": fabric,
        "engine": engine,
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
    profiled campaign; read back through :func:`load_ledger` by
    ``perf-report``, ``perf-compare`` and the dashboard.
    """
    agg = aggregate_perf(report.perf)
    ledger = {
        "kind": LEDGER_KIND,
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


def _ledger_problem(data) -> Optional[str]:
    """Why ``data`` is not a ledger :func:`campaign_ledger` writes, or
    None when it is one."""
    if not isinstance(data, dict) or data.get("kind") != LEDGER_KIND:
        return "not a campaign perf ledger"
    version = data.get("ledger_version")
    if version != LEDGER_VERSION:
        return (
            f"ledger_version {version!r}, and this version reads only "
            f"{LEDGER_VERSION}"
        )
    return shape_problem(data, _LEDGER_SHAPE)


def load_ledger(cache_dir) -> Optional[dict]:
    """The cache dir's ``BENCH_campaign.json``, or None when it has none.

    Raises :class:`LedgerError` when the file is there but is not a
    ledger this version writes: unreadable, not JSON, of another
    ``ledger_version``, or not of :data:`_LEDGER_SHAPE`.
    """
    path = Path(cache_dir) / LEDGER_NAME
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        raise LedgerError(f"{path}: unreadable ({exc})") from None
    try:
        data = json.loads(text)
    except (ValueError, RecursionError):
        raise LedgerError(f"{path}: not JSON") from None
    problem = _ledger_problem(data)
    if problem:
        raise LedgerError(f"{path}: {problem}")
    return data


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
    # The ledger keeps cells label-sorted for byte-stable files; the
    # human view wants the expensive ones first.
    cells = sorted(cells, key=lambda c: (-c["execute_s"], c["cell"]))
    for c in cells[:top]:
        times = " ".join(f"{c[key]:8.3f}s" for key in _TIMES)
        lines.append(f"  {c['cell']:38s} {times} {c['events']:9d}")
    if len(cells) > top:
        lines.append(f"  … and {len(cells) - top} more cell(s)")
    return lines


def render_perf_report(
    ledger: Optional[dict], source: str, problem: str = ""
) -> str:
    """Text report over one campaign's ledger; without one, a line
    saying why (``problem``, default: there is no ledger)."""
    lines = [f"layer profile — {source}"]
    if ledger is None:
        lines.append(
            f"no profiler data found ({problem or 'no ' + LEDGER_NAME}); "
            "run the campaign with --profile to collect"
        )
        return "\n".join(lines)
    cells = ledger["cells"]
    timing = ledger["timing"]
    lines.append(
        f"campaign: {cells['total']} cells ({cells['executed']} executed, "
        f"{cells['cached']} cached) on {ledger['jobs']} job(s), "
        f"wall-clock {ledger['wall_clock_s']:.2f}s"
    )
    lines.append(
        f"  execute {timing['execute_s']:.2f}s, "
        f"warm-restore {timing['restore_s']:.2f}s "
        f"(speedup {timing['speedup']:.2f}x, "
        f"parallelism {timing['parallelism']:.2f}x)"
    )
    warm = ledger["warm_start"]
    if warm:
        traffic = ", ".join(f"{k}: {v}" for k, v in sorted(warm.items()))
        lines.append(f"  warm-start checkpoints — {traffic}")
    reps = ledger["replication"]
    if reps["reps_ceiling"]:
        lines.append(
            f"  replication ({reps['policy']}): {reps['reps_spent']} reps "
            f"of {reps['reps_ceiling']} ceiling "
            f"({100.0 * reps['saved_fraction']:.0f}% saved)"
        )
    profile = ledger["profile"]
    line = (
        f"profiled: {cells['profiled']} cell record(s), "
        f"{profile['events']} events, {profile['calls']} hooked calls, "
        f"{profile['self_s']:.4f}s self time"
    )
    if profile["window_s"]:
        line += f" in a {profile['window_s']:.4f}s window"
    lines.append(line)
    if profile["layers"]:
        lines.append("self-time by layer:")
        lines += _layer_lines(profile["layers"], profile["self_s"])
    if profile["sites"]:
        lines.append("top sites by self time:")
        lines += _site_lines(profile["sites"])
    lines += _fabric_line(profile["fabric"])
    eng = profile["engine"]
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
    if ledger["cell_rows"]:
        lines.append("per-cell wall-clock breakdown (top by execute time):")
        lines += _cell_lines(ledger["cell_rows"])
    return "\n".join(lines)


def perf_report_from_store(cache_dir) -> str:
    """The ``perf-report`` command body: render one cache dir."""
    cache_dir = Path(cache_dir)
    if not cache_dir.is_dir():
        raise ValueError(f"{cache_dir}: not a directory")
    try:
        ledger = load_ledger(cache_dir)
    except LedgerError as exc:
        return render_perf_report(None, str(cache_dir), str(exc))
    return render_perf_report(ledger, str(cache_dir))


# ----------------------------------------------------------------------
# perf-compare
# ----------------------------------------------------------------------


#: Totals perf-compare diffs, with their units (" " for counts).
_COMPARED_TOTALS = (
    ("execute_s", "s"),
    ("restore_s", "s"),
    ("serialize_s", "s"),
    ("snapshot_s", "s"),
    ("events", ""),
    ("calls", ""),
)


def _compared_totals(ledger: dict) -> Dict[str, float]:
    """The :data:`_COMPARED_TOTALS` of one ledger: wall-clock columns
    summed over its cell rows, counts from its profile."""
    return {
        **_time_totals(ledger["cell_rows"]),
        "events": ledger["profile"]["events"],
        "calls": ledger["profile"]["calls"],
    }


def _delta_line(label: str, a, b, unit: str = "s") -> str:
    """One A-vs-B row: seconds to four decimals, counts (``unit=""``)
    as integers."""
    if a:
        rel = f"{100.0 * (b - a) / a:+7.1f}%"
    elif b > 0:
        rel = "   new"
    else:
        rel = "     ="
    if unit:
        return f"  {label:28s} {a:12.4f}{unit} {b:12.4f}{unit} {rel}"
    return f"  {label:28s} {a:12d}  {b:12d}  {rel}"


def perf_compare(dir_a, dir_b) -> Tuple[str, bool]:
    """Compare two profiled cache dirs; returns ``(text, comparable)``.

    ``comparable`` is False when either side has no ledger, or one this
    version does not read — the CLI maps that to a non-zero exit so CI
    catches a perf-smoke job that silently profiled nothing.
    """
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    lines = [f"perf-compare — A: {dir_a}  B: {dir_b}"]
    ledgers = []
    for name, d in (("A", dir_a), ("B", dir_b)):
        try:
            ledger = load_ledger(d)
        except LedgerError as exc:
            ledger = None
            lines.append(f"{name}: {exc}")
        else:
            if ledger is None:
                lines.append(
                    f"{name} ({d}): no profiler data (run with --profile)"
                )
        ledgers.append(ledger)
    ledger_a, ledger_b = ledgers
    if ledger_a is None or ledger_b is None:
        return "\n".join(lines), False
    totals_a, totals_b = _compared_totals(ledger_a), _compared_totals(ledger_b)
    lines.append(f"  {'metric':28s} {'A':>13s} {'B':>13s} {'Δ':>8s}")
    lines.append(
        _delta_line(
            "wall_clock", ledger_a["wall_clock_s"], ledger_b["wall_clock_s"]
        )
    )
    for key, unit in _COMPARED_TOTALS:
        lines.append(_delta_line(key, totals_a[key], totals_b[key], unit))
    layers_a = ledger_a["profile"]["layers"]
    layers_b = ledger_b["profile"]["layers"]
    layers = sorted(set(layers_a) | set(layers_b))
    if layers:
        lines.append("self-time by layer:")
    for layer in layers:
        # A layer only one side ran costs that side 0 s.
        a = layers_a[layer]["self_s"] if layer in layers_a else 0.0
        b = layers_b[layer]["self_s"] if layer in layers_b else 0.0
        lines.append(_delta_line(f"layer.{layer}", a, b))
    fabric_a = ledger_a["profile"]["fabric"]
    fabric_b = ledger_b["profile"]["fabric"]
    lines.append("fabric frames:")
    for key in ("fast_frames", "reference_frames"):
        lines.append(_delta_line(key, fabric_a[key], fabric_b[key], ""))
    return "\n".join(lines), True
