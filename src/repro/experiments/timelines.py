"""Shared machinery for the timeline figures (Figures 2-5).

Each figure is a set of phase-1 runs — one per PRESS version — around a
single injected fault, rendered as a bucketed throughput series with the
key instants annotated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.extract import ExperimentRecord
from ..faults.spec import FaultKind
from ..press.config import ALL_VERSIONS, ALL_VERSIONS_EXTENDED
from .phase1 import run_single_fault
from .settings import DEFAULT_SETTINGS, Phase1Settings


@dataclass
class TimelineFigure:
    """One figure: per-version timelines for a single fault."""

    fault: FaultKind
    records: Dict[str, ExperimentRecord] = field(default_factory=dict)

    def series(self, version: str, bucket: float = 10.0) -> List[Tuple[float, float]]:
        """Coarsened (time, req/s) points for plotting/printing."""
        tl = self.records[version].timeline
        if not tl.series:
            return []
        end = tl.series[-1][0] + tl.bucket_width
        out = []
        t = 0.0
        while t < end:
            out.append((t, tl.mean_rate(t, t + bucket)))
            t += bucket
        return out


def run_timeline_figure(
    fault: FaultKind,
    versions: Optional[List[str]] = None,
    settings: Phase1Settings = DEFAULT_SETTINGS,
) -> TimelineFigure:
    names = versions if versions is not None else list(ALL_VERSIONS)
    fig = TimelineFigure(fault=fault)
    for name in names:
        record, _cluster = run_single_fault(ALL_VERSIONS_EXTENDED[name], fault, settings)
        fig.records[name] = record
    return fig


def format_timeline_figure(
    fig: TimelineFigure, bucket: float = 10.0, title: str = ""
) -> str:
    """ASCII rendering: one row per version, columns are time buckets."""
    lines = []
    if title:
        lines.append(title)
    for version, record in fig.records.items():
        pts = fig.series(version, bucket)
        cells = " ".join(f"{rate:5.0f}" for _t, rate in pts)
        lines.append(f"{version:14s} | {cells}")
        marks = []
        if record.detection_at is not None:
            marks.append(f"detected@{record.detection_at:.1f}s")
        if record.reset_at is not None:
            marks.append(f"operator-reset@{record.reset_at:.1f}s")
        marks.append(
            "recovered" if record.recovered_fully else "left partitioned"
        )
        lines.append(
            f"{'':14s} | injected@{record.injected_at:.1f}s "
            f"cleared@{record.cleared_at:.1f}s " + " ".join(marks)
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The four timeline figures
# ---------------------------------------------------------------------------

def run_figure2(settings: Phase1Settings = DEFAULT_SETTINGS) -> TimelineFigure:
    """Transient link failure (paper shows TCP, TCP-HB, VIA-5)."""
    return run_timeline_figure(FaultKind.LINK_DOWN, settings=settings)


def run_figure3(settings: Phase1Settings = DEFAULT_SETTINGS) -> TimelineFigure:
    """Node crash (hard reboot)."""
    return run_timeline_figure(FaultKind.NODE_CRASH, settings=settings)


def run_figure4(
    settings: Phase1Settings = DEFAULT_SETTINGS,
) -> Dict[str, TimelineFigure]:
    """Kernel-memory exhaustion (TCP versions; VIA immune) and
    pinnable-memory exhaustion (VIA-PRESS-5's zero-copy cache)."""
    return {
        "kernel-memory": run_timeline_figure(
            FaultKind.KERNEL_MEMORY, settings=settings
        ),
        "memory-pinning": run_timeline_figure(
            FaultKind.MEMORY_PINNING,
            versions=["TCP-PRESS", "VIA-PRESS-0", "VIA-PRESS-5"],
            settings=settings,
        ),
    }


def run_figure5(settings: Phase1Settings = DEFAULT_SETTINGS) -> TimelineFigure:
    """NULL pointer passed to the send API."""
    return run_timeline_figure(FaultKind.BAD_PARAM_NULL, settings=settings)
