"""Table 1: near-peak throughput of the five PRESS versions.

Drives each version slightly past its estimated saturation point and
measures delivered throughput.  We report measured peaks next to the
paper's numbers; the claim being reproduced is the *ordering and the
ratios* (VIA-5 > VIA-3 > VIA-0 > TCP ≈ TCP-HB, with VIA-5 roughly 1.4×
TCP), not absolute hardware-era req/s.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..press.config import ALL_VERSIONS, ALL_VERSIONS_EXTENDED, PAPER_TABLE1_THROUGHPUT
from .phase1 import build_cluster
from .settings import DEFAULT_SETTINGS, Phase1Settings

#: Offered load relative to estimated capacity for the peak measurement.
PEAK_UTILIZATION = 1.05


@dataclass(frozen=True)
class Table1Row:
    version: str
    measured: float
    paper: float

    def __str__(self) -> str:
        return (
            f"{self.version:14s} measured {self.measured:7.0f} req/s"
            f"   paper {self.paper:6.0f} req/s"
        )


def measure_peak(
    version: str,
    settings: Phase1Settings = DEFAULT_SETTINGS,
    warm: float = 30.0,
    window: float = 60.0,
) -> float:
    """Near-peak delivered throughput for one version (paper units)."""
    cluster = build_cluster(
        ALL_VERSIONS_EXTENDED[version],
        dataclasses.replace(settings, utilization=PEAK_UTILIZATION),
    )
    cluster.start()
    cluster.run_until(warm + window)
    return cluster.measured_rate(warm, warm + window)


def run_table1(
    settings: Phase1Settings = DEFAULT_SETTINGS,
    versions: Optional[List[str]] = None,
) -> List[Table1Row]:
    names = versions if versions is not None else list(ALL_VERSIONS)
    return [
        Table1Row(
            version=name,
            measured=measure_peak(name, settings),
            paper=PAPER_TABLE1_THROUGHPUT[name],
        )
        for name in names
    ]


def format_table1(rows: List[Table1Row]) -> str:
    base_measured = rows[0].measured
    base_paper = rows[0].paper
    lines = [
        "Table 1 — near-peak throughput (vs. paper)",
        f"{'version':14s} {'measured':>10s} {'paper':>8s} "
        f"{'meas./TCP':>10s} {'paper/TCP':>10s}",
    ]
    for row in rows:
        lines.append(
            f"{row.version:14s} {row.measured:10.0f} {row.paper:8.0f} "
            f"{row.measured / base_measured:10.2f} {row.paper / base_paper:10.2f}"
        )
    return "\n".join(lines)
