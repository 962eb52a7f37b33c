"""Regenerates Figure 4: memory-exhaustion faults.

Kernel-memory exhaustion stalls TCP-PRESS and splinters TCP-PRESS-HB,
while the VIA versions, having pre-allocated all communication memory,
do not degrade.  Pinnable-memory exhaustion bites only VIA-PRESS-5,
whose zero-copy cache must shed pinned files.
"""

from repro.experiments.timelines import format_timeline_figure, run_figure4

from .claims import check
from .conftest import run_once


def test_figure4(benchmark, bench_settings):
    figs = run_once(benchmark, lambda: run_figure4(bench_settings))
    print()
    print(
        format_timeline_figure(
            figs["kernel-memory"], bucket=10.0,
            title="Figure 4a — kernel memory exhaustion",
        )
    )
    print(
        format_timeline_figure(
            figs["memory-pinning"], bucket=10.0,
            title="Figure 4b — pinnable memory exhaustion",
        )
    )
    check("Figure 4", figs)
