"""Regenerates Figure 2: throughput under a transient link failure.

TCP-PRESS stalls through the fault without reconfiguring; TCP-PRESS-HB
and the VIA versions splinter into 3+1 (HB at the heartbeat threshold,
VIA almost at once) and never re-merge on their own.
"""

from repro.experiments.timelines import format_timeline_figure, run_figure2

from .claims import check
from .conftest import run_once


def test_figure2(benchmark, bench_settings):
    fig = run_once(benchmark, lambda: run_figure2(bench_settings))
    print()
    print(format_timeline_figure(fig, bucket=10.0, title="Figure 2 — link failure"))
    check("Figure 2", fig)
