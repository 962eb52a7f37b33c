"""Regenerates Figure 3: throughput under a node crash (hard reboot).

TCP-PRESS grinds to a halt, the rebooted node's rejoin is disregarded
(the timing hole), and it ends up a stranded singleton; TCP-PRESS-HB
detects via heartbeats and the VIA versions via broken connections, both
run 3-node during the outage and re-integrate the node after reboot.
"""

from repro.experiments.timelines import format_timeline_figure, run_figure3

from .claims import check
from .conftest import run_once


def test_figure3(benchmark, bench_settings):
    fig = run_once(benchmark, lambda: run_figure3(bench_settings))
    print()
    print(format_timeline_figure(fig, bucket=10.0, title="Figure 3 — node crash"))
    check("Figure 3", fig)
