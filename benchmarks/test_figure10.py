"""Regenerates Figure 10: the combined pessimistic VIA fault load —
packet drops 1/month + extra application bugs 1/2-weeks + system failures
1/month."""

from repro.experiments.performability import format_sensitivity, run_figure10

from .claims import check
from .conftest import run_once


def test_figure10(benchmark, bench_settings, campaign):
    fig = run_once(benchmark, lambda: run_figure10(bench_settings))
    print()
    print(format_sensitivity(fig))
    check("Figure 10", fig)
