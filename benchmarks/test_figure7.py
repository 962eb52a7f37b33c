"""Regenerates Figure 7: performability when transient packet drops are
charged to the VIA versions only (each drop is reported as a fatal error
and the process terminates itself); TCP tolerates drops by design."""

from repro.experiments.performability import format_sensitivity, run_figure7

from .claims import check
from .conftest import run_once


def test_figure7(benchmark, bench_settings, campaign):
    fig = run_once(benchmark, lambda: run_figure7(bench_settings))
    print()
    print(format_sensitivity(fig))
    check("Figure 7", fig)
