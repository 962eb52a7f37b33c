"""Regenerates Figure 9: performability when the immaturity of the VIA
networking subsystem causes occasional system crashes, modeled as switch
crashes (1/week, 1/month, 1/3-months); TCP on mature Ethernet is charged
none."""

from repro.experiments.performability import format_sensitivity, run_figure9

from .claims import check
from .conftest import run_once


def test_figure9(benchmark, bench_settings, campaign):
    fig = run_once(benchmark, lambda: run_figure9(bench_settings))
    print()
    print(format_sensitivity(fig))
    check("Figure 9", fig)
