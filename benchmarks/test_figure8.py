"""Regenerates Figure 8: performability when VIA's harder programming
model is assumed to introduce extra software bugs (TCP is charged one
extra bug per month; VIA from one per day to one per month)."""

from repro.experiments.performability import format_sensitivity, run_figure8

from .claims import check
from .conftest import run_once


def test_figure8(benchmark, bench_settings, campaign):
    fig = run_once(benchmark, lambda: run_figure8(bench_settings))
    print()
    print(format_sensitivity(fig))
    check("Figure 8", fig)
