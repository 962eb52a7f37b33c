"""Regenerates Figure 6: modeled unavailability and performability of the
five versions under the Table-3 fault load, at application fault rates of
1/day and 1/month."""

from repro.experiments.performability import format_figure6, run_figure6

from .claims import check
from .conftest import run_once


def test_figure6(benchmark, bench_settings, campaign):
    rows = run_once(benchmark, lambda: run_figure6(bench_settings))
    print()
    print(format_figure6(rows))
    check("Figure 6", rows)
