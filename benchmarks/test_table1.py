"""Regenerates Table 1: near-peak throughput of the five PRESS versions."""

from repro.experiments.table1 import format_table1, run_table1

from .claims import check
from .conftest import run_once


def test_table1(benchmark, bench_settings):
    rows = run_once(benchmark, lambda: run_table1(bench_settings))
    print()
    print(format_table1(rows))
    check("Table 1", rows)
