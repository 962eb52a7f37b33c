"""Regenerates the §9 headline: how much more often faults in a VIA-based
server (switch, link, and application errors) may occur than in a
TCP-based one before their performabilities equalize."""

from repro.analysis.report import crossover_summary
from repro.experiments.campaign import full_campaign_with_report
from repro.experiments.performability import crossover_bands, run_crossover

from .claims import check
from .conftest import run_once


def test_crossover(benchmark, bench_settings, campaign):
    multipliers = run_once(benchmark, lambda: run_crossover(bench_settings))
    print()
    print("§9 crossover multipliers (VIA fault rate vs. TCP-PRESS):")
    for version, m in multipliers.items():
        print(f"  {version:14s} {m:5.2f}x   (paper: ~4x)")
    # The same campaign again, from the session store: its replicates
    # give the band without re-simulating.
    sets, report = full_campaign_with_report(bench_settings)
    bands = crossover_bands(sets, report.replicates)
    print("replicate bands:")
    print(crossover_summary(bands, report.replicates))
    check("§9 crossover", bands)
