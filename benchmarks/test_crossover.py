"""Regenerates the §9 headline: faults in a VIA-based server (switch,
link, and application errors) must occur at approximately **4×** the rate
of a TCP-based system before their performabilities equalize.
"""

import pytest

from repro.analysis.report import crossover_summary
from repro.experiments.campaign import full_campaign_with_report
from repro.experiments.performability import crossover_bands, run_crossover

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
    print("replicate bands:")
    print(crossover_summary(crossover_bands(sets, report.replicates),
                            report.replicates))

    # The multiplier is noise-sensitive (log-scale metric over measured
    # stall profiles); across seeds it lands in roughly 4-8x.  The
    # paper's qualitative claim — a *several-fold* rate disadvantage is
    # needed before TCP wins — reproduces.
    for version, m in multipliers.items():
        assert 2.0 <= m <= 10.0, (version, m)
    mean = sum(multipliers.values()) / len(multipliers)
    assert mean == pytest.approx(4.0, rel=1.0)
