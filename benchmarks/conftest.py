"""Benchmark fixtures.

The table/figure benchmarks are regeneration harnesses: each runs the
experiment that reproduces one exhibit of the paper, times it with
pytest-benchmark (single round — these are simulations, not
microbenchmarks), prints the reproduced rows so
``pytest benchmarks/ --benchmark-only -s`` doubles as the paper's results
section, and asserts the exhibit's rows of the claims table
(``claims.py``).  A session that measured and passed every row rewrites
the claims blocks of EXPERIMENTS.md and README.md.
"""

from __future__ import annotations

import pytest

from repro.experiments.settings import Phase1Settings
from repro.press.cluster import SMOKE_SCALE

from . import claims

#: Compressed but fully-featured experiment layout for the benches.
BENCH_SETTINGS = Phase1Settings(
    scale=SMOKE_SCALE,
    seed=7,
    warm=15.0,
    fault_at=30.0,
    fault_duration=40.0,
    post_recovery=60.0,
    tail=40.0,
)


def pytest_addoption(parser):
    group = parser.getgroup("campaign", "phase-1 campaign execution")
    group.addoption(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for campaign cells (1 = serial)",
    )
    group.addoption(
        "--cache-dir",
        default=None,
        help="persist campaign cell results here so repeated benchmark "
        "runs skip the simulations entirely",
    )


@pytest.fixture(scope="session")
def bench_settings() -> Phase1Settings:
    return BENCH_SETTINGS


@pytest.fixture(scope="session")
def campaign(request, bench_settings):
    """The full phase-1 campaign, shared by the figure-6..10 benches.

    ``--jobs N`` fans the cells out over N worker processes and
    ``--cache-dir DIR`` persists them, so one warm campaign serves every
    figure benchmark across runs.
    """
    from repro.experiments.campaign import configure, full_campaign
    from repro.experiments.store import open_store

    jobs = request.config.getoption("--jobs")
    cache_dir = request.config.getoption("--cache-dir")
    # Configure process-wide so non-fixture campaigns (e.g. validation
    # benches calling measure_profile_set internally) also benefit.
    configure(store=open_store(cache_dir) if cache_dir else None, jobs=jobs)
    return full_campaign(bench_settings)


def run_once(benchmark, fn):
    """Run a simulation-scale benchmark exactly once."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def pytest_sessionfinish(session, exitstatus):
    measured_all = set(claims.MEASURED) == {c.id for c in claims.CLAIMS}
    if exitstatus == 0 and measured_all:
        claims.write_docs()
