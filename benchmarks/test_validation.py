"""EXTENSION: validate the phase-2 analytic model against direct
simulation — something the paper inherits from [26] on faith.

Two checks:

* **sequential** — one long run with a roster of widely-spaced faults;
  measured availability should match the sum of independently measured
  single-fault losses (the additivity assumption);
* **Monte Carlo** — Poisson fault arrivals at accelerated rates; the
  model is evaluated at the same rates (the single-fault-queueing
  assumption now also in play).

Findings (also recorded in EXPERIMENTS.md): additivity holds when the
cluster has capacity headroom; at high
utilization post-recovery re-balancing extends beyond the observed
stages and the model turns optimistic; under heavy acceleration,
overlapping faults truncate each other's damage and the model turns
pessimistic.
"""

import dataclasses

import pytest

from repro.core.faultload import DAY, FaultLoad
from repro.experiments.validation import (
    run_monte_carlo,
    run_sequential_validation,
)

from .claims import check
from .conftest import run_once


@pytest.fixture(scope="module")
def validation_settings(bench_settings):
    # Sub-saturation, as the paper's stable-throughput precondition
    # requires; replications already folded into the profile cache.
    return dataclasses.replace(bench_settings, utilization=0.72)


def test_validation_sequential(benchmark, validation_settings):
    def run_both():
        return {
            v: run_sequential_validation(v, validation_settings, spacing=500.0)
            for v in ("TCP-PRESS", "VIA-PRESS-5")
        }

    results = run_once(benchmark, run_both)
    print()
    print("Model validation — sequential fault roster")
    for version, r in results.items():
        print(
            f"  {version:12s} simulated AA {r.simulated_availability:.4f}"
            f"  predicted AA {r.predicted_availability:.4f}"
            f"  error/unavail {r.relative_error:.2f}"
        )
    check("model validation: sequential", results)


def test_validation_monte_carlo(benchmark, validation_settings):
    load = FaultLoad.table3(app_fault_mttf=DAY)

    def run_mc():
        return run_monte_carlo(
            "VIA-PRESS-5",
            load,
            horizon=3000.0,
            acceleration=60.0,
            settings=validation_settings,
        )

    r = run_once(benchmark, run_mc)
    print()
    print(
        f"Model validation — Monte Carlo ({r.faults_injected} random faults"
        f" over {r.horizon:.0f}s at 60x rates)"
    )
    print(
        f"  simulated AA {r.simulated_availability:.4f}"
        f"  predicted AA {r.predicted_availability:.4f}"
    )
    check("model validation: Monte Carlo", r)
