"""Validating the phase-2 model against direct simulation.

The analytic model (§2.2) *assumes* fault damage adds linearly: each
fault contributes its seven-stage losses weighted by its rate,
independent of the others.  The paper inherits that assumption from
[26]; here we can actually test it, because the substrate is a
simulator:

* :func:`run_sequential_validation` — inject a roster of faults into
  **one long run**, spaced far enough apart to recover between them, and
  compare the run's overall availability with the sum of single-fault
  losses predicted from independently measured profiles.  This isolates
  the additivity assumption from arrival statistics.

* :func:`run_monte_carlo` — draw fault arrivals as Poisson processes
  from an (accelerated) fault load, let them overlap as they may, and
  compare measured availability against the model evaluated at the same
  accelerated rates.  This additionally stresses the
  single-fault-at-a-time queueing assumption.

Both validators configure the cluster so recovery timings match the
model's world: application restarts and node reboots take the Table-3
MTTR (3 minutes) rather than the compressed values phase-1 timelines use,
and active fault periods last one MTTR.  The fault roster deliberately
avoids faults whose profiles carry an operator-wait stage (E) for the
validated versions, so the prediction does not hinge on operator-timing
assumptions.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Tuple

from ..core.faultload import ComponentFault, FaultLoad
from ..core.model import evaluate
from ..faults.spec import FaultKind, FaultSpec
from ..press.cluster import PressCluster
from ..press.config import ALL_VERSIONS, ALL_VERSIONS_EXTENDED
from .campaign import measure_profile_set
from .phase1 import build_cluster
from .settings import (
    DEFAULT_SETTINGS,
    DEFAULT_TARGET,
    DURATION_FAULTS,
    FAULT_MTTR,
    Phase1Settings,
)

#: Recovery timings consistent with Table 3's 3-minute MTTRs.
MTTR_SECONDS = 180.0

#: A representative mix of stall, fail-fast, and no-impact behaviours
#: whose profiles have no stage E for TCP-PRESS or the VIA versions.
SEQUENTIAL_ROSTER = (
    FaultKind.APP_CRASH,
    FaultKind.KERNEL_MEMORY,
    FaultKind.BAD_PARAM_NULL,
    FaultKind.APP_HANG,
)


@dataclass
class ValidationResult:
    version: str
    simulated_availability: float
    predicted_availability: float
    faults_injected: int
    horizon: float

    @property
    def absolute_error(self) -> float:
        return abs(self.simulated_availability - self.predicted_availability)

    @property
    def relative_error(self) -> float:
        """Error relative to the predicted *unavailability* (the model's
        output quantity — availabilities are all ≈ 1)."""
        u = 1.0 - self.predicted_availability
        if u <= 0:
            return self.absolute_error
        return self.absolute_error / u


def _mttr_faithful_cluster(
    config, settings: Phase1Settings, seed_offset: int
) -> PressCluster:
    return build_cluster(
        config,
        dataclasses.replace(
            settings,
            seed=settings.seed + seed_offset,
            restart_delay=MTTR_SECONDS,
            reboot_time=MTTR_SECONDS,
        ),
    )


def _mttr_settings(settings: Phase1Settings) -> Phase1Settings:
    """Phase-1 settings whose recovery timings match the MTTR world.

    Crucially this raises the restart delay to the MTTR so stage C's
    *throughput* is measured over the true outage plateau (§2.1: the
    fault must last long enough for every stage to be observed), not over
    the seconds before a fast supervisor restart.
    """
    return dataclasses.replace(
        settings,
        fault_duration=MTTR_SECONDS,
        post_recovery=100.0,
        restart_delay=MTTR_SECONDS,
        reboot_time=MTTR_SECONDS,
    )


def run_sequential_validation(
    version: str,
    settings: Phase1Settings = DEFAULT_SETTINGS,
    spacing: float = 320.0,
    roster: Tuple[FaultKind, ...] = SEQUENTIAL_ROSTER,
    target: str = DEFAULT_TARGET,
) -> ValidationResult:
    """One long run with ``roster`` injected every ``spacing`` seconds."""
    config = ALL_VERSIONS_EXTENDED[version]
    cluster = _mttr_faithful_cluster(config, settings, seed_offset=7)
    cluster.start()
    warm_end = settings.warm + 20.0
    cluster.run_until(warm_end)
    tn = cluster.measured_rate(settings.warm, warm_end)

    slots: List[Tuple[float, FaultKind]] = []
    t = warm_end + 10.0
    for kind in roster:
        slots.append((t, kind))
        duration = MTTR_SECONDS if kind in DURATION_FAULTS else 0.0
        cluster.mendosus.schedule(
            FaultSpec(kind=kind, target=target, at=t, duration=duration)
        )
        t += spacing
    horizon_end = t
    cluster.run_until(horizon_end)
    measured = cluster.monitor.availability()

    # Prediction: sum the independently measured single-fault losses.
    profiles = measure_profile_set(
        version, _mttr_settings(settings), faults=tuple(set(roster))
    )
    lost_predicted = sum(
        profiles.get(kind.value).lost_work for _at, kind in slots
    )
    total_requests = tn * horizon_end
    predicted = 1.0 - lost_predicted / max(total_requests, 1e-9)

    return ValidationResult(
        version=version,
        simulated_availability=measured,
        predicted_availability=max(0.0, min(1.0, predicted)),
        faults_injected=len(slots),
        horizon=horizon_end,
    )


# ---------------------------------------------------------------------------
# Monte Carlo validation
# ---------------------------------------------------------------------------

MONTE_CARLO_KINDS = SEQUENTIAL_ROSTER


def run_monte_carlo(
    version: str,
    load: FaultLoad,
    horizon: float = 4000.0,
    acceleration: float = 60.0,
    settings: Phase1Settings = DEFAULT_SETTINGS,
) -> ValidationResult:
    """Random fault arrivals at ``acceleration``× the load's rates.

    The model is evaluated at the *same* accelerated rates for an
    apples-to-apples comparison; keep ``acceleration`` low enough that
    the model's total degraded-time fraction stays well below 1.
    """
    config = ALL_VERSIONS_EXTENDED[version]
    cluster = _mttr_faithful_cluster(config, settings, seed_offset=31)
    rng = cluster.rng.stream("monte-carlo-faults")
    cluster.start()

    kinds = set(MONTE_CARLO_KINDS)
    components = [c for c in load if c.kind in kinds and c.profile_key is None]

    arrivals: List[Tuple[float, ComponentFault]] = []
    for component in components:
        rate = acceleration / component.mttf
        t = 60.0 + rng.expovariate(rate)
        while t < horizon - 300.0:  # leave room to recover at the end
            arrivals.append((t, component))
            t += rng.expovariate(rate)
    arrivals.sort(key=lambda pair: pair[0])

    for at, component in arrivals:
        target = rng.choice(cluster.node_ids)
        duration = MTTR_SECONDS if component.kind in DURATION_FAULTS else 0.0
        cluster.mendosus.schedule(
            FaultSpec(kind=component.kind, target=target, at=at, duration=duration)
        )
    cluster.run_until(horizon)
    measured = cluster.monitor.availability()

    profiles = measure_profile_set(
        version, _mttr_settings(settings), faults=tuple(kinds)
    )
    accelerated = FaultLoad(
        components=tuple(
            dataclasses.replace(c, mttf=c.mttf / acceleration)
            for c in components
        )
    )
    predicted = evaluate(profiles, accelerated).availability

    return ValidationResult(
        version=version,
        simulated_availability=measured,
        predicted_availability=predicted,
        faults_injected=len(arrivals),
        horizon=horizon,
    )
