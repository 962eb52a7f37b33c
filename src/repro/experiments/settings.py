"""Shared experiment settings and per-fault scenario parameters."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core.extract import DEFAULT_ENVIRONMENT, Environment
from ..core.faultload import HOUR, MINUTE
from ..faults.spec import FaultKind
from ..press.cluster import ExperimentScale, SMOKE_SCALE

#: Stopping rules a campaign can replicate under (see
#: :mod:`repro.experiments.repeaters` for the arithmetic).
REPETITION_RULES = ("fixed", "rse", "ci")


@dataclass(frozen=True)
class RepetitionPolicy:
    """How many replications each campaign stream runs, and why it stops.

    ``rule="fixed"`` reproduces the legacy behaviour: exactly
    ``max_reps`` replications per (version, fault) stream.  The adaptive
    rules (``"rse"``, ``"ci"``) run at least ``min_reps``, then extend a
    stream one replication at a time until its metric is statistically
    stable — RSE of the mean, or Student-t CI half width relative to the
    mean, at or below the rule's target — or ``max_reps`` is hit.

    ``rep_budget`` (optional) caps the campaign-wide number of *extra*
    replications beyond ``min_reps``; the allocator spends it on the
    highest-variance streams first.
    """

    rule: str = "fixed"
    min_reps: int = 3
    max_reps: int = 3
    #: RSE-rule target: stop at ``(s / sqrt(n)) / |mean| <= rse_target``.
    rse_target: float = 0.05
    #: CI-rule target: stop at ``half_width / |mean| <= ci_rel_half_width``.
    ci_rel_half_width: float = 0.02
    #: Confidence level of the Student-t interval (both rules report it).
    confidence: float = 0.95
    #: Global extra-rep budget (None = unbounded).
    rep_budget: Optional[int] = None

    def __post_init__(self) -> None:
        if self.rule not in REPETITION_RULES:
            raise ValueError(
                f"repetition rule must be one of {REPETITION_RULES}, "
                f"got {self.rule!r}"
            )
        if not isinstance(self.min_reps, int) or self.min_reps < 1:
            raise ValueError(
                f"min_reps must be a positive integer (got "
                f"{self.min_reps!r}); a stream needs at least one "
                "replication"
            )
        if not isinstance(self.max_reps, int) or self.max_reps < self.min_reps:
            raise ValueError(
                f"max_reps must be an integer >= min_reps "
                f"({self.min_reps}), got {self.max_reps!r}"
            )
        if self.rse_target <= 0.0:
            raise ValueError(
                f"rse_target must be positive, got {self.rse_target}"
            )
        if self.ci_rel_half_width <= 0.0:
            raise ValueError(
                "ci_rel_half_width must be positive, got "
                f"{self.ci_rel_half_width}"
            )
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(
                f"confidence must be in (0, 1), got {self.confidence}"
            )
        if self.rep_budget is not None and (
            not isinstance(self.rep_budget, int) or self.rep_budget < 0
        ):
            raise ValueError(
                f"rep_budget must be a non-negative integer or None, "
                f"got {self.rep_budget!r}"
            )

    @property
    def adaptive(self) -> bool:
        return self.rule != "fixed"

    def key(self) -> tuple:
        """Stable identity tuple (store summary keys, cache digests)."""
        return (
            self.rule,
            self.min_reps,
            self.max_reps,
            self.rse_target,
            self.ci_rel_half_width,
            self.confidence,
            self.rep_budget,
        )


@dataclass(frozen=True)
class Phase1Settings:
    """How a single-fault experiment is laid out in time.

    The defaults compress the paper's multi-minute observation windows
    while keeping every causally-relevant timing (heartbeat threshold,
    reboot time, client timeouts) at its real value.
    """

    scale: ExperimentScale = SMOKE_SCALE
    seed: int = 7
    # The paper drives the server to a stable near-peak regime; headroom
    # would mask the degradation of splintered configurations.
    utilization: float = 0.9
    warm: float = 20.0  # settle before measuring Tn
    fault_at: float = 60.0
    fault_duration: float = 60.0  # for faults with an active period
    post_recovery: float = 80.0  # watch stages D/E develop
    tail: float = 60.0  # after the operator reset (when one happens)
    environment: Environment = DEFAULT_ENVIRONMENT
    # Phase-1 runs are replicated with distinct seeds and the fitted
    # stage profiles averaged: single-run bucket noise in the deep-stall
    # stages otherwise swings the modeled availability (and the log-scale
    # performability metric) noticeably.
    replications: int = 3
    # Recovery timings of the simulated operations environment.  The
    # compressed defaults keep phase-1 timelines short; the validation
    # experiments raise them to the Table-3 MTTR (§2.1: a fault must last
    # long enough for every stage to be observed).
    restart_delay: float = 5.0
    reboot_time: float = 60.0
    # Event-reduction fast path in the network fabric.  Results are
    # bit-identical either way (enforced by the equivalence tests);
    # ``False`` is the reference mode (`--no-fastpath`) that schedules
    # every per-hop event explicitly.
    fastpath: bool = True
    # Cluster size (`--nodes`).  The paper's testbed has 4 nodes; larger
    # clusters run in the same single event loop.
    n_nodes: int = 4
    # Replication policy.  ``None`` means "fixed at ``replications``" —
    # the legacy mode; an adaptive :class:`RepetitionPolicy` makes the
    # campaign runner extend each stream until its stopping rule fires.
    repetition: Optional[RepetitionPolicy] = None

    def __post_init__(self) -> None:
        if not isinstance(self.replications, int) or self.replications < 1:
            raise ValueError(
                f"replications must be a positive integer (got "
                f"{self.replications!r}); use replications=1 for a "
                "single run per stream"
            )
        if not isinstance(self.n_nodes, int) or self.n_nodes < 2:
            raise ValueError(
                f"n_nodes must be an integer >= 2 (got {self.n_nodes!r}); "
                "PRESS needs at least one peer to forward to"
            )

    def repetition_policy(self) -> RepetitionPolicy:
        """The effective policy: ``repetition``, or fixed-``replications``."""
        if self.repetition is not None:
            return self.repetition
        return RepetitionPolicy(
            rule="fixed",
            min_reps=self.replications,
            max_reps=self.replications,
        )

    def sim_key(self) -> tuple:
        """Everything that determines a *single cell's* simulation.

        Grid-layout knobs (``replications``, ``repetition``) are
        deliberately absent: one simulated run does not depend on how
        many siblings it has, so a fixed-10 campaign and an adaptive
        campaign over the same settings share cached cells and warm
        checkpoints — the whole point of adaptive replication is that
        the grid shape may change without invalidating the physics.
        """
        return (
            self.scale.cpu_factor,
            self.seed,
            self.utilization,
            self.warm,
            self.fault_at,
            self.fault_duration,
            self.post_recovery,
            self.tail,
            self.environment,
            self.restart_delay,
            self.reboot_time,
            # Results are mode-independent by construction, but a
            # `--no-fastpath` verification run must actually *run*, not
            # hit a cache entry produced by the mode it is checking.
            self.fastpath,
            self.n_nodes,
        )

    def cache_key(self) -> tuple:
        """Full campaign identity: the simulation key plus grid layout."""
        return self.sim_key() + (
            self.replications,
            self.repetition_policy().key(),
        )


DEFAULT_SETTINGS = Phase1Settings()

#: Default injection target: a middle node (not the lowest-id member,
#: which owns the join-response duty).
DEFAULT_TARGET = "node2"

#: Which faults have an extended active period (vs. instantaneous).
DURATION_FAULTS = {
    FaultKind.LINK_DOWN,
    FaultKind.SWITCH_DOWN,
    FaultKind.NODE_FREEZE,
    FaultKind.KERNEL_MEMORY,
    FaultKind.MEMORY_PINNING,
    FaultKind.APP_HANG,
}

#: Component repair times used when fitting stage C (Table 3 MTTRs).
FAULT_MTTR: Dict[FaultKind, float] = {
    FaultKind.LINK_DOWN: 3 * MINUTE,
    FaultKind.SWITCH_DOWN: HOUR,
    FaultKind.NODE_CRASH: 3 * MINUTE,
    FaultKind.NODE_FREEZE: 3 * MINUTE,
    FaultKind.KERNEL_MEMORY: 3 * MINUTE,
    FaultKind.MEMORY_PINNING: 3 * MINUTE,
    FaultKind.APP_CRASH: 3 * MINUTE,
    FaultKind.APP_HANG: 3 * MINUTE,
    FaultKind.BAD_PARAM_NULL: 3 * MINUTE,
    FaultKind.BAD_PARAM_OFFSET: 3 * MINUTE,
    FaultKind.BAD_PARAM_SIZE: 3 * MINUTE,
}

#: Every fault injected in the phase-1 campaign.
CAMPAIGN_FAULTS = (
    FaultKind.LINK_DOWN,
    FaultKind.SWITCH_DOWN,
    FaultKind.NODE_CRASH,
    FaultKind.NODE_FREEZE,
    FaultKind.KERNEL_MEMORY,
    FaultKind.MEMORY_PINNING,
    FaultKind.APP_CRASH,
    FaultKind.APP_HANG,
    FaultKind.BAD_PARAM_NULL,
    FaultKind.BAD_PARAM_OFFSET,
    FaultKind.BAD_PARAM_SIZE,
)
