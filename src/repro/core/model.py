"""Phase 2: the analytic availability/performance model.

Given (a) a :class:`SevenStageProfile` per fault type (phase-1 output)
and (b) a :class:`FaultLoad` (MTTF/MTTR per component), compute the
expected average throughput and availability:

.. math::

    AT = (1 - \\sum_c W_c) T_n
         + \\sum_c \\sum_{s=A}^{G} \\frac{D_c^s}{MTTF_c} T_c^s,
    \\qquad
    AA = \\frac{AT}{T_n},
    \\qquad
    W_c = \\frac{\\sum_s D_c^s}{MTTF_c}

Assumptions inherited from the paper: faults are uncorrelated, arrivals
are exponential, and faults queue so only one is in effect at a time —
which is what lets the degraded-time fractions simply add.  (The
denominator of :math:`W_c` being MTTF rather than MTTF+MTTR is correct
because the stage durations within the profile already account for the
repair interval; see the paper's footnote 1 and [26].)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from .faultload import ComponentFault, FaultLoad
from .stages import STAGES, SevenStageProfile


class MissingProfile(KeyError):
    """The fault load references a fault with no measured profile."""


@dataclass(frozen=True)
class FaultContribution:
    """One component's share of the damage."""

    name: str
    profile_key: str
    weight: float  # W_c: fraction of time in this fault's degraded modes
    throughput_loss: float  # req/s of AT lost to this fault
    unavailability: float  # contribution to 1 - AA


@dataclass(frozen=True)
class PerformabilityResult:
    """The model's full output for one (version, fault load) pair."""

    version: str
    normal_throughput: float
    average_throughput: float
    availability: float
    contributions: List[FaultContribution] = field(default_factory=list)

    @property
    def unavailability(self) -> float:
        return 1.0 - self.availability

    def grouped_unavailability(
        self, grouping: Mapping[str, str]
    ) -> Dict[str, float]:
        """Aggregate contributions by ``grouping[name] -> group label``
        (Figure 6(a)'s stacked bars)."""
        out: Dict[str, float] = {}
        for c in self.contributions:
            group = grouping.get(c.name, c.name)
            out[group] = out.get(group, 0.0) + c.unavailability
        return out


class ProfileSet:
    """The phase-1 measurements for one PRESS version: profiles by key."""

    def __init__(self, version: str, normal_throughput: float):
        if normal_throughput <= 0:
            raise ValueError("normal throughput must be positive")
        self.version = version
        self.normal_throughput = normal_throughput
        self._profiles: Dict[str, SevenStageProfile] = {}

    def add(self, profile: SevenStageProfile) -> None:
        self._profiles[profile.fault] = profile

    def get(self, key: str) -> SevenStageProfile:
        try:
            return self._profiles[key]
        except KeyError:
            raise MissingProfile(
                f"{self.version}: no measured profile for fault {key!r}"
            ) from None

    def __contains__(self, key: str) -> bool:
        return key in self._profiles

    def keys(self):
        return self._profiles.keys()

    def __len__(self) -> int:
        return len(self._profiles)

    # ------------------------------------------------------------------
    # Serialization (store round-trips and cross-process merging)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "normal_throughput": self.normal_throughput,
            "profiles": {
                key: self._profiles[key].to_dict()
                for key in sorted(self._profiles)
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProfileSet":
        out = cls(data["version"], float(data["normal_throughput"]))
        for payload in data["profiles"].values():
            out.add(SevenStageProfile.from_dict(payload))
        return out

    def isclose(self, other: "ProfileSet", rel_tol: float = 1e-9) -> bool:
        """Numeric equality within ``rel_tol`` (float-tolerant comparison
        between e.g. a serial and a parallel campaign of the same seed)."""
        import math

        if self.version != other.version:
            return False
        if not math.isclose(
            self.normal_throughput, other.normal_throughput, rel_tol=rel_tol
        ):
            return False
        if set(self.keys()) != set(other.keys()):
            return False
        for key in self.keys():
            a, b = self.get(key), other.get(key)
            for stage in STAGES:
                if not math.isclose(
                    a.duration(stage), b.duration(stage),
                    rel_tol=rel_tol, abs_tol=1e-12,
                ):
                    return False
                if not math.isclose(
                    a.throughput(stage), b.throughput(stage),
                    rel_tol=rel_tol, abs_tol=1e-12,
                ):
                    return False
        return True


def evaluate(
    profiles: ProfileSet, load: FaultLoad
) -> PerformabilityResult:
    """Run the phase-2 model: combine profiles with a fault load."""
    tn = profiles.normal_throughput
    normal_fraction = 1.0
    degraded_throughput = 0.0
    contributions: List[FaultContribution] = []

    for component in load:
        profile = profiles.get(component.key)
        weight = profile.total_duration / component.mttf
        if weight > 1.0:
            raise ValueError(
                f"fault {component.name}: degraded time exceeds MTTF"
                f" (w={weight:.3f}); the single-fault queueing assumption"
                " is violated"
            )
        normal_fraction -= weight
        stage_throughput = sum(
            profile.duration(s) / component.mttf * profile.throughput(s)
            for s in STAGES
        )
        degraded_throughput += stage_throughput
        loss = weight * tn - stage_throughput
        contributions.append(
            FaultContribution(
                name=component.name,
                profile_key=component.key,
                weight=weight,
                throughput_loss=loss,
                unavailability=loss / tn,
            )
        )

    if normal_fraction < 0:
        raise ValueError(
            "combined fault load leaves no normal-operation time; "
            "the additive model does not apply"
        )
    at = min(normal_fraction * tn + degraded_throughput, tn)  # FP guard
    return PerformabilityResult(
        version=profiles.version,
        normal_throughput=tn,
        average_throughput=at,
        availability=at / tn,
        contributions=contributions,
    )
