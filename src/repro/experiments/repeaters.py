"""Adaptive replication: stopping rules and a campaign rep allocator.

Campaign cost used to scale linearly with a fixed ``replications`` count
— wasteful for low-variance cells and statistically weak for
high-variance ones.  Following the adaptive-stopping-rule approach of
Mittal et al. (SC'23 workshops; the design SHARP's ``repeaters`` module
implements), each campaign *stream* — the replication series of one
(version, fault-or-baseline) pair — is instead extended one replication
at a time until its metric is statistically stable:

* :class:`FixedCountRule` — run exactly N replications (the legacy
  behaviour; ``min == max == N``).
* :class:`RelativeStandardErrorRule` — stop once the relative standard
  error of the mean, ``(s / sqrt(n)) / |mean|``, falls below a target.
* :class:`CIHalfWidthRule` — stop once the Student-t confidence
  interval's half width, relative to the mean, falls below a target.
  This is the rule the paper-style AT/AA/P bands are built from: the
  interval the rule converged on is the band that gets reported.

Every rule is bounded by ``min_reps``/``max_reps``: it never stops
before ``min_reps`` samples exist (a variance estimate from one or two
points is noise) and always stops at ``max_reps`` (reported as such, so
an unconverged stream is visible rather than silent).

On top of the per-stream rules sits :class:`RepBudget`: a campaign-level
allocator that spends a global budget of *extra* replications (beyond
each stream's ``min_reps``) on the highest-dispersion streams first, so
a thousand-cell sweep can cap its total cost and still put the
replications where they buy the most variance reduction.

Everything here is pure arithmetic over the sample lists — no
simulation, no randomness — so adaptive campaigns stay exactly as
deterministic as fixed ones: the same payloads produce the same
decisions, serial or parallel, cold or warm-started.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

#: Stopping reasons recorded per stream (persisted in the result store
#: and asserted identical across runs by
#: ``test_adaptive_campaign_is_itself_deterministic``).
REASON_FIXED = "fixed-count"
REASON_CONVERGED = "converged"
REASON_MAX_REPS = "max-reps"
REASON_BUDGET = "budget-exhausted"


# ----------------------------------------------------------------------
# Student-t arithmetic (no scipy in the image; stdlib math only)
# ----------------------------------------------------------------------


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the regularized incomplete beta function,
    evaluated with the modified Lentz method."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 200):
        m2 = 2 * m
        # Even step.
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        # Odd step.
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 3e-15:
            break
    return h


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    # The continued fraction converges fast only below the distribution
    # mode; use the symmetry relation on the other side.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - math.exp(
        math.lgamma(a + b)
        - math.lgamma(b)
        - math.lgamma(a)
        + b * math.log(1.0 - x)
        + a * math.log(x)
    ) * _betacf(b, a, 1.0 - x) / b


def student_t_cdf(t: float, df: int) -> float:
    """CDF of Student's t distribution with ``df`` degrees of freedom."""
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive (got {df})")
    x = df / (df + t * t)
    p = 0.5 * _betainc(df / 2.0, 0.5, x)
    return 1.0 - p if t >= 0 else p

def student_t_quantile(p: float, df: int) -> float:
    """Inverse CDF of Student's t: the two-sided CI multiplier is
    ``student_t_quantile(1 - alpha / 2, n - 1)``."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile probability must be in (0, 1), got {p}")
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive (got {df})")
    if df > 200:
        # Indistinguishable from normal at double precision tolerances
        # that matter here, and the normal inverse is exact in stdlib.
        from statistics import NormalDist

        return NormalDist().inv_cdf(p)
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -student_t_quantile(1.0 - p, df)
    # Bisection on the CDF: monotone, and the bracket grows until it
    # straddles (heavy df=1 tails need a wide one).
    lo, hi = 0.0, 2.0
    while student_t_cdf(hi, df) < p:
        hi *= 2.0
        if hi > 1e9:  # pragma: no cover - p astronomically close to 1
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if student_t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def sample_stats(samples: Sequence[float]) -> Tuple[float, float]:
    """(mean, sample standard deviation); std is 0.0 below two samples."""
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    mean = math.fsum(samples) / n
    if n < 2:
        return mean, 0.0
    var = math.fsum((x - mean) ** 2 for x in samples) / (n - 1)
    return mean, math.sqrt(var)


def ci_half_width(samples: Sequence[float], confidence: float) -> float:
    """Student-t half width of the two-sided CI of the mean; 0.0 below
    two samples (no variance estimate exists yet)."""
    n = len(samples)
    if n < 2:
        return 0.0
    _, std = sample_stats(samples)
    t = student_t_quantile(0.5 + confidence / 2.0, n - 1)
    return t * std / math.sqrt(n)


def relative_standard_error(samples: Sequence[float]) -> float:
    """RSE of the mean: ``(s / sqrt(n)) / |mean|``.

    Zero-variance samples have RSE 0 whatever the mean; a zero mean with
    nonzero variance is infinitely unstable.
    """
    mean, std = sample_stats(samples)
    if std == 0.0:
        return 0.0
    if mean == 0.0:
        return math.inf
    return (std / math.sqrt(len(samples))) / abs(mean)


# ----------------------------------------------------------------------
# Decisions and rules
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Decision:
    """One rule invocation over a stream's current samples."""

    stop: bool
    reason: str  # REASON_* once stopped; diagnostic hint while running
    n: int
    mean: float
    std: float
    rse: float
    half_width: float  #: Student-t CI half width at the rule's confidence

    @property
    def rel_half_width(self) -> float:
        if self.mean == 0.0:
            return math.inf if self.half_width > 0 else 0.0
        return self.half_width / abs(self.mean)

    #: The allocator ranks continue-requests by this: streams whose mean
    #: is least pinned down get the next replication first.
    @property
    def dispersion(self) -> float:
        return max(self.rse, self.rel_half_width)


class StoppingRule:
    """Decides, per stream, whether another replication is needed."""

    name: str = "rule"

    def __init__(self, min_reps: int, max_reps: int, confidence: float = 0.95):
        if min_reps < 1:
            raise ValueError(
                f"min_reps must be >= 1 (got {min_reps}): every stream "
                "needs at least one replication"
            )
        if max_reps < min_reps:
            raise ValueError(
                f"max_reps ({max_reps}) must be >= min_reps ({min_reps})"
            )
        if not 0.0 < confidence < 1.0:
            raise ValueError(
                f"confidence must be in (0, 1), got {confidence}"
            )
        self.min_reps = int(min_reps)
        self.max_reps = int(max_reps)
        self.confidence = float(confidence)

    # -- shared bookkeeping -------------------------------------------
    def _decision(
        self, samples: Sequence[float], stop: bool, reason: str
    ) -> Decision:
        mean, std = sample_stats(samples)
        return Decision(
            stop=stop,
            reason=reason,
            n=len(samples),
            mean=mean,
            std=std,
            rse=relative_standard_error(samples),
            half_width=ci_half_width(samples, self.confidence),
        )

    def decide(self, samples: Sequence[float]) -> Decision:
        n = len(samples)
        if n < self.min_reps:
            return self._decision(samples, False, "below-min-reps")
        converged = self.converged(samples)
        if converged:
            return self._decision(samples, True, self.stop_reason())
        if n >= self.max_reps:
            return self._decision(samples, True, REASON_MAX_REPS)
        return self._decision(samples, False, "unconverged")

    # -- rule-specific ------------------------------------------------
    def converged(self, samples: Sequence[float]) -> bool:
        raise NotImplementedError

    def stop_reason(self) -> str:
        return REASON_CONVERGED


class FixedCountRule(StoppingRule):
    """Exactly N replications — the legacy ``replications: int`` mode."""

    name = "fixed"

    def __init__(self, count: int, confidence: float = 0.95):
        super().__init__(count, count, confidence)

    def converged(self, samples: Sequence[float]) -> bool:
        return len(samples) >= self.max_reps

    def stop_reason(self) -> str:
        return REASON_FIXED


class RelativeStandardErrorRule(StoppingRule):
    """Stop when the RSE of the mean drops to ``target`` or below."""

    name = "rse"

    def __init__(
        self,
        target: float = 0.05,
        min_reps: int = 3,
        max_reps: int = 10,
        confidence: float = 0.95,
    ):
        super().__init__(min_reps, max_reps, confidence)
        if target <= 0.0:
            raise ValueError(f"RSE target must be positive, got {target}")
        self.target = float(target)

    def converged(self, samples: Sequence[float]) -> bool:
        return relative_standard_error(samples) <= self.target


class CIHalfWidthRule(StoppingRule):
    """Stop when the Student-t CI half width, relative to the mean,
    drops to ``target`` or below."""

    name = "ci"

    def __init__(
        self,
        target: float = 0.02,
        min_reps: int = 3,
        max_reps: int = 10,
        confidence: float = 0.95,
    ):
        super().__init__(min_reps, max_reps, confidence)
        if target <= 0.0:
            raise ValueError(
                f"CI half-width target must be positive, got {target}"
            )
        self.target = float(target)

    def converged(self, samples: Sequence[float]) -> bool:
        mean, _ = sample_stats(samples)
        half = ci_half_width(samples, self.confidence)
        if mean == 0.0:
            return half == 0.0
        return half / abs(mean) <= self.target


# ----------------------------------------------------------------------
# Campaign-level budget allocation
# ----------------------------------------------------------------------


class RepBudget:
    """A global budget of extra replications (beyond every stream's
    ``min_reps``), spent highest-dispersion-first.

    ``None`` means unbounded — every stream replicates until its rule
    stops it.  The allocator is deterministic: requests are ranked by
    ``(dispersion descending, stream label ascending)``, so two runs of
    the same campaign always grant the same replications.
    """

    def __init__(self, budget: Optional[int]):
        if budget is not None and budget < 0:
            raise ValueError(f"rep budget must be >= 0, got {budget}")
        self.budget = budget
        self.spent = 0
        self.denied = 0

    @property
    def remaining(self) -> Optional[int]:
        if self.budget is None:
            return None
        return max(0, self.budget - self.spent)

    def allocate(
        self, requests: Sequence[Tuple[str, Decision]]
    ) -> Tuple[List[str], List[str]]:
        """Split continue-requests into (granted, denied) stream labels.

        ``requests`` is ``(label, decision)`` per stream whose rule asked
        for another replication this wave.  Grants debit the budget;
        denials are terminal for the stream (the budget only shrinks).
        """
        ranked = sorted(
            requests, key=lambda item: (-item[1].dispersion, item[0])
        )
        granted: List[str] = []
        denied: List[str] = []
        for label, _decision in ranked:
            if self.remaining is None or self.remaining > 0:
                self.spent += 1
                granted.append(label)
            else:
                self.denied += 1
                denied.append(label)
        return granted, denied


def make_rule(policy) -> StoppingRule:
    """Build the stopping rule a :class:`RepetitionPolicy` describes.

    (Imported lazily by type to keep settings ↔ repeaters dependency-
    free in both directions.)
    """
    if policy.rule == "fixed":
        return FixedCountRule(policy.max_reps, confidence=policy.confidence)
    if policy.rule == "rse":
        return RelativeStandardErrorRule(
            target=policy.rse_target,
            min_reps=policy.min_reps,
            max_reps=policy.max_reps,
            confidence=policy.confidence,
        )
    if policy.rule == "ci":
        return CIHalfWidthRule(
            target=policy.ci_rel_half_width,
            min_reps=policy.min_reps,
            max_reps=policy.max_reps,
            confidence=policy.confidence,
        )
    raise ValueError(
        f"unknown repetition rule {policy.rule!r}; "
        "expected 'fixed', 'rse', or 'ci'"
    )


def run_rule(
    rule: StoppingRule,
    sampler: Callable[[int], float],
) -> Tuple[List[float], Decision]:
    """Drive one rule over a synthetic sample source until it stops.

    ``sampler(i)`` produces the i-th replication's metric.  This is the
    harness the statistical tests (and EXPERIMENTS.md examples) use to
    study rule behaviour on known distributions without simulating.
    """
    samples: List[float] = []
    while True:
        samples.append(float(sampler(len(samples))))
        decision = rule.decide(samples)
        if decision.stop:
            return samples, decision
