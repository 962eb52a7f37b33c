"""Adaptive replication: the per-stream stopping rule.

Campaign cost used to scale linearly with a fixed ``replications`` count
— wasteful for low-variance cells and statistically weak for
high-variance ones.  Following the adaptive-stopping-rule approach of
Mittal et al. (SC'23 workshops; the design SHARP's ``repeaters`` module
implements), each campaign *stream* — the replication series of one
(version, fault-or-baseline) pair — may instead be extended one
replication at a time until its metric is statistically stable.

:class:`ReplicationRule` is the one rule.  It runs ``min_reps``
replications, and with ``max_reps == min_reps`` stops there (the fixed
mode).  Otherwise it stops once the Student-t confidence interval's
half width, relative to the mean, falls to a target, or at ``max_reps``
(reported as such, so an unconverged stream is visible rather than
silent).  The interval the rule converged on is the per-stream band
that gets reported.

Everything here is pure arithmetic over the sample lists — no
simulation, no randomness — so adaptive campaigns stay exactly as
deterministic as fixed ones: the same payloads produce the same
decisions, serial or parallel, cold or warm-started.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

#: Stopping reasons recorded per stream (persisted in the result store
#: and asserted identical across runs by
#: ``test_adaptive_campaign_is_itself_deterministic``).
REASON_FIXED = "fixed-count"
REASON_CONVERGED = "converged"
REASON_MAX_REPS = "max-reps"

#: Confidence level of the Student-t interval the rule converges on.
CONFIDENCE = 0.95


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
# The replication rule
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
    half_width: float  #: Student-t CI half width at :data:`CONFIDENCE`


class ReplicationRule:
    """Decides, per stream, whether another replication is needed.

    A stream runs at least ``min_reps`` replications.  With
    ``max_reps == min_reps`` that is all it runs (``fixed-count``);
    otherwise it is extended one replication at a time until the
    Student-t CI half width, relative to the mean, is at or below
    ``target`` (``converged``) or ``max_reps`` is reached
    (``max-reps``).  A stream never converges on fewer than two samples:
    one sample has no variance estimate, so its zero half width says
    nothing.
    """

    def __init__(self, min_reps: int, max_reps: int, target: float = 0.02):
        if min_reps < 1:
            raise ValueError(
                f"min_reps must be >= 1 (got {min_reps}): every stream "
                "needs at least one replication"
            )
        if max_reps < min_reps:
            raise ValueError(
                f"max_reps ({max_reps}) must be >= min_reps ({min_reps})"
            )
        if target <= 0.0:
            raise ValueError(
                f"CI half-width target must be positive, got {target}"
            )
        self.min_reps = int(min_reps)
        self.max_reps = int(max_reps)
        self.target = float(target)

    @property
    def name(self) -> str:
        """``"fixed"`` or ``"ci"``: the policy reports and stores print."""
        return "ci" if self.max_reps > self.min_reps else "fixed"

    def key(self) -> tuple:
        """Stable identity tuple (the store's repetition-summary key)."""
        return (self.name, self.min_reps, self.max_reps, self.target)

    def decide(self, samples: Sequence[float]) -> Decision:
        n = len(samples)
        mean, std = sample_stats(samples)
        half = ci_half_width(samples, CONFIDENCE)
        stop = n >= self.min_reps
        if not stop:
            reason = "below-min-reps"
        elif self.max_reps == self.min_reps:
            reason = REASON_FIXED
        elif n >= 2 and _converged(mean, half, self.target):
            reason = REASON_CONVERGED
        elif n >= self.max_reps:
            reason = REASON_MAX_REPS
        else:
            stop, reason = False, "unconverged"
        return Decision(
            stop=stop,
            reason=reason,
            n=n,
            mean=mean,
            std=std,
            rse=relative_standard_error(samples),
            half_width=half,
        )


def _converged(mean: float, half_width: float, target: float) -> bool:
    """Is the CI half width, relative to the mean, at or below target?
    (A zero mean converges only on a zero-width interval.)"""
    if mean == 0.0:
        return half_width == 0.0
    return half_width / abs(mean) <= target


def run_rule(
    rule: ReplicationRule,
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
