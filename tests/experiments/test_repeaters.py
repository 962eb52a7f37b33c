"""Statistical tests for the adaptive-replication stopping rule.

The rule is pure arithmetic over sample lists, so it can be driven
with synthetic distributions (constant, normal, heavy-tailed lognormal,
bimodal) far faster than with simulations.  Three families of claims:

* bounds — the rule terminates within ``max_reps`` and never stops
  below ``min_reps``, for arbitrary sample sequences (hypothesis);
* convergence — on concrete distributions the adaptive mode spends
  replications where the variance is, and the fixed mode ignores it;
* calibration — the Student-t arithmetic matches published critical
  values, and CI coverage across seeded trials lands near the nominal
  confidence level.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.experiments.repeaters import (
    REASON_CONVERGED,
    REASON_FIXED,
    REASON_MAX_REPS,
    ReplicationRule,
    ci_half_width,
    relative_standard_error,
    run_rule,
    sample_stats,
    student_t_cdf,
    student_t_quantile,
)

# ----------------------------------------------------------------------
# Synthetic sample sources (deterministic per seed)
# ----------------------------------------------------------------------


def constant(value: float = 5.0):
    return lambda i: value


def normal(seed: int, mean: float = 100.0, sd: float = 5.0):
    rng = random.Random(seed)
    return lambda i: rng.gauss(mean, sd)


def lognormal(seed: int, mu: float = 0.0, sigma: float = 1.5):
    """Heavy-tailed: occasional samples far above the median."""
    rng = random.Random(seed)
    return lambda i: rng.lognormvariate(mu, sigma)


def bimodal(seed: int, lo: float = 10.0, hi: float = 90.0):
    rng = random.Random(seed)
    return lambda i: (hi if rng.random() < 0.5 else lo) + rng.gauss(0, 1)


def adaptive_rule() -> ReplicationRule:
    return ReplicationRule(min_reps=3, max_reps=10, target=0.05)


DISTRIBUTIONS = [
    lambda seed: constant(),
    lambda seed: normal(seed),
    lambda seed: lognormal(seed),
    lambda seed: bimodal(seed),
]


# ----------------------------------------------------------------------
# Student-t arithmetic
# ----------------------------------------------------------------------

#: Published two-sided 95% critical values: t_{0.975, df}.
T_TABLE_975 = {1: 12.706, 2: 4.303, 5: 2.571, 10: 2.228, 30: 2.042}


@pytest.mark.parametrize("df,expected", sorted(T_TABLE_975.items()))
def test_t_quantile_matches_published_table(df, expected):
    assert student_t_quantile(0.975, df) == pytest.approx(expected, abs=5e-3)


def test_t_quantile_one_sided_value():
    # t_{0.95, 9} from any stats appendix.
    assert student_t_quantile(0.95, 9) == pytest.approx(1.833, abs=5e-3)


@pytest.mark.parametrize("df", [1, 2, 5, 30, 120])
def test_t_cdf_quantile_round_trip(df):
    for p in (0.6, 0.9, 0.975, 0.999):
        t = student_t_quantile(p, df)
        assert student_t_cdf(t, df) == pytest.approx(p, abs=1e-9)


def test_t_cdf_symmetry_and_median():
    assert student_t_cdf(0.0, 7) == pytest.approx(0.5)
    assert student_t_cdf(-2.0, 7) == pytest.approx(
        1.0 - student_t_cdf(2.0, 7), abs=1e-12
    )
    assert student_t_quantile(0.5, 7) == 0.0


def test_t_quantile_large_df_approaches_normal():
    assert student_t_quantile(0.975, 1000) == pytest.approx(1.96, abs=5e-3)


def test_t_domain_errors():
    with pytest.raises(ValueError):
        student_t_quantile(0.0, 5)
    with pytest.raises(ValueError):
        student_t_quantile(0.975, 0)
    with pytest.raises(ValueError):
        student_t_cdf(1.0, -1)


# ----------------------------------------------------------------------
# Sample statistics
# ----------------------------------------------------------------------


def test_sample_stats_and_edge_cases():
    mean, std = sample_stats([2.0, 4.0, 6.0])
    assert mean == pytest.approx(4.0)
    assert std == pytest.approx(2.0)
    assert sample_stats([7.0]) == (7.0, 0.0)
    with pytest.raises(ValueError):
        sample_stats([])


def test_rse_conventions():
    assert relative_standard_error([5.0, 5.0, 5.0]) == 0.0
    assert relative_standard_error([-1.0, 1.0]) == math.inf
    # RSE of the mean shrinks with n for a fixed spread.
    wide = relative_standard_error([90.0, 110.0])
    narrow = relative_standard_error([90.0, 110.0, 90.0, 110.0, 90.0, 110.0])
    assert narrow < wide


def test_ci_half_width_below_two_samples_is_zero():
    assert ci_half_width([], 0.95) == 0.0
    assert ci_half_width([3.0], 0.95) == 0.0


def test_ci_half_width_hand_computed():
    # n=4, s=2 -> hw = t_{0.975,3} * 2 / 2 = 3.182...
    xs = [8.0, 10.0, 12.0, 10.0]
    _, s = sample_stats(xs)
    expected = student_t_quantile(0.975, 3) * s / 2.0
    assert ci_half_width(xs, 0.95) == pytest.approx(expected, rel=1e-12)


# ----------------------------------------------------------------------
# Bounds: hypothesis over arbitrary sample sequences
# ----------------------------------------------------------------------

samples_strategy = st.lists(
    st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
    min_size=1,
    max_size=30,
)


@given(samples_strategy, st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=10))
def test_rules_never_stop_below_min_reps(xs, min_reps, extra):
    max_reps = min_reps + extra
    for rule in (
        ReplicationRule(min_reps, max_reps, 0.05),
        ReplicationRule(max_reps, max_reps),
    ):
        decision = rule.decide(xs)
        if len(xs) < rule.min_reps:
            assert not decision.stop
            assert decision.reason == "below-min-reps"
        if len(xs) >= rule.max_reps:
            assert decision.stop
        if decision.reason == REASON_CONVERGED:
            assert len(xs) >= 2


@given(st.integers(min_value=0, max_value=2 ** 31), st.integers(0, 3))
def test_rules_terminate_within_max_reps_on_any_distribution(seed, dist_idx):
    rule = adaptive_rule()
    sampler = DISTRIBUTIONS[dist_idx](seed)
    samples, decision = run_rule(rule, sampler)
    assert rule.min_reps <= len(samples) <= rule.max_reps
    assert decision.stop
    assert decision.n == len(samples)
    assert decision.reason in (REASON_CONVERGED, REASON_MAX_REPS)


# ----------------------------------------------------------------------
# Convergence behaviour per distribution
# ----------------------------------------------------------------------


def test_constant_stream_stops_at_min_reps():
    rule = adaptive_rule()
    samples, decision = run_rule(rule, constant())
    assert len(samples) == rule.min_reps
    assert decision.reason == REASON_CONVERGED
    assert decision.rse == 0.0


def test_one_sample_never_converges():
    """One sample has no variance estimate (its CI half width reads
    0.0), so a stream with ``min_reps=1`` must still take a second."""
    rule = ReplicationRule(min_reps=1, max_reps=10, target=0.02)
    decision = rule.decide([0.997])
    assert not decision.stop
    assert decision.reason == "unconverged"
    samples, decision = run_rule(rule, constant(0.997))
    assert len(samples) == 2
    assert decision.reason == REASON_CONVERGED


def test_zero_mean_converges_only_on_a_zero_width_interval():
    rule = ReplicationRule(min_reps=2, max_reps=5)
    assert rule.decide([0.0, 0.0]).reason == REASON_CONVERGED
    assert rule.decide([-1.0, 1.0]).reason == "unconverged"


def test_tight_normal_converges_early_loose_lognormal_does_not():
    """Adaptive reps go where the variance is."""
    normal_reps, lognormal_reps, hit_max = [], [], 0
    for seed in range(20):
        samples, _ = run_rule(
            adaptive_rule(), normal(seed, mean=100.0, sd=2.0)
        )
        normal_reps.append(len(samples))
        samples, decision = run_rule(adaptive_rule(), lognormal(seed))
        lognormal_reps.append(len(samples))
        hit_max += decision.reason == REASON_MAX_REPS
    assert sum(normal_reps) < sum(lognormal_reps)
    # The heavy tail usually exhausts the ceiling — and is reported as
    # such instead of pretending to have converged.
    assert hit_max >= 10


def test_bimodal_needs_more_reps_than_unimodal_at_same_mean():
    uni, bi = [], []
    for seed in range(20):
        rule = ReplicationRule(min_reps=3, max_reps=15, target=0.06)
        uni.append(len(run_rule(rule, normal(seed, mean=50.0, sd=3.0))[0]))
        bi.append(len(run_rule(rule, bimodal(seed))[0]))
    assert sum(uni) < sum(bi)


def test_fixed_rule_spends_exactly_count_everywhere():
    for dist in DISTRIBUTIONS:
        samples, decision = run_rule(ReplicationRule(4, 4), dist(99))
        assert len(samples) == 4
        assert decision.reason == REASON_FIXED


# ----------------------------------------------------------------------
# Calibration: CI coverage across seeded trials
# ----------------------------------------------------------------------


def test_ci_coverage_near_nominal_on_normal_samples():
    """A 95% Student-t interval over n=5 normal draws should cover the
    true mean ~95% of the time; allow a generous tolerance band for 400
    trials (binomial sd ~1.1%)."""
    true_mean, covered, trials = 100.0, 0, 400
    for seed in range(trials):
        rng = random.Random(seed)
        xs = [rng.gauss(true_mean, 10.0) for _ in range(5)]
        mean, _ = sample_stats(xs)
        hw = ci_half_width(xs, 0.95)
        covered += mean - hw <= true_mean <= mean + hw
    assert 0.91 <= covered / trials <= 0.99


def test_ci_rule_stops_with_relative_half_width_at_or_below_target():
    for seed in range(30):
        rule = ReplicationRule(min_reps=3, max_reps=60, target=0.05)
        samples, decision = run_rule(rule, normal(seed, mean=100.0, sd=15.0))
        if decision.reason == REASON_CONVERGED:
            mean, _ = sample_stats(samples)
            assert ci_half_width(samples, 0.95) / abs(mean) <= 0.05


# ----------------------------------------------------------------------
# Validation and the fixed/ci modes
# ----------------------------------------------------------------------


def test_rule_constructor_validation():
    with pytest.raises(ValueError, match="min_reps"):
        ReplicationRule(min_reps=0, max_reps=5)
    with pytest.raises(ValueError, match="max_reps"):
        ReplicationRule(min_reps=5, max_reps=4)
    with pytest.raises(ValueError, match="target"):
        ReplicationRule(3, 10, target=0.0)
    with pytest.raises(ValueError, match="target"):
        ReplicationRule(3, 10, target=-1.0)


def test_rule_mode_follows_the_bounds():
    """``min == max`` is the fixed mode; a higher ceiling is the CI rule.
    The name and key are what reports and store summaries print."""
    fixed = ReplicationRule(3, 3)
    assert fixed.name == "fixed"
    assert fixed.key() == ("fixed", 3, 3, 0.02)
    ci = ReplicationRule(3, 9, target=0.04)
    assert ci.name == "ci"
    assert ci.key() == ("ci", 3, 9, 0.04)
