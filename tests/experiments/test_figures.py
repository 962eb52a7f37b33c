"""Tests asserting the reproduced *shapes* of every table and figure.

Each test encodes the claim the paper draws from that exhibit; together
they are the acceptance suite of the reproduction.
"""

import pytest

from repro.core.faultload import DAY, MONTH, WEEK, FaultLoad
from repro.core.metric import performability_of
from repro.core.model import evaluate
from repro.core.sensitivity import crossover_multiplier
from repro.experiments.performability import CROSSOVER_KINDS
from repro.experiments.settings import CAMPAIGN_FAULTS
from repro.experiments.table1 import format_table1, run_table1
from repro.press.config import PAPER_TABLE1_THROUGHPUT


@pytest.fixture(scope="module")
def loads():
    return {
        "1/day": FaultLoad.table3(app_fault_mttf=DAY),
        "1/month": FaultLoad.table3(app_fault_mttf=MONTH),
    }


class TestTable1:
    def test_ratios_match_paper(self, fast_settings):
        rows = run_table1(fast_settings)
        measured = {r.version: r.measured for r in rows}
        paper = PAPER_TABLE1_THROUGHPUT
        for version in measured:
            ratio_measured = measured[version] / measured["TCP-PRESS"]
            ratio_paper = paper[version] / paper["TCP-PRESS"]
            assert ratio_measured == pytest.approx(ratio_paper, rel=0.08), version

    def test_absolute_throughputs_within_10pct(self, fast_settings):
        for row in run_table1(fast_settings):
            assert row.measured == pytest.approx(row.paper, rel=0.10), row.version

    def test_format_is_printable(self, fast_settings):
        text = format_table1(run_table1(fast_settings))
        assert "VIA-PRESS-5" in text and "paper" in text


class TestFigure6:
    def test_campaign_covers_all_faults(self, mini_campaign):
        for version, profiles in mini_campaign.items():
            assert len(profiles) == len(CAMPAIGN_FAULTS), version

    def test_availability_uniformly_terrible(self, mini_campaign, loads):
        """The paper's blunt conclusion: ~99% at 1/day, below 99.9% even
        at 1/month."""
        for profiles in mini_campaign.values():
            day = evaluate(profiles, loads["1/day"]).availability
            month = evaluate(profiles, loads["1/month"]).availability
            assert 0.98 < day < 0.999
            assert day < month < 0.9995

    def test_via_beats_tcp_press_availability(self, mini_campaign, loads):
        """The headline surprise: under the same fault load the VIA
        server's availability is better than plain TCP's."""
        for label in loads:
            tcp = evaluate(mini_campaign["TCP-PRESS"], loads[label])
            via = evaluate(mini_campaign["VIA-PRESS-5"], loads[label])
            assert via.availability > tcp.availability, label

    def test_performability_tracks_performance(self, mini_campaign, loads):
        """Availabilities are close, so the fastest version wins P."""
        p = {
            v: performability_of(evaluate(ps, loads["1/month"]))
            for v, ps in mini_campaign.items()
        }
        assert p["VIA-PRESS-5"] > p["TCP-PRESS-HB"] > p["TCP-PRESS"]

    def test_application_faults_dominate_at_high_rates(
        self, mini_campaign, loads
    ):
        result = evaluate(mini_campaign["TCP-PRESS"], loads["1/day"])
        app = {
            "application-crash",
            "application-hang",
            "bad-param-null-pointer",
            "bad-param-off-by-n-pointer",
            "bad-param-off-by-n-size",
        }
        app_share = sum(
            c.unavailability for c in result.contributions if c.name in app
        )
        assert app_share > result.unavailability * 0.5

    def test_via_immune_to_resource_exhaustion(self, mini_campaign, loads):
        result = evaluate(mini_campaign["VIA-PRESS-5"], loads["1/month"])
        tcp = evaluate(mini_campaign["TCP-PRESS"], loads["1/month"])

        def kernel(r):
            return sum(
                c.unavailability for c in r.contributions
                if c.name == "kernel-memory-allocation"
            )

        assert kernel(result) == 0.0
        assert kernel(tcp) > 0.0


class TestSensitivity:
    def test_figure7_crossover_near_one_per_week(self, mini_campaign):
        """TCP wins when VIA drops packets >1/week, loses when <1/week."""
        from repro.core.faultload import packet_drop_component

        base = FaultLoad.table3(app_fault_mttf=WEEK)
        p_tcp = performability_of(
            evaluate(mini_campaign["TCP-PRESS-HB"], base)
        )
        via = mini_campaign["VIA-PRESS-5"]
        p_day = performability_of(
            evaluate(via, base.with_extra(packet_drop_component(DAY)))
        )
        p_month = performability_of(
            evaluate(via, base.with_extra(packet_drop_component(MONTH)))
        )
        assert p_day < p_tcp < p_month

    def test_figure9_system_bugs_sink_via(self, mini_campaign):
        from repro.core.faultload import system_bug_component

        base = FaultLoad.table3(app_fault_mttf=WEEK)
        via = mini_campaign["VIA-PRESS-5"]
        p_base = performability_of(evaluate(via, base))
        p_weekly = performability_of(
            evaluate(via, base.with_extra(system_bug_component(WEEK)))
        )
        assert p_weekly < p_base * 0.5

    def test_figure10_combined_load_hands_win_to_tcp(self, mini_campaign):
        from repro.core.faultload import (
            packet_drop_component,
            software_bug_component,
            system_bug_component,
        )
        from repro.experiments.performability import (
            SENSITIVITY_BASE_APP_MTTF,
        )

        base = FaultLoad.table3(app_fault_mttf=SENSITIVITY_BASE_APP_MTTF)
        pessimistic = base.with_extra(
            packet_drop_component(MONTH),
            software_bug_component(2 * WEEK),
            system_bug_component(MONTH),
        )
        p_tcp_hb = performability_of(
            evaluate(mini_campaign["TCP-PRESS-HB"], base)
        )
        p_via = performability_of(
            evaluate(mini_campaign["VIA-PRESS-5"], pessimistic)
        )
        assert p_via < p_tcp_hb

    def test_crossover_is_roughly_four_x(self, mini_campaign):
        """§9: VIA faults must occur at ~4x the TCP rate to equalize."""
        base = FaultLoad.table3(app_fault_mttf=WEEK)
        m = crossover_multiplier(
            mini_campaign["TCP-PRESS"],
            mini_campaign["VIA-PRESS-5"],
            base,
            lambda mult: base.scaled(mult, CROSSOVER_KINDS),
        )
        assert 2.0 <= m <= 10.0
