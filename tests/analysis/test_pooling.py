"""Per-stream latency pooling and per-version attribution pooling.

Both the CLI ``campaign`` report and the dashboard format what these
two functions return, so the pooling rules are checked here once.
"""

from types import SimpleNamespace

from repro.analysis.report import pool_attribution, pool_latency
from repro.obs.attribution import MECHANISMS


def _cell(version, fault, rep, observatory):
    return SimpleNamespace(
        version=version, fault=fault, rep=rep, observatory=observatory
    )


def _latency(count, p50=None, p95=None, by_stage=None):
    overall = {"count": count, "p50": p50, "p95": p95, "p99": None,
               "p999": None}
    return {"latency": {"overall": overall, "by_stage": by_stage or {}}}


def test_pool_latency_groups_streams_in_replication_order():
    cells = [
        _cell("V", "f", 2, _latency(5, p50=0.3, p95=1.3)),
        _cell("V", None, 0, _latency(7, p50=0.05)),
        _cell("V", "f", 0, _latency(3, p50=0.1, p95=1.1)),
        _cell("V", "f", 1, _latency(4, p50=0.2)),
        _cell("A", None, 0, _latency(0)),  # served nothing
    ]
    pooled = pool_latency(cells)
    assert list(pooled) == [("V", "baseline"), ("V", "f")]
    stream = pooled[("V", "f")]
    assert stream["n"] == 12
    assert stream["quantiles"]["p50"] == [0.1, 0.2, 0.3]
    assert stream["quantiles"]["p95"] == [1.1, 1.3]
    assert stream["quantiles"]["p999"] == []
    assert pooled[("V", "baseline")]["n"] == 7


def test_pool_latency_drops_streams_that_served_nothing():
    cells = [
        _cell("V", None, 0, _latency(0, p50=0.1)),
        _cell("V", "f", 0, _latency(0)),
    ]
    assert pool_latency(cells) == {}


def test_pool_latency_pools_per_stage_p95():
    cells = [
        _cell("V", "f", 0, _latency(
            2, by_stage={"A": {"p95": 0.1}, "B": {"p95": 0.5}})),
        _cell("V", "f", 1, _latency(
            2, by_stage={"B": {"p95": 0.7}, "C": {"p95": None}})),
    ]
    stages = pool_latency(cells)[("V", "f")]["stage_p95"]
    assert stages == {"A": [0.1], "B": [0.5, 0.7]}


def _att(requests, lost, slow, mechanisms):
    return {
        "attribution": {
            "requests": requests,
            "total_lost": lost,
            "total_slow": slow,
            "mechanisms": {
                m: {"lost": lo, "slow": sl}
                for m, (lo, sl) in mechanisms.items()
            },
        }
    }


def test_pool_attribution_sums_every_cell_of_a_version():
    mech = MECHANISMS[0]
    cells = [
        _cell("Z", None, 0, _att(10, 0, 1, {mech: (0, 1)})),
        _cell("Z", "f", 0, _att(20, 4, 2, {mech: (3, 2), "other": (1, 0)})),
        _cell("A", "f", 0, _att(5, 1, 0, {mech: (1, 0)})),
        _cell("A", "g", 0, _att(0, 0, 0, {})),  # no requests: skipped
        _cell("B", None, 0, _att(0, 0, 0, {})),
    ]
    pooled = pool_attribution(cells)
    assert list(pooled) == ["A", "Z"]
    z = pooled["Z"]
    assert (z["requests"], z["lost"], z["slow"]) == (30, 4, 3)
    assert z["mech"][mech] == {"lost": 3, "slow": 3}
    assert z["mech"]["other"] == {"lost": 1, "slow": 0}
    assert list(z["mech"])[: len(MECHANISMS)] == list(MECHANISMS)
    assert pooled["A"]["mech"][MECHANISMS[1]] == {"lost": 0, "slow": 0}
