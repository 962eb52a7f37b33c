"""Scale-invariance: the ExperimentScale knob must not change physics.

The whole experimental programme leans on one claim: running with
``cpu_factor=f`` only derates the event rate — reported throughputs,
stall-onset times, and detection behaviour match the full-scale system.
These tests compare two different scale factors directly.
"""

import pytest

from repro.experiments.phase1 import run_single_fault
from repro.experiments.settings import Phase1Settings
from repro.faults.spec import FaultKind, FaultSpec
from repro.press.cluster import ExperimentScale, PressCluster
from repro.press.config import TCP_PRESS, VIA_PRESS_5

COARSE = ExperimentScale(cpu_factor=200.0)
FINE = ExperimentScale(cpu_factor=50.0)


def peak(config, scale, seed=5):
    cluster = PressCluster(config, scale=scale, seed=seed, utilization=1.05)
    cluster.start()
    cluster.run_until(90.0)
    return cluster.measured_rate(30.0, 90.0)


@pytest.mark.parametrize("config", [TCP_PRESS, VIA_PRESS_5],
                         ids=lambda c: c.name)
def test_reported_peak_invariant_across_scales(config):
    coarse = peak(config, COARSE)
    fine = peak(config, FINE)
    assert coarse == pytest.approx(fine, rel=0.06)


def stall_onset(scale, seed=5):
    """Seconds from link-fault injection until throughput < 10% of normal."""
    cluster = PressCluster(TCP_PRESS, scale=scale, seed=seed)
    cluster.start()
    cluster.mendosus.schedule(
        FaultSpec(FaultKind.LINK_DOWN, target="node2", at=30.0, duration=60.0)
    )
    cluster.run_until(90.0)
    normal = cluster.measured_rate(10.0, 30.0)
    t = 30.0
    while t < 90.0:
        if cluster.measured_rate(t, t + 5.0) < normal * 0.1:
            return t - 30.0
        t += 1.0
    return float("inf")


def test_stall_onset_time_is_scale_invariant():
    """Buffer-fill time (reservoir / byte-rate) must match across scales
    to within the floor distortion documented in DESIGN.md."""
    coarse = stall_onset(COARSE)
    fine = stall_onset(FINE)
    assert coarse != float("inf") and fine != float("inf")
    assert abs(coarse - fine) <= 15.0


def test_detection_timings_scale_invariant():
    """Heartbeat detection is wall-clock (15s) at any scale."""
    from repro.press.config import TCP_PRESS_HB

    for scale in (COARSE, FINE):
        cluster = PressCluster(TCP_PRESS_HB, scale=scale, seed=5)
        cluster.start()
        cluster.mendosus.schedule(
            FaultSpec(FaultKind.LINK_DOWN, target="node2", at=30.0, duration=40.0)
        )
        cluster.run_until(60.0)
        detections = [
            t for t in cluster.annotations.times("reconfigured") if t >= 30.0
        ]
        assert detections, scale
        assert 10.0 <= detections[0] - 30.0 <= 25.0, scale


def test_cache_coverage_ratio_preserved():
    """cache:working-set ratio (hence hit ratios) is scale-invariant."""
    ratios = []
    for scale in (COARSE, FINE):
        cluster = PressCluster(VIA_PRESS_5, scale=scale, seed=5)
        per_node_files = cluster.config.cache_bytes // cluster.fileset.file_bytes
        cluster_files = per_node_files * len(cluster.node_ids)
        ratios.append(cluster_files / cluster.fileset.n_files)
    assert ratios[0] == pytest.approx(ratios[1], rel=0.1)


@pytest.mark.parametrize("factor", [200.0, 250.0, 400.0])
def test_tcp_node_crash_runs_at_and_past_scale_200(factor):
    """Past scale 200 the file-size floor no longer sizes the socket
    buffers above PRESS's message floors.  The rejoin after a node crash
    streams cache-info chunks of up to 128 bytes, and each one must
    still fit its peer's receive buffer once framed."""
    settings = Phase1Settings(
        scale=ExperimentScale(cpu_factor=factor), replications=1
    )
    record, cluster = run_single_fault(
        TCP_PRESS, FaultKind.NODE_CRASH, settings
    )
    params = cluster.transports["node0"].params
    largest = cluster.config.max_message_bytes()
    assert largest + params.header_size <= params.rcvbuf_bytes
    assert record.end_time > record.cleared_at > record.injected_at
    if factor == 200.0:
        # The goldens and perfbench's smoke scale depend on these values.
        assert params.rcvbuf_bytes == 147
        assert cluster.config.cache_info_max_bytes == 128
