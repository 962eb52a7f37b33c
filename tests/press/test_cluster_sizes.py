"""The cluster generalizes beyond the paper's fixed 4 nodes."""

import pytest

from repro.faults.spec import FaultKind, FaultSpec
from repro.press.cluster import SMOKE_SCALE, PressCluster
from repro.press.config import TCP_PRESS, VIA_PRESS_5


@pytest.mark.parametrize("n_nodes", [3, 4, 6])
def test_fault_free_operation_at_any_size(n_nodes):
    # Small clusters cover less of the working set, so their *disks*
    # bind before their CPUs; drive them gently below that knee.  (Two
    # nodes cannot hold this working set healthily at all — see
    # test_two_node_cluster_is_disk_bound.)
    cluster = PressCluster(
        VIA_PRESS_5, n_nodes=n_nodes, scale=SMOKE_SCALE, seed=2,
        utilization=0.6,
    )
    cluster.start()
    cluster.run_until(60.0)
    offered = cluster.workload.total_rate * cluster.scale.report_factor
    assert cluster.measured_rate(15.0, 60.0) == pytest.approx(offered, rel=0.15)
    # Sub-4-node clusters pay disk for the uncovered tail of the working
    # set; a few slow requests time out even in steady state.
    assert cluster.monitor.availability() > 0.93
    for server in cluster.servers.values():
        assert len(server.members) == n_nodes


def test_capacity_grows_with_cluster_size():
    peaks = {}
    for n in (2, 6):
        cluster = PressCluster(
            TCP_PRESS, n_nodes=n, scale=SMOKE_SCALE, seed=2, utilization=1.05
        )
        cluster.start()
        cluster.run_until(70.0)
        peaks[n] = cluster.measured_rate(25.0, 70.0)
    assert peaks[6] > peaks[2] * 1.8


def test_crash_detection_and_rejoin_in_a_six_node_cluster():
    cluster = PressCluster(VIA_PRESS_5, n_nodes=6, scale=SMOKE_SCALE, seed=2)
    cluster.start()
    cluster.mendosus.schedule(
        FaultSpec(FaultKind.NODE_CRASH, target="node3", at=30.0)
    )
    cluster.run_until(200.0)
    for server in cluster.servers.values():
        assert len(server.members) == 6
    assert not cluster.is_partitioned()


def test_two_node_cluster_is_disk_bound():
    """With half the cooperative cache gone, misses saturate the disks
    long before the CPUs — capacity is not simply proportional to n."""
    cluster = PressCluster(
        VIA_PRESS_5, n_nodes=2, scale=SMOKE_SCALE, seed=2, utilization=0.6
    )
    cluster.start()
    cluster.run_until(60.0)
    offered = cluster.workload.total_rate * cluster.scale.report_factor
    delivered = cluster.measured_rate(15.0, 60.0)
    assert delivered < offered * 0.9  # CPU estimate overshoots
    for server in cluster.servers.values():
        assert server.cache.hit_ratio() < 0.85  # the coverage deficit


@pytest.mark.parametrize("n_nodes", [16, 64])
def test_large_cluster_smoke(n_nodes):
    """Cluster scale is a first-class axis: membership, broadcast, and
    request forwarding must hold up at 16 and 64 nodes, not just the
    paper's 4.  (Kept short: the point is every path works at scale,
    not steady-state statistics.)"""
    cluster = PressCluster(
        VIA_PRESS_5, n_nodes=n_nodes, scale=SMOKE_SCALE, seed=2,
        utilization=0.5,
    )
    cluster.start()
    cluster.run_until(25.0)
    # Every server converged on the full membership (the join/broadcast
    # paths are O(n) and must still agree).
    for server in cluster.servers.values():
        assert len(server.members) == n_nodes
    assert not cluster.is_partitioned()
    # Requests flow, and the cooperative forwarding actually spans the
    # cluster (remote serves prove inter-node request traffic).
    assert sum(
        s.local_serves + s.remote_serves for s in cluster.servers.values()
    ) > 0
    assert sum(s.remote_serves for s in cluster.servers.values()) > 0
    assert cluster.monitor.availability() > 0.9


def test_sixteen_node_crash_detection_and_rejoin():
    """Failure detection/exclusion/rejoin at a scale where the excluded
    node is a small fraction of the ring."""
    cluster = PressCluster(
        VIA_PRESS_5, n_nodes=16, scale=SMOKE_SCALE, seed=2, utilization=0.5
    )
    cluster.start()
    cluster.mendosus.schedule(
        FaultSpec(FaultKind.NODE_CRASH, target="node11", at=30.0)
    )
    cluster.run_until(200.0)
    for server in cluster.servers.values():
        assert len(server.members) == 16
    assert not cluster.is_partitioned()


def test_two_node_cluster_splinter_and_reset():
    cluster = PressCluster(VIA_PRESS_5, n_nodes=2, scale=SMOKE_SCALE, seed=2)
    cluster.start()
    cluster.mendosus.schedule(
        FaultSpec(FaultKind.LINK_DOWN, target="node1", at=30.0, duration=20.0)
    )
    cluster.run_until(120.0)
    assert cluster.is_partitioned()
    cluster.operator_reset()
    cluster.run_until(180.0)
    assert not cluster.is_partitioned()
