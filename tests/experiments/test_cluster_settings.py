"""Table 1 and the validation runs build their clusters from the settings.

``--nodes`` and ``--no-fastpath`` reach every experiment through
:class:`Phase1Settings`; a cluster built past
:func:`repro.experiments.phase1.build_cluster` silently ran the paper's
4-node fast-path default instead (so ``--nodes 8 validate`` compared a
4-node simulation with predictions from 8-node profiles).
"""

import dataclasses

import pytest

from repro.experiments.table1 import PEAK_UTILIZATION, measure_peak
from repro.experiments.validation import MTTR_SECONDS, _mttr_faithful_cluster
from repro.press.cluster import PressCluster
from repro.press.config import ALL_VERSIONS_EXTENDED

from .conftest import FAST_SETTINGS

SETTINGS = dataclasses.replace(FAST_SETTINGS, n_nodes=3, fastpath=False)


class _Built(Exception):
    """Stops a run as soon as its cluster exists."""


def test_measure_peak_honours_nodes_and_fastpath(monkeypatch):
    built = []

    def start(cluster):
        built.append(
            (len(cluster.node_ids), cluster.fabric.fastpath, cluster.utilization)
        )
        raise _Built

    monkeypatch.setattr(PressCluster, "start", start)
    with pytest.raises(_Built):
        measure_peak("TCP-PRESS", SETTINGS)
    assert built == [(3, False, PEAK_UTILIZATION)]


def test_mttr_faithful_cluster_honours_nodes_and_fastpath():
    cluster = _mttr_faithful_cluster(
        ALL_VERSIONS_EXTENDED["TCP-PRESS"], SETTINGS, seed_offset=7
    )
    assert len(cluster.node_ids) == 3
    assert cluster.fabric.fastpath is False
    assert cluster.utilization == SETTINGS.utilization
    assert cluster.rng.master_seed == SETTINGS.seed + 7
    for node in cluster.nodes.values():
        assert node.reboot_time == MTTR_SECONDS
        assert node.daemon.restart_delay == MTTR_SECONDS
