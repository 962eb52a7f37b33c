"""Campaign warm-start checkpointing (repro.experiments.warmstart).

The contract under test: a warm-started campaign — warm segments
simulated once per (version, replication) group, sibling cells restored
from the checkpoint — produces **byte-identical** deterministic payloads
to a fully cold campaign, for every cell, including telemetry,
observatory digests and exported traces.  On top of that, checkpoint
traffic must be *visible*: hit/miss/invalidated counters, a report
notice, and loud recomputation when the on-disk format no longer
matches the interpreter.
"""

from __future__ import annotations

import pytest

from repro.experiments import warmstart
from repro.experiments.runner import CampaignRunner, run_campaign
from repro.experiments.settings import Phase1Settings
from repro.experiments.store import (
    DiskStore,
    MemoryStore,
    payload_fingerprint,
)
from repro.experiments.warmstart import (
    STATUS_COLD,
    STATUS_HIT,
    STATUS_INVALIDATED,
    STATUS_MISS,
    WarmSpec,
    WarmStartCache,
    _header,
    warm_digest,
)
from repro.faults.spec import FaultKind
from repro.press.cluster import SMOKE_SCALE
from repro.sim import snapshot

SETTINGS = Phase1Settings(
    scale=SMOKE_SCALE,
    seed=5,
    warm=15.0,
    fault_at=30.0,
    fault_duration=40.0,
    post_recovery=60.0,
    tail=40.0,
    replications=1,
)
VERSIONS = ["TCP-PRESS", "VIA-PRESS-5"]
FAULTS = [FaultKind.LINK_DOWN, FaultKind.NODE_CRASH]
N_GROUPS = len(VERSIONS) * SETTINGS.replications
N_CELLS = N_GROUPS * (1 + len(FAULTS))


@pytest.fixture(autouse=True)
def _fresh_memory_checkpoints():
    """Isolate the per-process in-memory checkpoint cache per test."""
    warmstart._memory_blobs.clear()
    yield
    warmstart._memory_blobs.clear()


class SpyStore(MemoryStore):
    """Memory store that remembers every payload it was handed."""

    def __init__(self):
        super().__init__()
        self.payloads = {}

    def put(self, key, payload):
        self.payloads[(key.version, key.fault, key.seed)] = payload
        super().put(key, payload)


def _run(store, **kwargs):
    return run_campaign(
        SETTINGS, versions=VERSIONS, faults=FAULTS, store=store, **kwargs
    )


def _disk_fingerprints(store: DiskStore):
    return {
        (k["version"], k["fault"], k["seed"]): payload_fingerprint(p)
        for k, p in store.iter_cells()
    }


@pytest.fixture(scope="module")
def cold_reference(tmp_path_factory):
    """Fingerprints and profile sets of a fully cold campaign."""
    store = DiskStore(tmp_path_factory.mktemp("cold-reference"))
    sets, report = run_campaign(
        SETTINGS,
        versions=VERSIONS,
        faults=FAULTS,
        store=store,
        warm_start=False,
    )
    assert report.warm_start == {}
    return _disk_fingerprints(store), {
        v: sets[v].to_dict() for v in VERSIONS
    }


# ----------------------------------------------------------------------
# Equivalence: warm == cold, byte for byte
# ----------------------------------------------------------------------


def test_warm_disk_campaign_matches_cold_byte_for_byte(
    cold_reference, tmp_path
):
    store = DiskStore(tmp_path)
    sets, report = _run(store)
    assert _disk_fingerprints(store) == cold_reference[0]
    assert {v: sets[v].to_dict() for v in VERSIONS} == cold_reference[1]
    # Every cell restored a checkpoint; every group was simulated once.
    assert report.warm_start == {"hit": N_CELLS, "miss": N_GROUPS}
    assert any(
        "warm-start:" in n and "PERFORMANCE.md" in n for n in report.notices
    )


def test_warm_memory_campaign_matches_cold(cold_reference):
    """The serial in-memory path (WarmSpec(dir=None)) agrees too."""
    store = SpyStore()
    _sets, report = _run(store)
    got = {
        key: payload_fingerprint(p) for key, p in store.payloads.items()
    }
    assert got == cold_reference[0]
    assert report.warm_start == {"hit": N_CELLS, "miss": N_GROUPS}
    assert len(warmstart._memory_blobs) == N_GROUPS


def test_traced_campaigns_export_identical_traces(cold_reference, tmp_path):
    """Warm-started cells replay the *recorded event stream* of a cold
    cell exactly — the exported trace files are byte-identical."""
    cold_dir, warm_dir = tmp_path / "cold", tmp_path / "warm"
    _run(
        MemoryStore(),
        warm_start=False,
        trace_dir=str(cold_dir),
    )
    _run(
        MemoryStore(),
        warm_start=True,
        trace_dir=str(warm_dir),
    )
    cold_files = {p.name: p.read_bytes() for p in cold_dir.iterdir()}
    warm_files = {p.name: p.read_bytes() for p in warm_dir.iterdir()}
    assert set(cold_files) == set(warm_files) and len(cold_files) == 2 * N_CELLS
    assert cold_files == warm_files


# ----------------------------------------------------------------------
# Checkpoint lifecycle: reuse, invalidation, opting out
# ----------------------------------------------------------------------


def test_checkpoints_survive_and_serve_later_campaigns(tmp_path):
    store = DiskStore(tmp_path)
    _run(store)
    first = _disk_fingerprints(store)
    store.clear()  # drop the cells; warmstart/*.ckpt files remain
    _sets, report = _run(store)
    # No warm segment re-simulated: every group's checkpoint was found.
    assert report.warm_start == {"hit": N_CELLS}
    assert _disk_fingerprints(store) == first


def test_invalidated_checkpoints_recompute_loudly(tmp_path):
    store = DiskStore(tmp_path)
    _run(store)
    first = _disk_fingerprints(store)
    ckpts = sorted((store.cache_dir / "warmstart").glob("*.ckpt"))
    assert len(ckpts) == N_GROUPS
    for path in ckpts:
        # Rewrite the header to what an older writer would have left.
        _header, _, blob = path.read_bytes().partition(b"\n")
        path.write_bytes(b"repro-warmstart format=0 python=0.0 marshal=0\n" + blob)
    store.clear()
    _sets, report = _run(store)
    assert report.warm_start == {
        "hit": N_CELLS,
        "invalidated": N_GROUPS,
    }
    assert any("invalidated checkpoint" in n for n in report.notices)
    # Recomputed checkpoints reproduce the original payloads exactly.
    assert _disk_fingerprints(store) == first


def test_no_warm_start_marks_every_cell_cold():
    store = SpyStore()
    _sets, report = _run(store, warm_start=False)
    assert report.warm_start == {}
    assert not any("warm-start" in n for n in report.notices)
    assert all(
        p["warm_start"]["status"] == STATUS_COLD
        for p in store.payloads.values()
    )


def test_store_cached_cells_never_touch_checkpoints(tmp_path):
    store = DiskStore(tmp_path)
    _run(store)
    _sets, report = _run(store)  # fully store-cached replay
    assert all(c.cached for c in report.cells)
    assert report.warm_start == {}
    assert all(c.warm is None for c in report.cells)


def test_runner_metrics_counters_mirror_the_report(tmp_path):
    runner = CampaignRunner(SETTINGS, store=DiskStore(tmp_path))
    _sets, report = runner.run(VERSIONS, FAULTS)
    assert runner.metrics.counter("campaign.warm_start.hit").value == N_CELLS
    assert runner.metrics.counter("campaign.warm_start.miss").value == N_GROUPS
    assert (
        runner.metrics.counter("campaign.warm_start.invalidated").value == 0
    )
    assert report.warm_start == {"hit": N_CELLS, "miss": N_GROUPS}
    executed = [c for c in report.cells if not c.cached]
    assert all(c.warm == STATUS_HIT for c in executed)


# ----------------------------------------------------------------------
# The cache itself
# ----------------------------------------------------------------------


def test_obtain_always_returns_fresh_objects(tmp_path):
    cache = WarmStartCache(WarmSpec(dir=str(tmp_path)))
    c1, o1, p1 = cache.obtain("TCP-PRESS", SETTINGS, False)
    c2, o2, p2 = cache.obtain("TCP-PRESS", SETTINGS, False)
    assert p1["status"] == STATUS_MISS
    assert p2["status"] == STATUS_HIT
    assert c1 is not c2 and o1 is not o2
    # ... but they are the *same* simulation state, bit for bit.
    assert snapshot.state_digest(c1) == snapshot.state_digest(c2)


def test_obtain_restores_global_id_counters(tmp_path):
    """Checkpoints carry the global id-counter positions (repro.sim.ids).

    Regression for the pool-worker divergence of ROADMAP item 3: a
    process restoring a warm checkpoint used to keep issuing request /
    message ids from wherever *its own* counters happened to sit.  When
    that position landed just below the captured in-flight id window,
    fresh ids collided with ids still pending in the restored state and
    the continuation diverged from cold.  ``obtain`` must therefore
    reposition every counter to the captured value, no matter where the
    restoring process left them.
    """
    from repro.sim import ids

    cache = WarmStartCache(WarmSpec(dir=str(tmp_path)))
    c1, o1, _ = cache.obtain("TCP-PRESS", SETTINGS, False)
    captured = ids.global_id_state()
    # Park every counter in the collision zone a dirty pool worker would
    # occupy: just below the ids embedded in the checkpointed state.
    for name, value in captured.items():
        ids._sources[name].jump(max(1, value - 1))
    c2, o2, _ = cache.obtain("TCP-PRESS", SETTINGS, False)
    assert ids.global_id_state() == captured
    assert snapshot.state_digest(c1) == snapshot.state_digest(c2)
    # The observatory is Snapshottable too: calibration state captured
    # mid-window survives the round trip bit for bit.
    assert snapshot.state_digest(o1) == snapshot.state_digest(o2)


def test_warm_digest_covers_the_inputs():
    base = warm_digest("TCP-PRESS", SETTINGS, False)
    assert base == warm_digest("TCP-PRESS", SETTINGS, False)
    assert base != warm_digest("VIA-PRESS-5", SETTINGS, False)
    assert base != warm_digest("TCP-PRESS", SETTINGS, True)
    import dataclasses

    reseeded = dataclasses.replace(SETTINGS, seed=6)
    assert base != warm_digest("TCP-PRESS", reseeded, False)
    relaid = dataclasses.replace(SETTINGS, fault_at=31.0)
    assert base != warm_digest("TCP-PRESS", relaid, False)


def test_header_mismatch_reports_invalidated_not_miss(tmp_path):
    cache = WarmStartCache(WarmSpec(dir=str(tmp_path)))
    digest = warm_digest("TCP-PRESS", SETTINGS, False)
    cache._store(digest, b"not a real snapshot")
    (tmp_path / f"{digest}.ckpt").write_bytes(
        b"repro-warmstart format=0 python=0.0 marshal=0\nnot a real snapshot"
    )
    blob, status = cache._load(digest)
    assert blob is None and status == STATUS_INVALIDATED
    # v9 to v12 checkpoints from this very interpreter: a v9 Engine
    # still carries the removed ``profiler`` attach point, a v10 Engine
    # the removed ``metrics``/``spans`` attach points, v11 the old
    # ``Event``, ``ClientMachine`` and ``QuantileSketch`` layouts, and
    # v12 instances that restore into per-instance dicts.
    assert snapshot.FORMAT_VERSION == 13
    for old in (9, 10, 11, 12):
        stale = _header().replace(
            f"format={snapshot.FORMAT_VERSION} ".encode(),
            f"format={old} ".encode(),
        )
        assert stale != _header()
        (tmp_path / f"{digest}.ckpt").write_bytes(stale + b"not a real snapshot")
        blob, status = cache._load(digest)
        assert blob is None and status == STATUS_INVALIDATED
    # Checkpoints whose header still names the marshal format (their
    # blobs never held code objects) are invalidated once, then rewritten.
    assert b"marshal" not in _header()
    (tmp_path / f"{digest}.ckpt").write_bytes(
        _header()[:-1] + b" marshal=4\nnot a real snapshot"
    )
    blob, status = cache._load(digest)
    assert blob is None and status == STATUS_INVALIDATED
    missing = warm_digest("VIA-PRESS-5", SETTINGS, False)
    blob, status = cache._load(missing)
    assert blob is None and status == STATUS_MISS
