"""Warm-state checkpoint cache: simulate each warm segment once.

Every cell of a campaign *warm group* — the fault-free baseline and all
eleven fault cells of one (version, replication) — shares a seed and is
bit-identical up to the injection instant (:func:`~.phase1.warm_point`):
the fault spec only enters the simulation *at* that instant.  Before the
warm-start layer, every cell re-simulated that shared prefix; with it,
the prefix is simulated once per group, captured with
:mod:`repro.sim.snapshot`, and every sibling cell restores the checkpoint
and diverges from there.  The campaign's warm-up cost drops from
O(cells) to O(warm groups).

Storage
-------
Checkpoints live as ``<digest>.ckpt`` files under a ``warmstart/``
directory — placed next to the campaign's
:class:`~repro.experiments.store.DiskStore` cells when there is a cache
dir, or in a run-scoped spool directory (parallel runs), or in a
per-process memory dict (serial in-memory runs).  The digest is a
content address over ``(version, settings.sim_key(), keep_events)``;
anything that could change the warm trajectory changes the file name.

Each file opens with a one-line ASCII header naming the snapshot format
and the Python/marshal versions that produced the blob.  The header is
deliberately *not* part of the file name: when any of those versions
change, the lookup finds the old file, sees the mismatch, and reports an
**invalidated** checkpoint (recounted in the campaign report) instead of
silently missing — the same visibility contract the result store gives
schema bumps.

Hit/miss uniformity
-------------------
``obtain`` *always* returns an unpickled object graph: on a miss it
simulates the warm segment, captures it, persists the blob, and then
restores **from the blob it just wrote**.  Hit and miss cells therefore
continue from identically-constructed objects, so a cell's payload
cannot depend on which side of the cache it landed on.  Equivalence with
fully cold runs (no checkpointing at all) is enforced by
``tests/experiments/test_warmstart.py`` and the CI double-run diff.
"""

from __future__ import annotations

import hashlib
import marshal
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from ..sim import snapshot
from ..sim.ids import global_id_state, restore_global_id_state
from .settings import Phase1Settings

#: Statuses a checkpoint lookup can report (cell payload provenance).
STATUS_HIT = "hit"
STATUS_MISS = "miss"
STATUS_INVALIDATED = "invalidated"
#: Cells run with warm-start disabled mark their payloads with this.
STATUS_COLD = "cold"


def _header() -> bytes:
    """First line of every checkpoint file.

    Names every process-level ingredient the blob depends on beyond the
    keyed settings: the snapshot wire format and the Python/marshal
    versions whose bytecode the blob embeds.  A mismatch is a *visible*
    invalidation, not a silent miss.
    """
    return (
        f"repro-warmstart format={snapshot.FORMAT_VERSION} "
        f"python={sys.version_info[0]}.{sys.version_info[1]} "
        f"marshal={marshal.version}\n"
    ).encode("ascii")


def warm_digest(version: str, settings: Phase1Settings, keep_events: bool) -> str:
    """Content address of one warm segment.

    Covers everything that determines the pre-injection trajectory: the
    software version and the full settings cache key (scale, seed,
    utilization, timing layout, fastpath mode, ...), plus whether the
    attached recorder keeps its event backlog (a traced warm segment
    carries more state than an untraced one).
    """
    canonical = repr((version, settings.sim_key(), bool(keep_events)))
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass(frozen=True)
class WarmSpec:
    """Picklable description of where a campaign keeps its checkpoints.

    Travels to worker processes as a plain cell argument.  ``dir=None``
    selects the per-process in-memory cache — only useful when the
    cells run in this process (serial campaigns without a cache dir).
    """

    dir: Optional[str] = None


#: Per-process memory cache for ``WarmSpec(dir=None)`` campaigns.
_memory_blobs: Dict[str, bytes] = {}


class WarmStartCache:
    """Checkpoint store + simulate-on-miss logic for one campaign."""

    def __init__(self, spec: WarmSpec):
        self.spec = spec
        self.dir = Path(spec.dir) if spec.dir is not None else None

    # -- blob I/O ------------------------------------------------------
    def _path(self, digest: str) -> Path:
        assert self.dir is not None
        return self.dir / f"{digest}.ckpt"

    def _load(self, digest: str) -> Tuple[Optional[bytes], str]:
        """Return ``(blob, status)``; blob is None on miss/invalidation."""
        if self.dir is None:
            blob = _memory_blobs.get(digest)
            return blob, STATUS_HIT if blob is not None else STATUS_MISS
        try:
            with open(self._path(digest), "rb") as fh:
                header = fh.readline()
                if header != _header():
                    return None, STATUS_INVALIDATED
                return fh.read(), STATUS_HIT
        except FileNotFoundError:
            return None, STATUS_MISS
        except OSError:
            return None, STATUS_MISS

    def _store(self, digest: str, blob: bytes) -> None:
        if self.dir is None:
            _memory_blobs[digest] = blob
            return
        self.dir.mkdir(parents=True, exist_ok=True)
        path = self._path(digest)
        # Atomic publish, like the result store: concurrent workers may
        # race to write the same checkpoint, but the bytes are
        # deterministic, so last-rename-wins is harmless.
        fd, tmp = tempfile.mkstemp(dir=self.dir, prefix=digest, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(_header())
                fh.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- warm-segment lifecycle ----------------------------------------
    def ensure(
        self, version: str, settings: Phase1Settings, keep_events: bool
    ) -> dict:
        """Make the checkpoint for this warm group exist; don't restore.

        The campaign's warm wave calls this once per group before the
        cell wave, so sibling cells — even parallel ones — find a
        checkpoint instead of each re-simulating the warm segment.
        """
        digest = warm_digest(version, settings, keep_events)
        blob, status = self._load(digest)
        if blob is not None:
            return {"status": STATUS_HIT, "digest": digest[:16], "elapsed": 0.0}
        start = time.perf_counter()
        blob = self._capture(version, settings, keep_events)
        self._store(digest, blob)
        return {
            "status": status,  # "miss", or "invalidated" when stale
            "digest": digest[:16],
            "bytes": len(blob),
            "elapsed": time.perf_counter() - start,
        }

    def obtain(
        self, version: str, settings: Phase1Settings, keep_events: bool
    ):
        """Warm (cluster, observatory) pair for one cell, plus provenance.

        Always returns freshly *unpickled* objects — see the module
        docstring on hit/miss uniformity.
        """
        digest = warm_digest(version, settings, keep_events)
        blob, status = self._load(digest)
        capture_s = 0.0
        if blob is None:
            start = time.perf_counter()
            blob = self._capture(version, settings, keep_events)
            self._store(digest, blob)
            capture_s = time.perf_counter() - start
        cluster, obs, id_state = snapshot.restore(blob)
        # Continue process-global id streams (request ids, message ids,
        # connection generations) exactly where the captured run stood.
        # Without this, ids issued by the *restoring* process can collide
        # with ids still live in the restored state (pending client
        # requests, unacked messages) and the continuation diverges from
        # cold — the pool-worker bug of ROADMAP item 3.
        restore_global_id_state(id_state)
        provenance = {
            "status": status,  # hit, miss, or invalidated at lookup time
            "digest": digest[:16],
            "bytes": len(blob),
            # Wall-clock spent simulating+capturing the warm segment on a
            # miss (0.0 on a hit); feeds the profiler's per-cell
            # snapshot column.  Lives under the volatile "warm_start"
            # payload key, so determinism checks never see it.
            "capture_s": capture_s,
        }
        return cluster, obs, provenance

    def _capture(
        self, version: str, settings: Phase1Settings, keep_events: bool
    ) -> bytes:
        cluster, obs = _simulate_warm(version, settings, keep_events)
        return snapshot.capture((cluster, obs, global_id_state()))


def _simulate_warm(version: str, settings: Phase1Settings, keep_events: bool):
    """Run one warm segment from scratch: the checkpoint's content."""
    from ..obs.bus import EventRecorder
    from ..obs.observatory import Observatory
    from ..press.config import ALL_VERSIONS_EXTENDED
    from .phase1 import run_warm

    obs = Observatory(
        recorder=EventRecorder(keep_events=keep_events),
        env=settings.environment,
    )
    cluster = run_warm(ALL_VERSIONS_EXTENDED[version], settings, recorder=obs)
    return cluster, obs
