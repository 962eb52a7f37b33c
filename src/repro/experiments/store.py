"""Persistent result store for the phase-1 campaign.

Each campaign *cell* — one simulated run, either a fault-free baseline
or a single-fault experiment — is cached under a key built from
everything that determines its outcome:

    (version, settings.sim_key(), fault, cell seed, schema version)

The schema version is bumped whenever the simulation or the extraction
code changes in a result-affecting way, which invalidates every cached
cell at once.  Two store flavors share one interface:

* :class:`MemoryStore` — a process-local dict, the default.  Matches the
  lifetime semantics of the old module-global campaign cache.
* :class:`DiskStore` — one JSON file per cell under a cache directory,
  so campaigns survive interpreter restarts and are shared between the
  worker processes of a parallel run.  Corrupted or truncated files are
  treated as misses (the cell is simply re-run), and writes are atomic
  (tmp file + rename) so a crashed run never poisons the cache.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from ..sim.rng import sha256

#: Bump when simulation/extraction changes invalidate previously cached
#: cell results.  History:
#:   v1 — original payload shape ({"kind", "tn"/"profile", "elapsed"}).
#:   v2 — payloads carry a per-cell "telemetry" summary (event counts +
#:        metrics registry snapshot) recorded by the obs subsystem.
#:   v3 — payloads carry the observatory digest ("observatory": online
#:        stage transitions + SLO health), the detector-vs-ground-truth
#:        "divergence" report (fault cells), a compact "timeline" for
#:        the campaign dashboard, and telemetry "subscriber_errors".
#:   v4 — per-(version, rep) warm-group seeds: the baseline and every
#:        fault of a replication now share one derived seed (the fault
#:        is no longer folded in), so the warm-start layer can simulate
#:        each group's pre-injection prefix once; payloads carry a
#:        volatile "warm_start" provenance key (see
#:        VOLATILE_PAYLOAD_KEYS).
#:   v5 — adaptive replication: the settings key is now
#:        ``Phase1Settings.sim_key()`` (grid-layout knobs like the
#:        replication count no longer shard the cache universe, so
#:        fixed and adaptive campaigns share cells), the on-disk key
#:        record carries the replication index ("rep"), and the store
#:        gains a repetition-summary namespace (per-stream rep counts,
#:        stopping reasons, and CI half widths under ``repetition/``).
#:   v6 — request-scoped observability: the observatory digest gains
#:        always-on "latency" (streaming P² quantile sketches, overall
#:        and per online stage) and "attribution" (per-mechanism
#:        unavailability cost table) sections, the event stream gains
#:        ``workload.request.done``, and phase-1 runs rewind the global
#:        id counters at the warm boundary so exported traces embed
#:        run-deterministic request ids.
#:   v7 — cluster scale and LP sharding become settings: the settings
#:        key gains ``n_nodes`` (cluster size, previously fixed at the
#:        paper's 4) and ``shards`` (logical-process partitioning of the
#:        engine).  Payloads are byte-identical for every
#:        ``shards`` value — it is keyed, like ``fastpath``, only so a
#:        verification run cannot be satisfied from another mode's
#:        cache.
#:   v8 — parallel LP execution: the settings key gains the LP
#:        backend (serial / threads / processes execution of the
#:        sharded engine).  Same contract as ``shards``:
#:        payloads are byte-identical for every backend, keyed only so
#:        a verification run actually runs.
#:   v9 — LP sharding and the parallel LP backends are removed: the
#:        settings key loses the shard count and the LP backend.
#:        Payloads are unchanged; only the key shape differs.
SCHEMA_VERSION = 9

#: Environment variable consulted by the CLI for a default cache dir.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Subdirectory of a DiskStore holding per-stream repetition summaries
#: (schema v5) — beside the two-hex-char cell shards, like `warmstart/`.
SUMMARY_DIR = "repetition"

#: Payload keys that legitimately differ between two executions of the
#: *same* cell: host wall-clock (total / warm-restore split), warm-start
#: checkpoint provenance, and the in-flight profiler record (the
#: runner strips "perf" onto the campaign report, whose
#: ``BENCH_campaign.json`` ledger is the only profiler record, before
#: put(); this entry is defense in depth).  Everything else is
#: simulation output and must be bit-identical run to run — that is the
#: contract :func:`payload_fingerprint` checks and the CI warm/cold
#: double-run diff enforces.
VOLATILE_PAYLOAD_KEYS = ("elapsed", "restore_elapsed", "warm_start", "perf")


def payload_fingerprint(payload: dict) -> str:
    """Stable digest of a cell payload's *deterministic* content.

    Volatile keys (:data:`VOLATILE_PAYLOAD_KEYS`) are dropped; the rest
    is hashed over canonical JSON.  Two runs of one cell — cold, warm
    started, serial, parallel — must agree on this digest exactly.
    """
    deterministic = {
        k: v for k, v in payload.items() if k not in VOLATILE_PAYLOAD_KEYS
    }
    canonical = json.dumps(
        deterministic, sort_keys=True, separators=(",", ":")
    )
    return sha256(canonical.encode()).hexdigest()


@dataclass(frozen=True)
class CellKey:
    """Identity of one campaign cell's result.

    ``rep`` (the replication index) is provenance, not identity: the
    seed already encodes it, so it is written into the on-disk key
    record — the dashboard groups per-replication CI bands by it — but
    kept out of the digest, and two keys differing only in ``rep``
    address the same cell.
    """

    version: str
    settings_key: tuple
    fault: Optional[str]  # None for the fault-free baseline run
    seed: int
    schema: int = SCHEMA_VERSION
    rep: Optional[int] = field(default=None, compare=False)

    def digest(self) -> str:
        """Stable hex digest used as the on-disk filename."""
        canonical = repr(
            (
                self.version,
                self.settings_key,
                self.fault,
                self.seed,
                self.schema,
            )
        )
        return sha256(canonical.encode()).hexdigest()


@dataclass(frozen=True)
class SummaryKey:
    """Identity of one stream's repetition summary.

    A *stream* is the replication series of one (version, fault) pair
    under one repetition policy.  Unlike cells, summaries are
    policy-dependent — how many reps ran and why the stream stopped is
    exactly what the policy decides — so the policy key is part of the
    identity and differently-policied campaigns over one store keep
    separate summaries.
    """

    version: str
    settings_key: tuple
    fault: Optional[str]  # None = the baseline stream
    policy_key: tuple
    schema: int = SCHEMA_VERSION

    def digest(self) -> str:
        canonical = repr(
            (
                self.version,
                self.settings_key,
                self.fault,
                self.policy_key,
                self.schema,
            )
        )
        return sha256(canonical.encode()).hexdigest()


class ResultStore:
    """Interface: ``get`` returns a payload dict or ``None`` (miss)."""

    def get(self, key: CellKey) -> Optional[dict]:  # pragma: no cover
        raise NotImplementedError

    def put(self, key: CellKey, payload: dict) -> None:  # pragma: no cover
        raise NotImplementedError

    def clear(self) -> None:  # pragma: no cover
        raise NotImplementedError

    def drain_notices(self) -> "list[str]":
        """One-line run-telemetry notices accumulated since last drain.

        A schema bump must not silently re-run cached cells: stores that
        notice stale-generation results report them here, and the
        campaign surfaces the notices in its report.
        """
        return []

    # -- repetition summaries (schema v5) -----------------------------
    def get_summary(self, key: SummaryKey) -> Optional[dict]:
        return None

    def put_summary(self, key: SummaryKey, payload: dict) -> None:
        pass


class MemoryStore(ResultStore):
    """Process-local store; survives nothing, costs nothing."""

    def __init__(self) -> None:
        self._cells: Dict[CellKey, dict] = {}
        self._summaries: Dict[SummaryKey, dict] = {}

    def get(self, key: CellKey) -> Optional[dict]:
        return self._cells.get(key)

    def put(self, key: CellKey, payload: dict) -> None:
        self._cells[key] = payload

    def get_summary(self, key: SummaryKey) -> Optional[dict]:
        return self._summaries.get(key)

    def put_summary(self, key: SummaryKey, payload: dict) -> None:
        self._summaries[key] = payload

    def clear(self) -> None:
        self._cells.clear()
        self._summaries.clear()

    def __len__(self) -> int:
        return len(self._cells)


class DiskStore(ResultStore):
    """JSON-per-cell store under ``cache_dir``.

    Files are sharded by the first two digest characters to keep
    directory listings manageable for full campaigns (hundreds of
    cells per (settings, schema) generation).
    """

    def __init__(self, cache_dir: Union[str, Path]) -> None:
        self.cache_dir = Path(cache_dir)
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        except FileExistsError:
            raise NotADirectoryError(
                f"cache dir {self.cache_dir} exists and is not a directory"
            ) from None
        # Misses whose key exists under an older schema version, counted
        # per old version for drain_notices().
        self._stale_schema_hits: Dict[int, int] = {}

    def _path(self, key: CellKey) -> Path:
        digest = key.digest()
        return self.cache_dir / digest[:2] / f"{digest}.json"

    def get(self, key: CellKey) -> Optional[dict]:
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except FileNotFoundError:
            self._note_stale_generation(key)
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            # Truncated or corrupted: treat as a miss so the cell is
            # re-run rather than crashing the campaign.
            return None
        if not isinstance(data, dict) or "payload" not in data:
            return None
        return data["payload"]

    def put(self, key: CellKey, payload: dict) -> None:
        record = {
            "key": {
                "version": key.version,
                "fault": key.fault,
                "seed": key.seed,
                "schema": key.schema,
                "rep": key.rep,
            },
            "payload": payload,
        }
        self._write_record(self._path(key), record)

    # -- repetition summaries (schema v5) -----------------------------
    def _summary_path(self, key: SummaryKey) -> Path:
        return self.cache_dir / SUMMARY_DIR / f"{key.digest()}.json"

    def get_summary(self, key: SummaryKey) -> Optional[dict]:
        try:
            with open(self._summary_path(key), "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(data, dict) or "payload" not in data:
            return None
        return data["payload"]

    def put_summary(self, key: SummaryKey, payload: dict) -> None:
        record = {
            "summary_key": {
                "version": key.version,
                "fault": key.fault,
                "policy": list(key.policy_key),
                "schema": key.schema,
            },
            "payload": payload,
        }
        self._write_record(self._summary_path(key), record)

    def iter_summaries(self):
        """Yield ``(key_info, payload)`` per readable repetition summary."""
        root = self.cache_dir / SUMMARY_DIR
        if not root.is_dir():
            return
        for path in sorted(root.glob("*.json")):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    data = json.load(fh)
            except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                continue
            if (
                not isinstance(data, dict)
                or "payload" not in data
                or "summary_key" not in data
            ):
                continue
            yield data["summary_key"], data["payload"]

    @staticmethod
    def _write_record(path: Path, record: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        # Atomic publish: never leave a half-written record visible.
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=path.stem, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(record, fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _note_stale_generation(self, key: CellKey) -> None:
        """A miss at the current schema: check for older-schema results.

        Finding one means a schema bump (not a cold cache) is forcing the
        re-run — worth a notice instead of mutely re-simulating.
        """
        for old in range(1, key.schema):
            old_key = dataclasses.replace(key, schema=old)
            if self._path(old_key).exists():
                self._stale_schema_hits[old] = (
                    self._stale_schema_hits.get(old, 0) + 1
                )
                return

    def drain_notices(self) -> "list[str]":
        notices = [
            f"cache invalidated (schema v{old}\u2192v{SCHEMA_VERSION}): "
            f"{n} cell(s) re-run"
            for old, n in sorted(self._stale_schema_hits.items())
        ]
        self._stale_schema_hits = {}
        return notices

    def iter_cells(self):
        """Yield ``(key_info, payload)`` for every readable cached cell.

        ``key_info`` is the JSON key dict written by :meth:`put`
        (version / fault / seed / schema).  Unreadable or foreign files
        are skipped — this is a reporting walk (the campaign dashboard),
        not a cache lookup, so it must tolerate a dirty directory.
        """
        for _digest, key, payload in self.iter_cell_files():
            yield key, payload

    def iter_cell_files(self):
        """:meth:`iter_cells` with each cell's :meth:`CellKey.digest` (its
        file name) first: the one identity that covers the settings."""
        for shard in sorted(self.cache_dir.iterdir()):
            if not self._is_shard(shard):
                continue
            for cell in sorted(shard.glob("*.json")):
                try:
                    with open(cell, "r", encoding="utf-8") as fh:
                        data = json.load(fh)
                except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                    continue
                if (
                    not isinstance(data, dict)
                    or "payload" not in data
                    or "key" not in data
                ):
                    continue
                yield cell.stem, data["key"], data["payload"]

    @staticmethod
    def _is_shard(path: Path) -> bool:
        """Cell shards are the two-hex-char directories; siblings like
        ``warmstart/`` and ``repetition/`` are other namespaces (and a
        ``perf/`` left by older versions is ignored)."""
        return path.is_dir() and len(path.name) == 2

    def clear(self) -> None:
        """Remove every cached cell and repetition summary (the directory
        itself is kept)."""
        for shard in self.cache_dir.iterdir():
            if not self._is_shard(shard) and shard.name != SUMMARY_DIR:
                continue
            for cell in shard.glob("*.json"):
                try:
                    cell.unlink()
                except OSError:
                    pass

    def __len__(self) -> int:
        return sum(
            1
            for shard in self.cache_dir.iterdir()
            if self._is_shard(shard)
            for _ in shard.glob("*.json")
        )


def open_store(cache_dir: Optional[Union[str, Path]]) -> ResultStore:
    """A :class:`DiskStore` when a directory is given, else memory."""
    if cache_dir is None:
        return MemoryStore()
    return DiskStore(cache_dir)
