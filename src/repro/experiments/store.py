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
  worker processes of a parallel run.  Corrupted or truncated files, and
  payloads that are not of :data:`_PAYLOAD_SHAPE`, are treated as misses
  (the cell is simply re-run), and writes are atomic (tmp file + rename)
  so a crashed run never poisons the cache.  Every reader after that
  check reads current payloads directly.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

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

#: Shapes for :func:`shape_problem`.  A dict is a JSON object with those
#: keys (``{str: X}``: any keys, every value shaped X), ``[X]`` a list of
#: X and ``[X, Y, ...]`` a list of exactly those items; a leaf is
#: ``str``, ``bool``, ``int`` (a count, never negative), ``NUM`` or
#: ``OPT_NUM`` (a number or null).
NUM = (int, float)
OPT_NUM = (int, float, type(None))
_LEAF_NAMES = {str: "string", bool: "bool", int: "count", NUM: "number",
               OPT_NUM: "number or null"}
_NUMS = dict.fromkeys
_COMMON_SHAPE = {
    "telemetry": {"events": {str: int}, "subscriber_errors": int},
    "observatory": {
        "stages": {"final_stage": str, "intervals": [[str, NUM, NUM]]},
        # min_* are None until the watchdog has calibrated its Tn.
        "health": {
            "slo": _NUMS(("throughput_floor", "availability_floor",
                          "window", "calibration"), NUM),
            "episodes": [{"open": bool}], "violations": int,
            "time_in_violation": NUM,
            **_NUMS(("min_throughput", "min_availability"), OPT_NUM),
        },
        # An empty sketch's quantiles are None.
        "latency": {
            "overall": {"count": int,
                        **_NUMS(("p50", "p95", "p99", "p999"), OPT_NUM)},
            "by_stage": {str: {"p95": OPT_NUM}},
        },
        "attribution": {
            **_NUMS(("requests", "total_lost", "total_slow"), int),
            "mechanisms": {str: {"lost": int, "slow": int}},
        },
    },
    "timeline": {"series": [[NUM, NUM]],
                 **_NUMS(("bucket_width", "availability", "tn"), NUM)},
}

#: A cell payload as the runner writes it, down to every key a reader
#: reads, in its baseline and its fault form.  The volatile keys
#: (:data:`VOLATILE_PAYLOAD_KEYS`) are read only off a payload the
#: process has just computed, never off a stored one.
_PAYLOAD_SHAPE = {
    "baseline": {"tn": NUM, **_COMMON_SHAPE},
    "fault": {
        "profile": {"fault": str, "version": str, "normal_throughput": NUM,
                    "stages": {str: [NUM, NUM]}},
        # A boundary one side never observed is None.
        "divergence": {
            "boundaries": {str: {"online": OPT_NUM}},
            **_NUMS(("max_boundary_error", "misclassified_s",
                     "misclassified_frac"), NUM),
            "online_missing": [str], "online_extra": [str],
        },
        **_COMMON_SHAPE,
    },
}

#: Key records as :class:`DiskStore` writes them, less ``fault`` and
#: ``schema``, and a summary as ``StreamRecord.to_payload`` writes it.
_KEY_SHAPE = {"version": str, "seed": int, "rep": int}
_SUMMARY_KEY_SHAPE = {"version": str, "policy": [str, int, int, NUM]}
_SUMMARY_SHAPE = {"reps": int, "reason": str, "mean": NUM,
                  "ci_half_width": NUM}


def shape_problem(value, shape, path: str = "") -> Optional[str]:
    """Where ``value`` departs from ``shape`` (see :data:`NUM`), or None
    when it has that shape."""
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            return f"{path!r} is missing or not a dict"
        if str in shape:
            fields = [(key, sub, shape[str]) for key, sub in value.items()]
        else:
            fields = [(key, value.get(key), sub) for key, sub in shape.items()]
        fields = [
            (f"{path}.{key}" if path else key, sub, sub_shape)
            for key, sub, sub_shape in fields
        ]
    elif isinstance(shape, list):
        row = len(shape) > 1
        if not isinstance(value, list) or row and len(value) != len(shape):
            what = f"list of {len(shape)}" if row else "list"
            return f"{path!r} is missing or not a {what}"
        fields = [
            (f"{path}[{i}]", sub, sub_shape)
            for i, (sub, sub_shape) in enumerate(
                zip(value, shape if row else shape * len(value))
            )
        ]
    else:
        if isinstance(value, shape) and (
            shape is bool or not isinstance(value, bool)
        ) and (shape is not int or value >= 0):
            return None
        return f"{path!r} is missing or not a {_LEAF_NAMES[shape]}"
    for sub_path, sub, sub_shape in fields:
        problem = shape_problem(sub, sub_shape, sub_path)
        if problem:
            return problem
    return None


def payload_problem(fault: Optional[str], payload) -> Optional[str]:
    """Why ``payload`` is not a cell payload this version writes for
    ``fault`` (None for the baseline), or None when it is one."""
    form = "baseline" if fault is None else "fault"
    return shape_problem(payload, _PAYLOAD_SHAPE[form])


#: What reading a truncated or corrupted record raises.
_UNREADABLE = (OSError, ValueError, RecursionError)

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

    def put_summary(self, key: SummaryKey, payload: dict) -> None:
        """Keep one stream's repetition summary (a DiskStore only)."""


class MemoryStore(ResultStore):
    """Process-local store; survives nothing, costs nothing."""

    def __init__(self) -> None:
        self._cells: Dict[CellKey, dict] = {}

    def get(self, key: CellKey) -> Optional[dict]:
        return self._cells.get(key)

    def put(self, key: CellKey, payload: dict) -> None:
        self._cells[key] = payload

    def clear(self) -> None:
        self._cells.clear()

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
        # per old version, and unreadable records, for drain_notices().
        self._stale_schema_hits: Dict[int, int] = {}
        self._unreadable_hits = 0
        # What the last walk of each namespace did not read, by reason.
        self._unread: Dict[str, Dict[str, int]] = {
            "cell(s)": {}, "summary(ies)": {}
        }

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
        except _UNREADABLE:
            data = None
        if not isinstance(data, dict) or payload_problem(
            key.fault, data.get("payload")
        ):
            # Truncated, corrupted or malformed: a miss, so the cell is
            # re-run and rewritten instead of crashing or going unmerged.
            self._unreadable_hits += 1
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
        """Yield ``(key_info, payload)`` per current repetition summary,
        as :meth:`iter_cells` does for cells."""
        paths = sorted((self.cache_dir / SUMMARY_DIR).glob("*.json"))
        for _path, key, payload in self._current(
            "summary(ies)", paths, "summary_key", _SUMMARY_KEY_SHAPE,
            lambda _fault, payload: shape_problem(payload, _SUMMARY_SHAPE),
        ):
            yield key, payload

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
        if self._unreadable_hits:
            notices.append(
                f"{self._unreadable_hits} unreadable or malformed cached "
                "cell(s) re-run"
            )
        self._stale_schema_hits = {}
        self._unreadable_hits = 0
        return notices

    def iter_cells(self):
        """Yield ``(key_info, payload)`` for every current cached cell.

        ``key_info`` is the JSON key dict written by :meth:`put`.  This
        is a reporting walk (the campaign dashboard), not a cache lookup,
        so it tolerates a dirty directory: unreadable files are skipped,
        and records of another schema or shape are counted for
        :meth:`unread_line`.
        """
        for _digest, key, payload in self.iter_cell_files():
            yield key, payload

    def iter_cell_files(self):
        """:meth:`iter_cells` with each cell's :meth:`CellKey.digest` (its
        file name) first: the one identity that covers the settings."""
        paths = [
            cell
            for shard in sorted(self.cache_dir.iterdir())
            if self._is_shard(shard)
            for cell in sorted(shard.glob("*.json"))
        ]
        for path, key, payload in self._current(
            "cell(s)", paths, "key", _KEY_SHAPE, payload_problem
        ):
            yield path.stem, key, payload

    def _current(self, what, paths, key_name, key_shape, problem):
        """Yield ``(path, key, payload)`` per record in ``paths`` whose key
        has the current schema and ``key_shape`` and whose payload has no
        ``problem(fault, payload)``; count the rest under ``what``."""
        unread = self._unread[what] = {}
        for path in paths:
            data = _read_json(path)
            if not isinstance(data, dict):
                continue
            key = data.get(key_name)
            schema = key.get("schema") if isinstance(key, dict) else None
            fault = key.get("fault", 0) if schema == SCHEMA_VERSION else 0
            if type(schema) is int and schema != SCHEMA_VERSION:
                reason = f"under schema v{schema}"
            elif shape_problem(key, key_shape) or not (
                fault is None or isinstance(fault, str)
            ) or problem(fault, data.get("payload")):
                reason = "malformed"
            else:
                yield path, key, data["payload"]
                continue
            unread[reason] = unread.get(reason, 0) + 1

    def unread_line(self) -> str:
        """One line naming what the last walk of each namespace did not
        read (other schemas first, then malformed records), or ""."""
        counts = [
            f"{n} {what} {why}"
            for what, reasons in self._unread.items()
            for why, n in sorted(
                reasons.items(), key=lambda kv: (kv[0] == "malformed", kv[0])
            )
        ]
        return f"{', '.join(counts)}: not read" if counts else ""

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


def _read_json(path: Path):
    """The JSON in ``path``, or None when it is unreadable or not JSON
    (a truncated or corrupted record)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except _UNREADABLE:
        return None


def open_store(cache_dir: Optional[Union[str, Path]]) -> ResultStore:
    """A :class:`DiskStore` when a directory is given, else memory."""
    if cache_dir is None:
        return MemoryStore()
    return DiskStore(cache_dir)
