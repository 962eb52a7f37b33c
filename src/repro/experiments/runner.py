"""Sharded, resumable execution of the phase-1 campaign.

The full campaign is a (version x fault x replication) grid of
independent simulated runs plus one fault-free baseline per
(version, replication).  Each grid point is a *cell*: a pure function of
the experiment settings and its derived seed.  One worker,
:func:`_run_cell`, runs every cell: it starts the warm segment (restored
from a checkpoint or simulated cold), runs the baseline or injects the
fault, and summarizes and exports the run the same way for both kinds.
This module

* derives a collision-free deterministic seed per *warm group* (a
  stable hash of ``(base_seed, version, rep)`` plus the warm-segment
  layout — the old ``seed + 101 * rep`` arithmetic collides across
  nearby base seeds); the baseline and every fault of a group share the
  seed, so their pre-injection trajectories are identical and the
  warm-start cache (:mod:`.warmstart`) simulates each group's warm
  segment exactly once,
* runs each wave of warm groups and cells through one order-preserving
  map, :meth:`CampaignRunner._map`: inline, or on a
  :class:`~concurrent.futures.ProcessPoolExecutor` (``jobs > 1``), with
  a transparent serial fallback on platforms where worker processes
  cannot be spawned,
* consults a :class:`~repro.experiments.store.ResultStore` before
  running anything, so a warm store replays a campaign with zero
  simulation work,
* frees each cell's simulation at the cell boundary (see
  :func:`_collected`), so a campaign holds one live cluster plus the
  payloads it keeps, however many cells it runs, and
* merges per-cell fitted profiles into :class:`ProfileSet`s exactly the
  way the serial code always has (throughputs averaged per fault,
  duration-weighted), so parallel and serial campaigns are
  interchangeable.

A :class:`CampaignReport` records per-cell wall-clock and cache
provenance; ``repro.analysis.report.campaign_timing_report`` renders it.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..core.model import ProfileSet
from ..core.stages import SevenStageProfile, average_profiles
from ..faults.spec import FaultKind
from ..obs.metrics import MetricsRegistry
from ..press.config import ALL_VERSIONS_EXTENDED
from ..sim.rng import sha256
from .repeaters import CONFIDENCE, Decision, ReplicationRule
from .settings import CAMPAIGN_FAULTS, FAULT_MTTR, Phase1Settings
from .store import CellKey, DiskStore, MemoryStore, ResultStore, SummaryKey
from .warmstart import (
    STATUS_COLD,
    STATUS_HIT,
    STATUS_INVALIDATED,
    STATUS_MISS,
    WarmSpec,
    WarmStartCache,
    simulate_warm,
)


def cell_seed(
    base_seed: int, version: str, rep: int, *, warm: float, fault_at: float
) -> int:
    """Deterministic 64-bit seed for one *warm group* (version, rep).

    Every cell of a (version, replication) group — the fault-free
    baseline and all fault cells — shares one seed: their trajectories
    are identical up to the injection instant (the fault spec only
    enters the simulation there), which is what lets the warm-start
    cache (:mod:`.warmstart`) simulate that shared prefix once per
    group.  It also restores the Tn correlation the historical serial
    path had (baseline and faults of a replication under one seed).

    A stable hash keeps distinct groups on distinct seeds for *any*
    base seed — unlike linear schemes (``base + 101 * rep``) where
    nearby base seeds reuse each other's replication seeds.  The
    warm-segment layout settings (``warm``, ``fault_at``) are folded in
    so campaigns that reposition the measurement window or the
    injection instant land on fresh seed universes instead of reusing
    trajectories judged under a different layout.
    """
    tag = f"{base_seed}|{version}|rep{rep}|warm={warm!r}|at={fault_at!r}"
    digest = sha256(tag.encode()).digest()
    return int.from_bytes(digest[:8], "little")


# ----------------------------------------------------------------------
# Cell workers.  Module-level so they pickle for worker processes; each
# returns a JSON-ready payload so results are identical whether they
# travel through memory, a pipe, or the on-disk store.
# ----------------------------------------------------------------------


def _timeline_payload(
    series, bucket_width: float, availability: float, tn: float
) -> dict:
    """Compact JSON-ready timeline for the campaign dashboard.

    Rates are in paper units (req/s after ``report_factor`` scaling) and
    rounded — the dashboard draws pixels, not statistics.
    """
    return {
        "series": [[t, round(rate, 3)] for t, rate in series],
        "bucket_width": bucket_width,
        "availability": round(availability, 6),
        "tn": round(tn, 3),
    }


def _collected(fn: Callable[..., dict], *args) -> dict:
    """``fn(*args)``, then free the garbage the call left behind.

    A finished cell leaves its whole cluster behind as cyclic garbage
    (engine <-> bus, NIC handlers <-> transports), which would otherwise
    wait for CPython's gen-2 collector while the resident set grows
    with the number of cells.  :meth:`CampaignRunner.run` freezes what
    was alive before the campaign; re-freezing the survivors here (the
    payloads and caches the campaign keeps) leaves the next collect only
    the next cell's objects to scan.
    """
    payload = fn(*args)
    gc.collect()
    gc.freeze()
    return payload


def _warm_cell(
    version: str,
    settings: Phase1Settings,
    seed: int,
    keep_events: bool,
    warm: WarmSpec,
) -> dict:
    """Warm-wave worker: make one warm group's checkpoint exist."""
    cell_settings = dataclasses.replace(settings, seed=seed)
    return WarmStartCache(warm).ensure(version, cell_settings, keep_events)


def _profiled_cell(worker: Callable[..., dict], *args) -> dict:
    """Run one cell worker under the layer profiler.

    The profiler's hooks exist only for the duration of the call (see
    :mod:`repro.obs.profiler`).  The returned payload carries the cell's
    wall-clock breakdown and profile digest under ``"perf"``; the runner
    strips it onto ``report.perf`` (and from there into the campaign
    ledger), so it never enters the persisted payload.  The
    store-serialize cost is measured on the exact bytes the store will
    write.
    """
    from ..obs.profiler import LayerProfiler

    profiler = LayerProfiler()
    payload = profiler.run(worker, *args)
    ser0 = time.perf_counter()
    json.dumps(payload)
    serialize_s = time.perf_counter() - ser0
    warm = payload["warm_start"]
    elapsed = payload["elapsed"]
    restore_s = payload["restore_elapsed"]
    payload["perf"] = {
        "restore_s": restore_s,
        "execute_s": elapsed - restore_s,
        "serialize_s": serialize_s,
        # Warm-segment simulate+capture cost, paid by the group's first
        # cell on a checkpoint miss (0.0 on hits and cold cells).
        "snapshot_s": warm.get("capture_s", 0.0),
        "elapsed_s": elapsed,
        "warm_status": warm["status"],
        "profile": profiler.digest(),
    }
    return payload


def _run_cell(
    version: str,
    fault: Optional[str],
    settings: Phase1Settings,
    seed: int,
    trace: Optional[tuple] = None,
    spans: Optional[tuple] = None,
    warm: Optional[WarmSpec] = None,
) -> dict:
    """Run one campaign cell; ``fault=None`` is the fault-free baseline.

    With a :class:`WarmSpec` the warm segment is restored from (or
    captured into) the campaign's checkpoint cache; without one the cell
    simulates it.  ``trace`` is ``(trace_dir, label)`` and ``spans`` is
    ``(spans_dir, sample_every, label)`` as packed by
    :class:`CampaignRunner`, or ``None`` when off.  Traces and spans
    never enter the payload, so the stored result stays byte-identical
    to an unobserved run.
    """
    # Imported at call time: the layer profilers patch
    # divergence_report, extract_profile and telemetry_summary on their
    # modules for the duration of a run.
    from ..core.divergence import divergence_report
    from ..core.extract import extract_profile
    from ..obs.exporters import export_traces, telemetry_summary
    from .phase1 import run_baseline, run_single_fault

    cell_settings = dataclasses.replace(settings, seed=seed)
    keep_events = trace is not None
    start = time.perf_counter()
    collector = None
    restore_s = 0.0
    if warm is None:
        if spans is not None:
            from ..obs.spans import SpanCollector

            collector = SpanCollector(sample_every=spans[1])
        cluster, obs = simulate_warm(
            version, cell_settings, keep_events, collector
        )
        warm_prov = {"status": STATUS_COLD}
    else:
        cluster, obs, warm_prov = WarmStartCache(warm).obtain(
            version, cell_settings, keep_events
        )
        restore_s = time.perf_counter() - start
    config = ALL_VERSIONS_EXTENDED[version]
    if fault is None:
        tn, cluster = run_baseline(config, cell_settings, warm_cluster=cluster)
        obs.finish(cluster)
        monitor = cluster.monitor
        end = cell_settings.warm + cell_settings.fault_at
        head = {"kind": "baseline", "tn": tn}
        tail = {
            "timeline": _timeline_payload(
                [
                    (t, rate * cluster.scale.report_factor)
                    for t, rate in monitor.series(0.0, end)
                ],
                monitor.bucket_width,
                monitor.availability(),
                tn,
            ),
        }
    else:
        kind = FaultKind(fault)
        # The cell measures its *own* pre-injection throughput as Tn.
        # The extraction thresholds (impact/recovery, a few percent of
        # Tn) need Tn correlated with the run they judge; with per-group
        # seeds that correlation is exact — baseline and faults of a
        # (version, rep) share the pre-injection trajectory, as the
        # historical serial path arranged by running them under one seed
        # per replication.
        record, cluster = run_single_fault(
            config, kind, cell_settings, warm_cluster=cluster
        )
        obs.finish(cluster)
        fitted = extract_profile(
            record, mttr=FAULT_MTTR[kind], env=settings.environment
        )
        head = {"kind": "profile", "profile": fitted.to_dict()}
        tail = {
            "divergence": divergence_report(
                obs.detector.summary(), record, settings.environment
            ),
            "timeline": _timeline_payload(
                record.timeline.series,
                record.timeline.bucket_width,
                record.timeline.availability,
                record.normal_throughput,
            ),
        }
    observed = trace or spans  # both tuples end with the cell's label
    if observed:
        export_traces(
            observed[-1],
            {"version": version, "fault": fault, "seed": seed},
            trace_dir=trace[0] if trace else None,
            recorder=obs.recorder,
            spans_dir=spans[0] if spans else None,
            collector=collector,
            now=cluster.engine.now,
        )
    return {
        **head,
        "elapsed": time.perf_counter() - start,
        "restore_elapsed": restore_s,
        "warm_start": warm_prov,
        "telemetry": telemetry_summary(
            obs.recorder, cluster.metrics, bus=cluster.bus
        ),
        "observatory": obs.summary(),
        **tail,
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CellRecord:
    """Provenance of one cell within a campaign run."""

    version: str
    fault: Optional[str]  # None = baseline
    rep: int
    seed: int
    elapsed: float  # simulation wall-clock (0.0 for cache hits)
    cached: bool
    #: per-cell run telemetry (event counts + metrics snapshot)
    telemetry: dict
    #: per-cell observatory summary (stages/health/latency/attribution)
    observatory: dict
    #: wall-clock spent restoring the warm checkpoint (contained in
    #: ``elapsed``; 0.0 for cache hits)
    restore_s: float = 0.0
    #: warm-start provenance ("hit"/"miss"/"invalidated"/"cold"); None
    #: for result-store hits (those cells never touched a checkpoint)
    warm: Optional[str] = None


@dataclass(frozen=True)
class StreamRecord:
    """How one replication stream ended: reps spent, and why it stopped.

    A stream is the replication series of one (version, fault) pair —
    ``fault=None`` is the baseline stream (judged on Tn; fault streams
    are judged on run availability).  The CI fields describe the
    Student-t interval of the stream metric at the moment the rule
    fired, which is exactly the band the dashboard reports.
    """

    version: str
    fault: Optional[str]
    metric: str  # "tn" | "availability"
    reps: int
    reason: str  # a repeaters.REASON_* constant
    mean: float
    std: float
    rse: float
    ci_half_width: float
    confidence: float

    @property
    def label(self) -> str:
        return f"{self.version}/{self.fault or 'baseline'}"

    def to_payload(self) -> dict:
        """JSON-ready form persisted as a store repetition summary."""
        return {
            "kind": "repetition",
            "metric": self.metric,
            "reps": self.reps,
            "reason": self.reason,
            "mean": self.mean,
            "std": self.std,
            "rse": self.rse,
            "ci_half_width": self.ci_half_width,
            "confidence": self.confidence,
        }


@dataclass
class CampaignReport:
    """Where a campaign's wall-clock went, cell by cell."""

    jobs: int = 1
    wall_clock: float = 0.0
    cells: List[CellRecord] = field(default_factory=list)
    #: one-line run-telemetry notices (e.g. schema-bump invalidations)
    notices: List[str] = field(default_factory=list)
    #: warm-start checkpoint traffic: {"hit", "miss", "invalidated"}
    #: counts (mirrors the campaign.warm_start.* metrics counters);
    #: empty when warm-start was disabled or every cell was store-cached
    warm_start: Dict[str, int] = field(default_factory=dict)
    #: the replication mode that shaped the grid ("fixed" / "ci")
    policy: str = "fixed"
    #: per-stream replication outcome (reps spent, stopping reason, CI)
    repetition: List[StreamRecord] = field(default_factory=list)
    #: max reps the policy allowed per stream (the fixed-N comparison)
    reps_ceiling_per_stream: int = 0
    #: per-version replicate ProfileSets — one per *complete* replication
    #: (a rep every stream of the version ran) — the samples the CI
    #: bands on AT/AA/P are computed from
    replicates: Dict[str, List[ProfileSet]] = field(default_factory=dict)
    #: per-cell profiler records (profiled campaigns only): the
    #: cell identity plus the wall-clock breakdown and profile digest,
    #: rolled into the ``BENCH_campaign.json`` ledger
    perf: List[dict] = field(default_factory=list)

    @property
    def reps_spent(self) -> int:
        return sum(r.reps for r in self.repetition)

    @property
    def reps_ceiling(self) -> int:
        """Reps a fixed-``max_reps`` campaign would have spent."""
        return self.reps_ceiling_per_stream * len(self.repetition)

    @property
    def reps_saved_fraction(self) -> float:
        if self.reps_ceiling <= 0:
            return 0.0
        return 1.0 - self.reps_spent / self.reps_ceiling

    @property
    def executed(self) -> int:
        return sum(1 for c in self.cells if not c.cached)

    @property
    def cached(self) -> int:
        return sum(1 for c in self.cells if c.cached)

    @property
    def cell_seconds(self) -> float:
        """Total simulation time across cells (ignores pool overhead)."""
        return sum(c.elapsed for c in self.cells)

    @property
    def restore_seconds(self) -> float:
        """Warm-checkpoint restore time contained in :attr:`cell_seconds`."""
        return sum(c.restore_s for c in self.cells)

    @property
    def execute_seconds(self) -> float:
        """Pure simulation time: :attr:`cell_seconds` minus restores.

        A warm hit's restore is real wall-clock but not simulation work;
        folding it into the execute column overstated how much the pool
        parallelized (the historical ``speedup`` did exactly that, which
        is why both columns are reported now).
        """
        return self.cell_seconds - self.restore_seconds

    @property
    def speedup(self) -> float:
        """Aggregate cell time over wall time (1.0 = serial, no cache)."""
        if self.wall_clock <= 0:
            return 1.0
        return self.cell_seconds / self.wall_clock

    @property
    def parallelism(self) -> float:
        """Execute-only time over wall time: the honest pool ratio.

        Unlike :attr:`speedup` this excludes warm-restore cost, so a
        campaign that spent its wall-clock unpickling checkpoints cannot
        masquerade as well-parallelized simulation.
        """
        if self.wall_clock <= 0:
            return 1.0
        return self.execute_seconds / self.wall_clock

    def by_version(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for c in self.cells:
            out[c.version] = out.get(c.version, 0.0) + c.elapsed
        return out

    def by_fault(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for c in self.cells:
            label = c.fault if c.fault is not None else "baseline"
            out[label] = out.get(label, 0.0) + c.elapsed
        return out

    def event_totals(self) -> Dict[str, int]:
        """Campaign-wide event counts summed over cell telemetry."""
        out: Dict[str, int] = {}
        for c in self.cells:
            for name, n in c.telemetry["events"].items():
                out[name] = out.get(name, 0) + n
        return out


def merge_profiles(
    rows: Iterable[Tuple[str, Optional[str], int, dict]],
) -> Tuple[Dict[str, ProfileSet], Dict[str, List[ProfileSet]]]:
    """Merge campaign cells into per-version phase-1 ProfileSets.

    ``rows`` are ``(version, fault, rep, payload)`` cells, ``fault=None``
    for the baseline.  Tn is averaged over the baseline cells and each
    fault's profiles with :func:`average_profiles`, both in replication
    order; versions and faults keep their first-seen row order.  A
    version needs a baseline and one fault profile.

    The second result maps each merged version to one single-replication
    ProfileSet per replication that has the baseline and every fault of
    the version — the samples behind the AA/AT/P CI bands.
    """
    streams: Dict[str, Dict[Optional[str], list]] = {}
    for version, fault, rep, payload in rows:
        streams.setdefault(version, {}).setdefault(fault, []).append(
            (rep, payload)
        )
    merged: Dict[str, ProfileSet] = {}
    replicates: Dict[str, List[ProfileSet]] = {}
    for version, by_fault in streams.items():
        faults = [f for f in by_fault if f is not None]
        if None not in by_fault or not faults:
            continue
        by_rep: Dict[int, Dict[Optional[str], dict]] = {}
        for fault, cells in by_fault.items():
            cells.sort(key=lambda rp: rp[0])
            for rep, payload in cells:
                by_rep.setdefault(rep, {})[fault] = payload
        tns = [float(payload["tn"]) for _, payload in by_fault[None]]
        merged[version] = ProfileSet(version, sum(tns) / len(tns))
        for fault in faults:
            merged[version].add(
                average_profiles(
                    SevenStageProfile.from_dict(payload["profile"])
                    for _, payload in by_fault[fault]
                )
            )
        replicates[version] = []
        for rep in sorted(by_rep):
            cell = by_rep[rep]
            if len(cell) < len(by_fault):
                continue
            ps = ProfileSet(version, float(cell[None]["tn"]))
            for fault in faults:
                ps.add(SevenStageProfile.from_dict(cell[fault]["profile"]))
            replicates[version].append(ps)
    return merged, replicates


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _Cell:
    version: str
    fault: Optional[str]
    rep: int
    seed: int

    def key(self, settings_key: tuple) -> CellKey:
        return CellKey(
            version=self.version,
            settings_key=settings_key,
            fault=self.fault,
            seed=self.seed,
            rep=self.rep,
        )

    @property
    def stream(self) -> Tuple[str, Optional[str]]:
        return (self.version, self.fault)


class CampaignRunner:
    """Executes a campaign grid against a result store.

    ``jobs=1`` runs cells inline; ``jobs>1`` fans misses out to a
    process pool.  Either way the merged :class:`ProfileSet`s are a pure
    function of the settings, so the two paths agree bit-for-bit.
    """

    def __init__(
        self,
        settings: Phase1Settings,
        store: Optional[ResultStore] = None,
        jobs: int = 1,
        use_cache: bool = True,
        trace_dir: Optional[str] = None,
        spans_dir: Optional[str] = None,
        span_sample: int = 1,
        warm_start: bool = True,
        profile: bool = False,
    ):
        self.settings = settings
        self.store = store if store is not None else MemoryStore()
        self.jobs = max(1, int(jobs))
        self.use_cache = use_cache
        self.trace_dir = str(trace_dir) if trace_dir is not None else None
        self.spans_dir = str(spans_dir) if spans_dir is not None else None
        if span_sample < 1:
            raise ValueError(f"span_sample must be >= 1, got {span_sample}")
        self.span_sample = span_sample
        #: run every executed cell under the wall-clock layer profiler.
        #: Deliberately NOT part of the settings key: profiling observes
        #: only host time, so profiled and unprofiled campaigns share one
        #: cache universe and byte-identical payloads.
        self.profile = bool(profile)
        #: run-scoped warm-checkpoint spool (in-memory parallel runs)
        self._spool = None
        self.warm_start = warm_start
        #: campaign-level observability (campaign.warm_start.* and
        #: campaign.reps.* counters)
        self.metrics = MetricsRegistry()
        self._settings_key = settings.sim_key()

    # -- grid ----------------------------------------------------------
    def _seed_for(self, version: str, rep: int) -> int:
        """The stable per-warm-group seed — unchanged from the fixed-rep
        scheme, so adaptive campaigns extend a stream with exactly the
        seeds a bigger fixed campaign would have used."""
        return cell_seed(
            self.settings.seed,
            version,
            rep,
            warm=self.settings.warm,
            fault_at=self.settings.fault_at,
        )

    # -- execution -----------------------------------------------------
    def _lookup(self, cell: _Cell) -> Optional[dict]:
        if not self.use_cache:
            return None
        if self.trace_dir is not None or self.spans_dir is not None:
            # Tracing forces execution: a cached payload has no event
            # stream (or span set) to export.  Results are still stored,
            # so the next un-traced run replays warm.
            return None
        return self.store.get(cell.key(self._settings_key))

    @staticmethod
    def _label(cell: _Cell) -> str:
        return f"{cell.version}__{cell.fault or 'baseline'}__rep{cell.rep}"

    def _trace_arg(self, cell: _Cell) -> Optional[tuple]:
        if self.trace_dir is None:
            return None
        return (self.trace_dir, self._label(cell))

    def _spans_arg(self, cell: _Cell) -> Optional[tuple]:
        if self.spans_dir is None:
            return None
        return (self.spans_dir, self.span_sample, self._label(cell))

    def _record(
        self, report: CampaignReport, cell: _Cell, payload: dict, cached: bool
    ) -> None:
        rec = CellRecord(
            version=cell.version,
            fault=cell.fault,
            rep=cell.rep,
            seed=cell.seed,
            elapsed=0.0 if cached else payload["elapsed"],
            cached=cached,
            telemetry=payload["telemetry"],
            observatory=payload["observatory"],
            restore_s=0.0 if cached else payload["restore_elapsed"],
            warm=None if cached else payload["warm_start"]["status"],
        )
        report.cells.append(rec)
        if not cached:
            self._count_warm(rec.warm)

    def _execute_wave(
        self,
        misses: List[_Cell],
        warm: Optional[WarmSpec],
        report: CampaignReport,
    ) -> Dict[_Cell, dict]:
        """Run every missed cell, through the pool when one is available."""
        calls = [
            (
                cell.version,
                cell.fault,
                self.settings,
                cell.seed,
                self._trace_arg(cell),
                self._spans_arg(cell),
                warm,
            )
            for cell in misses
        ]
        worker = _run_cell
        if self.profile:
            worker, calls = _profiled_cell, [(worker,) + a for a in calls]
        results = dict(zip(misses, self._map(worker, calls)))
        for cell, payload in results.items():
            # The profiler's perf record travels back on the payload but
            # never *in* it: it is volatile wall-clock, so it is stripped
            # onto the report (for the campaign ledger) before the
            # payload is persisted or fingerprinted.
            perf = payload.pop("perf", None)
            if perf is not None:
                report.perf.append(
                    {
                        "version": cell.version,
                        "fault": cell.fault,
                        "rep": cell.rep,
                        "seed": cell.seed,
                        **perf,
                    }
                )
            if self.use_cache:
                self.store.put(cell.key(self._settings_key), payload)
            self._record(report, cell, payload, cached=False)
        return results

    # -- warm-start ----------------------------------------------------
    def _warm_for(self, misses):
        """Pick where one wave's misses keep warm checkpoints.

        Disk-backed stores persist checkpoints next to their cells
        (surviving restarts like the cells do); in-memory parallel
        campaigns spool through a run-scoped temp dir — created lazily
        on the first wave that needs one and shared by later waves —
        since a per-process memory cache is invisible to pool workers;
        serial in-memory campaigns just use the process-local cache.
        """
        if not self.warm_start or not misses:
            return None
        if self.spans_dir is not None:
            # Span cells run cold: a checkpoint restored mid-stream has
            # no spans for its in-flight requests, which would violate
            # the trace-completeness invariant the validator enforces.
            return None
        if isinstance(self.store, DiskStore):
            return WarmSpec(dir=str(self.store.cache_dir / "warmstart"))
        if self.jobs > 1 and len(misses) > 1:
            if self._spool is None:
                self._spool = tempfile.TemporaryDirectory(
                    prefix="repro-warmstart-"
                )
            return WarmSpec(dir=self._spool.name)
        return WarmSpec(dir=None)

    def _warm_wave(self, misses, spec: WarmSpec) -> None:
        """Checkpoint every warm group exactly once, before the cells.

        This is what turns the campaign's warm-up cost from O(cells)
        into O(warm groups): by the time the cell wave fans out, every
        cell — parallel ones included — finds its group's checkpoint
        instead of re-simulating the shared prefix.
        """
        keep = self.trace_dir is not None
        groups = sorted({(cell.version, cell.seed) for cell in misses})
        results = self._map(
            _warm_cell,
            [(v, self.settings, seed, keep, spec) for v, seed in groups],
        )
        for prov in results:
            # A warm-wave "hit" found a checkpoint from an earlier
            # campaign: nothing simulated, nothing restored — only the
            # cells' restores count as hits.
            if prov["status"] != STATUS_HIT:
                self._count_warm(prov["status"])

    def _count_warm(self, status: Optional[str]) -> None:
        if status in (STATUS_HIT, STATUS_MISS, STATUS_INVALIDATED):
            self.metrics.counter(f"campaign.warm_start.{status}").inc()

    def _finish_warm_report(self, report: CampaignReport) -> None:
        counts = {
            status: self.metrics.counter(f"campaign.warm_start.{status}").value
            for status in (STATUS_HIT, STATUS_MISS, STATUS_INVALIDATED)
        }
        report.warm_start = {k: v for k, v in counts.items() if v}
        if not report.warm_start:
            return
        notice = (
            f"warm-start: {counts[STATUS_MISS]} warm segment(s) simulated, "
            f"{counts[STATUS_HIT]} checkpoint restore(s)"
        )
        if counts[STATUS_INVALIDATED]:
            notice += (
                f", {counts[STATUS_INVALIDATED]} invalidated checkpoint(s) "
                "recomputed (format/python changed)"
            )
        notice += " — see PERFORMANCE.md"
        report.notices.append(notice)

    def _pool(self):
        """A process pool, or ``None`` to fall back to inline execution."""
        if self.jobs <= 1:
            return None
        try:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            methods = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in methods else "spawn"
            return ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=multiprocessing.get_context(method),
            )
        except (ImportError, NotImplementedError, OSError, ValueError):
            return None

    def _map(self, fn: Callable[..., dict], calls: List[tuple]) -> List[dict]:
        """``[fn(*args) for args in calls]``, in order, through the pool
        when there is more than one call and a pool can be had.  Each
        call's garbage is collected as it returns (:func:`_collected`)."""
        pool = self._pool() if len(calls) > 1 else None
        if pool is None:
            return [_collected(fn, *args) for args in calls]
        try:
            futures = [pool.submit(_collected, fn, *args) for args in calls]
            return [future.result() for future in futures]
        finally:
            pool.shutdown()

    # -- adaptive scheduling -------------------------------------------
    @staticmethod
    def _stream_sample(cell: _Cell, payload: dict) -> float:
        """The scalar a stream's stopping rule judges.

        Baseline streams are judged on Tn, fault streams on the run's
        availability — the quantities whose spread bounds the AT/AA/P
        estimates downstream.
        """
        if cell.fault is None:
            return float(payload["tn"])
        return float(payload["timeline"]["availability"])

    def _run_wave(
        self,
        wave: List[_Cell],
        report: CampaignReport,
        payloads: Dict[_Cell, dict],
        samples: Dict[Tuple[str, Optional[str]], List[float]],
    ) -> None:
        """Execute one wave of cells: store lookups, then warm-start and
        (possibly pooled) simulation of the misses."""
        self.metrics.counter("campaign.reps.scheduled").inc(len(wave))
        misses: List[_Cell] = []
        for cell in wave:
            hit = self._lookup(cell)
            if hit is not None:
                payloads[cell] = hit
                self._record(report, cell, hit, cached=True)
            else:
                misses.append(cell)
        if misses:
            warm_spec = self._warm_for(misses)
            if warm_spec is not None:
                self._warm_wave(misses, warm_spec)
            payloads.update(self._execute_wave(misses, warm_spec, report))
        for cell in wave:
            samples[cell.stream].append(
                self._stream_sample(cell, payloads[cell])
            )

    def _finalize_stream(
        self,
        stream: Tuple[str, Optional[str]],
        decision: Decision,
        rule: ReplicationRule,
        report: CampaignReport,
    ) -> None:
        version, fault = stream
        record = StreamRecord(
            version=version,
            fault=fault,
            metric="tn" if fault is None else "availability",
            reps=decision.n,
            reason=decision.reason,
            mean=decision.mean,
            std=decision.std,
            rse=decision.rse,
            ci_half_width=decision.half_width,
            confidence=CONFIDENCE,
        )
        report.repetition.append(record)
        skipped = rule.max_reps - decision.n
        if skipped > 0:
            self.metrics.counter("campaign.reps.skipped").inc(skipped)
        if self.use_cache:
            self.store.put_summary(
                SummaryKey(
                    version=version,
                    settings_key=self._settings_key,
                    fault=fault,
                    policy_key=rule.key(),
                ),
                record.to_payload(),
            )

    # -- public API ----------------------------------------------------
    def run(
        self,
        versions: Iterable[str],
        faults: Iterable[FaultKind] = CAMPAIGN_FAULTS,
    ) -> Tuple[Dict[str, ProfileSet], CampaignReport]:
        versions = list(versions)
        faults = tuple(faults)
        rule = ReplicationRule(
            self.settings.replications,
            self.settings.max_replications or self.settings.replications,
            self.settings.ci_rel_half_width,
        )
        report = CampaignReport(
            jobs=self.jobs,
            policy=rule.name,
            reps_ceiling_per_stream=rule.max_reps,
        )
        started = time.perf_counter()

        # Streams: the baseline and every fault of each version
        # replicate independently under one rule.  Every cell is
        # independent (fault cells measure their own pre-injection Tn),
        # so each wave fans out in parallel.
        streams: List[Tuple[str, Optional[str]]] = [
            (v, f)
            for v in versions
            for f in [None] + [k.value for k in faults]
        ]
        samples: Dict[Tuple[str, Optional[str]], List[float]] = {
            s: [] for s in streams
        }
        payloads: Dict[_Cell, dict] = {}
        # Everything alive before the campaign is not its garbage; pool
        # workers fork after this and inherit the freeze.
        gc.freeze()
        try:
            # Wave 0: the rule's minimum for every stream — in fixed
            # mode that is the whole grid, exactly the historical
            # single-wave campaign.  Every later wave adds one
            # replication to each stream the rule has not stopped.
            wave = [
                _Cell(v, f, rep, self._seed_for(v, rep))
                for (v, f) in streams
                for rep in range(rule.min_reps)
            ]
            rep = rule.min_reps
            active = streams
            while wave:
                self._run_wave(wave, report, payloads, samples)
                running = []
                for stream in active:
                    decision = rule.decide(samples[stream])
                    if decision.stop:
                        self._finalize_stream(stream, decision, rule, report)
                    else:
                        running.append(stream)
                active = running
                wave = [
                    _Cell(v, f, rep, self._seed_for(v, rep))
                    for (v, f) in active
                ]
                rep += 1
        finally:
            gc.unfreeze()
            if self._spool is not None:
                self._spool.cleanup()
                self._spool = None
        report.repetition.sort(key=lambda r: (r.version, r.fault or ""))

        # ``payloads`` holds cells in completion order; the merge keeps
        # first-seen order, so feed it the streams' (versions) order.
        order = {s: i for i, s in enumerate(streams)}
        out, report.replicates = merge_profiles(
            (c.version, c.fault, c.rep, payloads[c])
            for c in sorted(payloads, key=lambda c: order[c.stream])
        )

        report.notices.extend(self.store.drain_notices())
        self._finish_warm_report(report)
        if rule.name != "fixed":
            saved = report.reps_saved_fraction * 100.0
            report.notices.append(
                f"adaptive replication ({rule.name}): "
                f"{report.reps_spent} rep(s) across "
                f"{len(report.repetition)} stream(s) vs "
                f"{report.reps_ceiling} at fixed-{rule.max_reps} "
                f"({saved:.0f}% saved)"
            )
        errors = 0
        error_cells = 0
        for rec in report.cells:
            n = rec.telemetry["subscriber_errors"]
            if n:
                errors += n
                error_cells += 1
        if errors:
            report.notices.append(
                f"{errors} bus subscriber error(s) across {error_cells} "
                "cell(s) — observers saw a partial event stream "
                "(bus.subscriber_errors)"
            )
        report.wall_clock = time.perf_counter() - started
        if self.profile:
            self._write_ledger(report)
        return out, report

    def _write_ledger(self, report: CampaignReport) -> None:
        """Roll the run's perf records into ``BENCH_campaign.json``.

        The ledger is the only profiler record.  Only disk-backed
        campaigns persist it (it sits beside the store's namespaces,
        where ``perf-report`` and ``perf-compare`` find it); either way
        the report carries a one-line pointer so a profiled run is never
        silent about where its measurements went.  A run that executed
        no cell profiled nothing, so it leaves the ledger of the last
        profiled campaign in place.
        """
        from ..analysis.perf import LEDGER_NAME, campaign_ledger

        if not isinstance(self.store, DiskStore):
            report.notices.append(
                f"profiler: {len(report.perf)} cell record(s) "
                "profiled (in-memory store; use --cache-dir to persist "
                "a campaign ledger)"
            )
            return
        path = self.store.cache_dir / LEDGER_NAME
        if not report.perf:
            report.notices.append(
                f"profiler: no cell executed, so nothing was profiled; "
                f"the campaign ledger at {path} is left as it was"
            )
            return
        ledger = campaign_ledger(report, settings=self.settings)
        path.write_text(
            json.dumps(ledger, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        report.notices.append(
            f"profiler: {len(report.perf)} cell record(s) in the "
            f"campaign ledger at {path} — "
            "read with `python -m repro perf-report`"
        )


def run_campaign(
    settings: Phase1Settings,
    versions: Iterable[str],
    faults: Iterable[FaultKind] = CAMPAIGN_FAULTS,
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    use_cache: bool = True,
    trace_dir: Optional[str] = None,
    spans_dir: Optional[str] = None,
    span_sample: int = 1,
    warm_start: bool = True,
    profile: bool = False,
) -> Tuple[Dict[str, ProfileSet], CampaignReport]:
    """One-shot convenience wrapper around :class:`CampaignRunner`."""
    runner = CampaignRunner(
        settings,
        store=store,
        jobs=jobs,
        use_cache=use_cache,
        trace_dir=trace_dir,
        spans_dir=spans_dir,
        span_sample=span_sample,
        warm_start=warm_start,
        profile=profile,
    )
    return runner.run(versions, faults)
