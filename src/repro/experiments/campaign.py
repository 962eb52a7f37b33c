"""The full phase-1 campaign: every (version, fault) pair → ProfileSet.

Execution is delegated to :mod:`repro.experiments.runner`, which shards
the (version x fault x replication) grid into independent cells and runs
them serially or on a process pool.  Cell results are memoized in a
:class:`~repro.experiments.store.ResultStore` — by default a
process-local :class:`MemoryStore` (Figures 6-10 all consume the same
phase-1 measurements, exactly how the paper reuses its data), optionally
a :class:`DiskStore` that survives interpreter restarts.

``configure(store=..., jobs=..., trace_dir=...)`` changes the
process-wide defaults so entry points (the CLI's ``--jobs`` /
``--cache-dir`` / ``--trace-dir`` flags, the benchmark fixtures) can
redirect every internal campaign without threading arguments through
each figure function.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from ..core.model import ProfileSet
from ..faults.spec import FaultKind
from ..press.config import ALL_VERSIONS
from .runner import CampaignReport, run_campaign
from .settings import CAMPAIGN_FAULTS, DEFAULT_SETTINGS, Phase1Settings
from .store import MemoryStore, ResultStore

#: Process-wide defaults, set once by entry points via :func:`configure`.
_default_store: ResultStore = MemoryStore()
_default_jobs: int = 1
_default_trace_dir: Optional[str] = None
_default_warm_start: bool = True
_default_spans_dir: Optional[str] = None
_default_span_sample: int = 1
_default_profile: bool = False


def configure(
    store: Optional[ResultStore] = None,
    jobs: Optional[int] = None,
    trace_dir: Optional[str] = None,
    warm_start: Optional[bool] = None,
    spans_dir: Optional[str] = None,
    span_sample: Optional[int] = None,
    profile: Optional[bool] = None,
) -> None:
    """Set the store/parallelism/tracing every campaign uses unless
    overridden."""
    global _default_store, _default_jobs, _default_trace_dir
    global _default_warm_start
    global _default_spans_dir, _default_span_sample, _default_profile
    if store is not None:
        _default_store = store
    if jobs is not None:
        _default_jobs = max(1, int(jobs))
    if trace_dir is not None:
        _default_trace_dir = str(trace_dir)
    if warm_start is not None:
        _default_warm_start = bool(warm_start)
    if spans_dir is not None:
        _default_spans_dir = str(spans_dir)
    if span_sample is not None:
        _default_span_sample = max(1, int(span_sample))
    if profile is not None:
        _default_profile = bool(profile)


def default_store() -> ResultStore:
    return _default_store


def measure_profile_set(
    version: str,
    settings: Phase1Settings = DEFAULT_SETTINGS,
    faults: Iterable[FaultKind] = CAMPAIGN_FAULTS,
    use_cache: bool = True,
    store: Optional[ResultStore] = None,
    jobs: Optional[int] = None,
) -> ProfileSet:
    """Run phase 1 for ``version`` across ``faults`` and fit profiles.

    The experiment is repeated ``settings.replications`` times under
    distinct derived seeds and the fitted profiles averaged per fault.
    """
    sets, _report = run_campaign(
        settings,
        versions=[version],
        faults=faults,
        jobs=jobs if jobs is not None else _default_jobs,
        store=store if store is not None else _default_store,
        use_cache=use_cache,
        trace_dir=_default_trace_dir,
        warm_start=_default_warm_start,
        spans_dir=_default_spans_dir,
        span_sample=_default_span_sample,
        profile=_default_profile,
    )
    return sets[version]


def full_campaign(
    settings: Phase1Settings = DEFAULT_SETTINGS,
    versions: Optional[Iterable[str]] = None,
    faults: Iterable[FaultKind] = CAMPAIGN_FAULTS,
    jobs: Optional[int] = None,
    store: Optional[ResultStore] = None,
    use_cache: bool = True,
) -> Dict[str, ProfileSet]:
    """Profile sets for every requested version (default: all five)."""
    sets, _report = full_campaign_with_report(
        settings, versions, faults, jobs=jobs, store=store, use_cache=use_cache
    )
    return sets


def full_campaign_with_report(
    settings: Phase1Settings = DEFAULT_SETTINGS,
    versions: Optional[Iterable[str]] = None,
    faults: Iterable[FaultKind] = CAMPAIGN_FAULTS,
    jobs: Optional[int] = None,
    store: Optional[ResultStore] = None,
    use_cache: bool = True,
) -> Tuple[Dict[str, ProfileSet], CampaignReport]:
    """Like :func:`full_campaign`, but also return the timing report."""
    names = list(versions) if versions is not None else list(ALL_VERSIONS)
    return run_campaign(
        settings,
        versions=names,
        faults=faults,
        jobs=jobs if jobs is not None else _default_jobs,
        store=store if store is not None else _default_store,
        use_cache=use_cache,
        trace_dir=_default_trace_dir,
        warm_start=_default_warm_start,
        spans_dir=_default_spans_dir,
        span_sample=_default_span_sample,
        profile=_default_profile,
    )


def clear_cache() -> None:
    """Drop every memoized cell in the process-wide default store."""
    _default_store.clear()
