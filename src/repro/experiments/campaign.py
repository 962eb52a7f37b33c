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

#: Process-wide defaults, set by entry points via :func:`configure`.
#: The keys are :func:`run_campaign`'s keyword arguments; whoever needs
#: to undo a ``configure`` (the CLI's ``main``, a test) copies this dict
#: and puts it back.
_defaults: dict = {
    "store": MemoryStore(),
    "jobs": 1,
    "trace_dir": None,
    "warm_start": True,
    "spans_dir": None,
    "span_sample": 1,
    "profile": False,
}


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
    overridden.  ``None`` leaves a default as it is; the runner
    normalizes the values (``jobs`` at least 1, directories as str)."""
    given = {
        "store": store,
        "jobs": jobs,
        "trace_dir": trace_dir,
        "warm_start": warm_start,
        "spans_dir": spans_dir,
        "span_sample": span_sample,
        "profile": profile,
    }
    _defaults.update((k, v) for k, v in given.items() if v is not None)


def _run(
    settings: Phase1Settings,
    versions: Iterable[str],
    faults: Iterable[FaultKind],
    jobs: Optional[int],
    store: Optional[ResultStore],
    use_cache: bool,
) -> Tuple[Dict[str, ProfileSet], CampaignReport]:
    """:func:`run_campaign` under the process-wide defaults."""
    options = dict(_defaults)
    if jobs is not None:
        options["jobs"] = jobs
    if store is not None:
        options["store"] = store
    return run_campaign(
        settings, versions=versions, faults=faults, use_cache=use_cache,
        **options,
    )


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
    sets, _report = _run(settings, [version], faults, jobs, store, use_cache)
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
    return _run(settings, names, faults, jobs, store, use_cache)


def clear_cache() -> None:
    """Drop every memoized cell in the process-wide default store."""
    _defaults["store"].clear()
