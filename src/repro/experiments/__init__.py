"""Experiment harness: one entry point per table/figure of the paper."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "settings": (
            "Phase1Settings",
            "DEFAULT_SETTINGS",
            "DEFAULT_TARGET",
            "CAMPAIGN_FAULTS",
            "FAULT_MTTR",
        ),
        "phase1": ("run_baseline", "run_single_fault", "run_by_name"),
        "campaign": (
            "full_campaign",
            "full_campaign_with_report",
            "measure_profile_set",
            "clear_cache",
            "configure",
        ),
        "runner": (
            "run_campaign",
            "CampaignRunner",
            "CampaignReport",
            "CellRecord",
            "cell_seed",
        ),
        "store": ("CellKey", "ResultStore", "MemoryStore", "DiskStore", "open_store"),
        "table1": ("run_table1", "measure_peak", "format_table1", "Table1Row"),
        "timelines": (
            "run_timeline_figure",
            "run_figure2",
            "run_figure3",
            "run_figure4",
            "run_figure5",
            "TimelineFigure",
            "format_timeline_figure",
        ),
        "performability": (
            "run_figure6",
            "run_figure7",
            "run_figure8",
            "run_figure9",
            "run_figure10",
            "run_crossover",
            "format_figure6",
            "format_sensitivity",
            "Figure6Row",
            "SensitivityFigure",
            "TCP_VERSIONS",
            "VIA_VERSIONS",
            "SENSITIVITY_BASE_APP_MTTF",
            "CROSSOVER_KINDS",
        ),
        "validation": (
            "run_sequential_validation",
            "run_monte_carlo",
            "ValidationResult",
        ),
    },
)
