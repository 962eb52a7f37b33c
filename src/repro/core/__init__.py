"""The paper's methodology: 7-stage model, fault loads, performability."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "stages": ("Stage", "STAGES", "StagePoint", "SevenStageProfile"),
        "faultload": (
            "FaultLoad",
            "ComponentFault",
            "APPLICATION_FAULT_SPLIT",
            "APPLICATION_FAULTS",
            "NON_APPLICATION_FAULTS",
            "packet_drop_component",
            "software_bug_component",
            "system_bug_component",
            "MINUTE",
            "HOUR",
            "DAY",
            "WEEK",
            "MONTH",
            "YEAR",
        ),
        "model": (
            "ProfileSet",
            "evaluate",
            "PerformabilityResult",
            "FaultContribution",
            "MissingProfile",
        ),
        "metric": ("performability", "performability_of", "IDEAL_AVAILABILITY"),
        "extract": (
            "Environment",
            "DEFAULT_ENVIRONMENT",
            "ExperimentRecord",
            "extract_profile",
        ),
        "sensitivity": ("crossover_multiplier", "sweep_app_fault_rate"),
    },
)
