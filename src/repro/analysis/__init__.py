"""Reporting utilities over campaign/model outputs."""

from .charts import bar_chart, sparkline, timeline_plot
from .report import (
    campaign_report,
    campaign_timing_report,
    category_breakdown,
    profile_table,
    result_summary,
    timeline_report,
)

__all__ = [
    "sparkline",
    "bar_chart",
    "timeline_plot",
    "profile_table",
    "result_summary",
    "campaign_report",
    "campaign_timing_report",
    "category_breakdown",
    "timeline_report",
]
