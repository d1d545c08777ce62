"""Terminal rendering for benchmark reports: tables, bar charts, ROC."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".figures": ("bar_chart", "grouped_bar_chart", "roc_ascii"),
    ".tables": ("render_table",),
})
