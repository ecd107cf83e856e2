"""Analysis: statistics, table rendering, ASCII plots."""

from .plots import render_bars, render_core_trace, render_distribution
from .stats import (SPEEDUP_BANDS, band_counts, classify_speedup, mean,
                    relative_stddev, speedup_of_means, stddev)
from .tables import pct, render_band_table, render_speedup_table, render_table

__all__ = [
    "render_bars", "render_core_trace", "render_distribution",
    "SPEEDUP_BANDS", "band_counts", "classify_speedup", "mean",
    "relative_stddev", "speedup_of_means", "stddev",
    "pct", "render_band_table", "render_speedup_table", "render_table",
]
