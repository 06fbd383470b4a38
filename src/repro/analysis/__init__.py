"""Reporting and shape-checking utilities.

:mod:`repro.analysis.tables` renders the fixed-width tables the benches
print (one per paper figure); :mod:`repro.analysis.compare` encodes the
paper's qualitative claims as checkable predicates so benches and tests
assert the *shape* of every reproduced curve.
"""

from repro.analysis.tables import render_table, render_series_table
from repro.analysis.compare import (
    ShapeCheck,
    check_monotonic_increase,
    check_levels_off,
    check_keeps_growing,
    crossover_age,
)

__all__ = [
    "render_table",
    "render_series_table",
    "ShapeCheck",
    "check_monotonic_increase",
    "check_levels_off",
    "check_keeps_growing",
    "crossover_age",
]
