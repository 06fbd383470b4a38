"""Shape predicates: the paper's qualitative claims as checkable code.

The reproduction contract (docs/benchmarks.md, "Contract, scaling and
calibration"): absolute numbers
need not match the 2005 testbed, but *who wins, by roughly what factor,
and where the curves bend* must.  Each predicate returns a
:class:`ShapeCheck` carrying a pass flag, the measured number with the
bound it was held to, and a human explanation built from those two;
``benchmarks/paperfig.py`` prints them, records them in
``BENCH_paper.json`` and exits non-zero when one fails.
"""

from __future__ import annotations

from dataclasses import dataclass

Series = list[tuple[float, float]]


@dataclass
class ShapeCheck:
    """Outcome of one qualitative assertion."""

    name: str
    passed: bool
    detail: str
    #: The measured number the verdict was taken from (None when the
    #: series was too short to measure) and what it was held to: one
    #: limit, or ``(lo, hi)`` for a range.
    value: float | None = None
    bound: float | tuple[float, float] | None = None
    #: What the paper itself quotes for this quantity, where it does.
    paper: str | None = None

    def __str__(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        quoted = f" [paper: {self.paper}]" if self.paper else ""
        return f"[{flag}] {self.name}: {self.detail}{quoted}"


def _values(series: Series) -> list[float]:
    return [y for _, y in series]


def check_monotonic_increase(name: str, series: Series, *,
                             slack: float = 0.15,
                             paper: str | None = None) -> ShapeCheck:
    """Values never drop by more than ``slack`` (relative) step to step."""
    values = _values(series)
    worst = min((b / a if a > 0 else float("inf")
                 for a, b in zip(values, values[1:])), default=1.0)
    return ShapeCheck(
        name=name,
        passed=worst >= 1 - slack,
        detail=f"series {['%.2f' % v for v in values]}: worst step "
               f"x{worst:.2f} (needs >= x{1 - slack:.2f})",
        value=worst, bound=1 - slack, paper=paper,
    )


def _late_growth(series: Series, late_fraction: float) -> float | None:
    """Share of the series' total rise that happens in its late portion
    (0 for a series that never rises; None under three points)."""
    values = _values(series)
    if len(values) < 3:
        return None
    split = max(1, int(len(values) * (1 - late_fraction)))
    total_rise = max(values) - values[0]
    return (values[-1] - values[split]) / total_rise if total_rise > 0 else 0.0


def check_levels_off(name: str, series: Series, *,
                     late_fraction: float = 0.5,
                     max_late_growth: float = 0.35,
                     paper: str | None = None) -> ShapeCheck:
    """The curve approaches an asymptote: growth over the late portion
    of the series is a small fraction of the total rise (NTFS in
    Figure 2 "begins to level off over time").  A flat series levels
    off trivially."""
    fraction = _late_growth(series, late_fraction)
    if fraction is None:
        return ShapeCheck(name, False, "too few points",
                          bound=max_late_growth, paper=paper)
    return ShapeCheck(
        name=name,
        passed=fraction <= max_late_growth,
        detail=f"late-portion rise is {fraction:.0%} of total "
               f"(limit {max_late_growth:.0%})",
        value=fraction, bound=max_late_growth, paper=paper,
    )


def check_keeps_growing(name: str, series: Series, *,
                        late_fraction: float = 0.5,
                        min_late_growth: float = 0.25,
                        paper: str | None = None) -> ShapeCheck:
    """The curve does *not* approach an asymptote: a healthy share of
    the total rise happens late (SQL Server in Figure 2 "increases
    almost linearly ... and does not seem to be approaching any
    asymptote").  A series that never grows fails."""
    fraction = _late_growth(series, late_fraction)
    if fraction is None:
        return ShapeCheck(name, False, "too few points",
                          bound=min_late_growth, paper=paper)
    return ShapeCheck(
        name=name,
        passed=fraction >= min_late_growth,
        detail=f"late-portion rise is {fraction:.0%} of total "
               f"(needs >= {min_late_growth:.0%})",
        value=fraction, bound=min_late_growth, paper=paper,
    )


def crossover_age(series_a: Series, series_b: Series) -> float | None:
    """First x where series_a falls to or below series_b (None = never).

    Used for the break-even analysis: the age at which the database's
    read throughput drops under the filesystem's.
    """
    points_b = dict(series_b)
    for x, ya in series_a:
        yb = points_b.get(x)
        if yb is None:
            continue
        if ya <= yb:
            return x
    return None


def ratio(series: Series, x: float) -> float:
    """Value at x divided by value at the first point (degradation)."""
    lookup = dict(series)
    first = series[0][1]
    if first == 0:
        return 0.0
    return lookup[x] / first


def check_between(name: str, value: float, lo: float, hi: float, *,
                  paper: str | None = None) -> ShapeCheck:
    """Value falls in [lo, hi] — for the paper's quoted levels, e.g.
    "converge to four fragments per file"."""
    return ShapeCheck(
        name=name,
        passed=lo <= value <= hi,
        detail=f"value {value:.2f} vs expected [{lo:g}, {hi:g}]",
        value=value, bound=(lo, hi), paper=paper,
    )


def check_faster(name: str, fast: float, slow: float, *,
                 min_ratio: float = 1.0,
                 paper: str | None = None) -> ShapeCheck:
    """``fast`` beats ``slow`` by at least ``min_ratio``."""
    actual = fast / slow if slow > 0 else float("inf")
    return ShapeCheck(
        name=name,
        passed=actual >= min_ratio,
        detail=f"ratio {actual:.2f} (needs >= {min_ratio:.2f})",
        value=actual, bound=min_ratio, paper=paper,
    )
