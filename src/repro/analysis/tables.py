"""Fixed-width table rendering for bench output.

The paper reports results as bar/line charts; a terminal bench prints
the same data as rows.  These helpers keep every bench's output uniform:
a title, a header row, aligned numeric columns, and an optional footer
with the paper's expectation for side-by-side comparison.
"""

from __future__ import annotations

from collections.abc import Sequence


def render_table(title: str, headers: Sequence[str],
                 rows: Sequence[Sequence[object]], *,
                 footer: str | None = None) -> str:
    """Render a titled fixed-width table.

    >>> print(render_table("t", ["a", "b"], [[1, 2.5]]))  # doctest: +SKIP
    """
    str_rows = [
        [f"{cell:.2f}" if isinstance(cell, float) else str(cell)
         for cell in row]
        for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for idx, cell in enumerate(row):
            widths[idx] = max(widths[idx], len(cell))
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(
            "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        )
    if footer:
        lines.append("")
        lines.append(footer)
    return "\n".join(lines)


def render_series_table(title: str, x_label: str,
                        series: dict[str, list[tuple[float, float]]], *,
                        footer: str | None = None,
                        y_format: str = "{:.2f}") -> str:
    """Render multiple (x, y) series as columns sharing the x axis.

    ``series`` maps column label → [(x, y), ...]; x values are unioned
    and missing points render blank — matching how the paper's figures
    overlay the database and filesystem curves.
    """
    xs = sorted({x for pts in series.values() for x, _ in pts})
    headers = [x_label] + list(series)
    rows: list[list[object]] = []
    for x in xs:
        row: list[object] = [f"{x:g}"]
        for label in series:
            lookup = {px: py for px, py in series[label]}
            row.append(y_format.format(lookup[x]) if x in lookup else "")
        rows.append(row)
    return render_table(title, headers, rows, footer=footer)
