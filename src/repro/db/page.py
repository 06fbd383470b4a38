"""Page runs.

Pages are identified by an integer page number within the database file;
the :class:`~repro.db.pagefile.PageFile` maps them to byte offsets on the
device.  Allocation, LOB-tree leaves, the ghost backlog and page-file
I/O all move pages as runs of physically consecutive pages
(:data:`Run`), built with :func:`extend_runs`.
"""

from __future__ import annotations

from repro.units import PAGE_SIZE, PAGES_PER_EXTENT

__all__ = ["Run", "extend_runs", "PAGE_SIZE", "PAGES_PER_EXTENT"]

#: A run of physically consecutive pages: (first page number, page count).
Run = tuple[int, int]


def extend_runs(runs: list[Run], start: int, count: int) -> None:
    """Append pages to ``runs``, merging into a physically adjacent tail."""
    if runs and runs[-1][0] + runs[-1][1] == start:
        runs[-1] = (runs[-1][0], runs[-1][1] + count)
    else:
        runs.append((start, count))
