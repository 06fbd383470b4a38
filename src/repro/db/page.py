"""Page identities and types.

Pages are identified by an integer page number within the database file;
the :class:`~repro.db.pagefile.PageFile` maps them to byte offsets on the
device.  We track page *types* the way SQL Server's PFS does, because the
fragmentation analyzer distinguishes BLOB data pages from the LOB-tree
index pages interleaved with them.
"""

from __future__ import annotations

import enum

from repro.units import PAGE_SIZE, PAGES_PER_EXTENT

__all__ = ["PageType", "Run", "extend_runs", "PAGE_SIZE", "PAGES_PER_EXTENT"]

#: A run of physically consecutive pages: (first page number, page count).
Run = tuple[int, int]


def extend_runs(runs: list[Run], start: int, count: int) -> None:
    """Append pages to ``runs``, merging into a physically adjacent tail."""
    if runs and runs[-1][0] + runs[-1][1] == start:
        runs[-1] = (runs[-1][0], runs[-1][1] + count)
    else:
        runs.append((start, count))


class PageType(enum.Enum):
    """What a page currently holds."""

    FREE = "free"
    HEAP = "heap"            # metadata table rows
    INDEX = "index"          # heap/LOB B-tree interior pages
    LOB_DATA = "lob_data"    # out-of-row BLOB bytes
    GHOST = "ghost"          # deallocated, awaiting ghost cleanup
    SYSTEM = "system"        # allocation maps, boot page, ...
