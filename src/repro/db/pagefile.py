"""The database data file: page-number addressing over a device region.

The paper gave SQL Server a dedicated data drive; we model the data file
as a preallocated region covering (most of) its device, so allocation
*within* the file — the GAM's business — is the only layout decision,
exactly as in the testbed.

Page runs map to device spans in one place, :meth:`PageFile.spans_of`:
BLOB chunk requests and reads, and the buffer pool's page reads and
writes, whose page lists are first grouped into runs so consecutive
pages cost one sequential span.
"""

from __future__ import annotations

from repro.db.page import Run, extend_runs
from repro.disk.device import BlockDevice, Span
from repro.errors import ConfigError
from repro.units import PAGE_SIZE


class PageFile:
    """Fixed-size page store at ``base`` on ``device``."""

    def __init__(self, device: BlockDevice, *, base: int,
                 num_pages: int) -> None:
        if num_pages <= 0:
            raise ConfigError("num_pages must be positive")
        end = base + num_pages * PAGE_SIZE
        if end > device.geometry.capacity:
            raise ConfigError(
                f"page file end {end} exceeds device capacity "
                f"{device.geometry.capacity}"
            )
        self.device = device
        self.base = base
        self.num_pages = num_pages

    def spans_of(self, runs: list[Run]) -> list[Span]:
        """Device ``(start, length)`` spans of page runs, order kept:
        the logical byte order of the object being transferred."""
        base = self.base
        return [(base + start * PAGE_SIZE, count * PAGE_SIZE)
                for start, count in runs]

    def _runs(self, page_nos: list[int]) -> list[Run]:
        """The pages as maximal runs of consecutive numbers, order kept."""
        runs: list[Run] = []
        for page_no in page_nos:
            if not 0 <= page_no < self.num_pages:
                raise ConfigError(f"page {page_no} outside file")
            extend_runs(runs, page_no, 1)
        return runs

    def read_pages(self, page_nos: list[int]) -> bytes | None:
        """Timed read of the pages as one request (batched spans)."""
        if not page_nos:
            return b"" if self.device.stores_data else None
        return self.device.read_extents(self.spans_of(self._runs(page_nos)))

    def write_pages(self, page_nos: list[int],
                    data: bytes | None = None) -> None:
        """Timed write; ``data`` must be page-padded when provided."""
        if not page_nos:
            return
        self.device.write_extents(self.spans_of(self._runs(page_nos)), data)
