"""The database data file: page-number addressing over a device region.

The paper gave SQL Server a dedicated data drive; we model the data file
as a preallocated region covering (most of) its device, so allocation
*within* the file — the GAM's business — is the only layout decision,
exactly as in the testbed.

Reads and writes take lists of page numbers; consecutive numbers are
batched into device spans so sequential page runs cost sequential I/O.
"""

from __future__ import annotations

from repro.disk.device import BlockDevice, Span
from repro.errors import ConfigError
from repro.units import PAGE_SIZE


def pages_to_spans(page_nos: list[int], *, base: int,
                   page_size: int = PAGE_SIZE) -> list[Span]:
    """Group page numbers into maximal physically contiguous
    ``(start, length)`` device spans.

    Order is preserved: the spans cover the pages in the order given,
    which is the logical byte order of the object being transferred.

    >>> pages_to_spans([0, 1, 2, 7], base=0)
    [(0, 24576), (57344, 8192)]
    """
    spans: list[Span] = []
    run_start: int | None = None
    run_len = 0
    prev = None
    for page_no in page_nos:
        if prev is not None and page_no == prev + 1:
            run_len += 1
        else:
            if run_start is not None:
                spans.append(
                    (base + run_start * page_size, run_len * page_size))
            run_start = page_no
            run_len = 1
        prev = page_no
    if run_start is not None:
        spans.append((base + run_start * page_size, run_len * page_size))
    return spans


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

    def _check(self, page_nos: list[int]) -> None:
        for page_no in page_nos:
            if not 0 <= page_no < self.num_pages:
                raise ConfigError(f"page {page_no} outside file")

    def spans_for(self, page_nos: list[int]) -> list[Span]:
        self._check(page_nos)
        return pages_to_spans(page_nos, base=self.base)

    def read_pages(self, page_nos: list[int]) -> bytes | None:
        """Timed read of the pages as one request (batched spans)."""
        if not page_nos:
            return b"" if self.device.stores_data else None
        return self.device.read_extents(self.spans_for(page_nos))

    def write_pages(self, page_nos: list[int],
                    data: bytes | None = None) -> None:
        """Timed write; ``data`` must be page-padded when provided."""
        if not page_nos:
            return
        self.device.write_extents(self.spans_for(page_nos), data)
