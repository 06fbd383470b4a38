"""Reference model for the device's sparse content store (test-side only).

``repro.disk.device._SegmentStore`` orders segment starts in a
:class:`~repro.struct.blockedlist.BlockedList`.  The class here is the
seed's flat-list version of the same rules — ``bisect`` into one sorted
list, an O(n) memmove per mutation — that ``test_disk_batch.py`` drives
with the same write/trim/read sequences and holds the real store to,
byte for byte.
"""

from __future__ import annotations

import bisect


class FlatSegmentStore:
    """Two parallel sorted lists: segment starts and their payloads."""

    def __init__(self) -> None:
        self._starts: list[int] = []
        self._data: list[bytes] = []

    def __len__(self) -> int:
        return len(self._starts)

    def write(self, offset: int, data: bytes) -> None:
        if not data:
            return
        self.trim(offset, len(data))
        insert_at = bisect.bisect_left(self._starts, offset)
        self._starts.insert(insert_at, offset)
        self._data.insert(insert_at, bytes(data))

    def trim(self, offset: int, length: int) -> None:
        if length <= 0:
            return
        end = offset + length
        # Carve the left neighbour if it overlaps [offset, end).
        idx = bisect.bisect_right(self._starts, offset) - 1
        if idx >= 0:
            seg_start = self._starts[idx]
            seg = self._data[idx]
            if seg_start + len(seg) > offset:
                keep = seg[: offset - seg_start]
                if keep:
                    self._data[idx] = keep
                    idx += 1
                else:
                    del self._starts[idx]
                    del self._data[idx]
                if seg_start + len(seg) > end:
                    # Straddles the whole range: keep the suffix too.
                    suffix = seg[end - seg_start:]
                    self._starts.insert(idx, end)
                    self._data.insert(idx, suffix)
                    return
            else:
                idx += 1
        else:
            idx = 0
        # Remove fully/partially covered segments to the right.
        while idx < len(self._starts) and self._starts[idx] < end:
            seg_start = self._starts[idx]
            seg = self._data[idx]
            if seg_start + len(seg) <= end:
                del self._starts[idx]
                del self._data[idx]
            else:
                self._data[idx] = seg[end - seg_start:]
                self._starts[idx] = end
                break

    def read(self, offset: int, length: int) -> bytes:
        out = bytearray(length)
        end = offset + length
        idx = bisect.bisect_right(self._starts, offset) - 1
        if idx < 0:
            idx = 0
        while idx < len(self._starts) and self._starts[idx] < end:
            seg_start = self._starts[idx]
            seg = self._data[idx]
            seg_end = seg_start + len(seg)
            lo = max(seg_start, offset)
            hi = min(seg_end, end)
            if hi > lo:
                out[lo - offset: hi - offset] = seg[lo - seg_start: hi - seg_start]
            idx += 1
        return bytes(out)
