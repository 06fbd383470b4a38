"""File records and the file table (the simulator's MFT).

Each file is a :class:`FileRecord`: a name, a logical size, and the
ordered list of extents holding its data (NTFS calls this the run list).
:class:`FileTable` is the name → record index, with the atomic
``replace`` primitive that backs safe writes (``ReplaceFile()`` under
Windows, ``rename()`` under UNIX — Section 4 of the paper).

Record persistence is modelled, not stored: each record has a fixed slot
in the MFT region of the volume, and the filesystem charges a small write
there on every create/delete/rename.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.alloc.extent import Extent, total_length
from repro.errors import (
    CorruptionError,
    FileExistsFsError,
    FileNotFoundFsError,
)


@dataclass
class FileRecord:
    """One file: identity, logical size, and physical run list."""

    file_id: int
    name: str
    size: int = 0
    extents: list[Extent] = field(default_factory=list)
    #: Monotonic creation stamp; lets analyses group files by generation.
    created_at_op: int = 0
    #: Append requests served so far (drives periodic placement review).
    append_requests: int = 0

    def add_extent(self, ext: Extent) -> None:
        """Append a run, merging with the previous run when contiguous."""
        if self.extents and self.extents[-1].end == ext.start:
            last = self.extents[-1]
            self.extents[-1] = Extent(last.start, last.length + ext.length)
        else:
            self.extents.append(ext)

    @property
    def allocated_bytes(self) -> int:
        return total_length(self.extents)

    def check_invariants(self) -> None:
        """Runs are in logical order, disjoint, and cover ``size`` bytes."""
        for a, b in itertools.combinations(self.extents, 2):
            if a.overlaps(b):
                raise CorruptionError(f"file {self.name}: {a} overlaps {b}")
        if self.allocated_bytes < self.size:
            raise CorruptionError(
                f"file {self.name}: size {self.size} exceeds allocation "
                f"{self.allocated_bytes}"
            )


class FileTable:
    """Name-indexed table of live file records with MFT slot assignment."""

    def __init__(self) -> None:
        self._by_name: dict[str, FileRecord] = {}
        self._by_id: dict[int, FileRecord] = {}
        self._next_id = itertools.count(1)
        self._op_counter = 0

    def tick(self) -> int:
        """Advance and return the operation stamp."""
        self._op_counter += 1
        return self._op_counter

    def create(self, name: str) -> FileRecord:
        if name in self._by_name:
            raise FileExistsFsError(f"file exists: {name!r}")
        record = FileRecord(
            file_id=next(self._next_id),
            name=name,
            created_at_op=self._op_counter,
        )
        self._by_name[name] = record
        self._by_id[record.file_id] = record
        return record

    def lookup(self, name: str) -> FileRecord:
        try:
            return self._by_name[name]
        except KeyError:
            raise FileNotFoundFsError(f"no such file: {name!r}") from None

    def exists(self, name: str) -> bool:
        return name in self._by_name

    def remove(self, name: str) -> FileRecord:
        record = self.lookup(name)
        del self._by_name[name]
        del self._by_id[record.file_id]
        return record

    def replace(self, src: str, dst: str) -> FileRecord | None:
        """Atomically rename ``src`` over ``dst``.

        Returns the displaced record (whose space the caller must free),
        or None when ``dst`` did not exist.  This is the safe-write
        commit point: after it, readers of ``dst`` see the new data.
        """
        record = self.lookup(src)
        displaced: FileRecord | None = None
        if dst in self._by_name:
            displaced = self.remove(dst)
        del self._by_name[src]
        record.name = dst
        self._by_name[dst] = record
        return displaced

    def __len__(self) -> int:
        return len(self._by_name)

    def __iter__(self):
        return iter(self._by_name.values())

    def mft_slot_offset(self, record: FileRecord, *, mft_base: int,
                        record_size: int, mft_size: int) -> int:
        """Byte offset of the record's MFT slot (slots recycle modulo the
        MFT region so the table never outgrows it)."""
        nslots = max(1, mft_size // record_size)
        return mft_base + (record.file_id % nslots) * record_size
