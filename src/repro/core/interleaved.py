"""Interleaved append streams — the paper's predicted amplifier.

Conclusions, Section 6: "Also not considered were interleaved append
requests to multiple objects, which are likely to increase
fragmentation."  This module measures that prediction: ``nstreams``
objects grow concurrently, one write request at a time round-robin, so
every allocation decision happens with other half-written objects
competing for the same runs.

One loop serves both substrates: the filesystem appends to open files;
the database grows open BLOBs with ``BlobStore.append``, which adds
pages down the LOB tree's rightmost spine.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TypeVar

from repro.alloc.extent import Extent, fragment_count
from repro.core.fragmentation import FragmentReport
from repro.db.database import SimDatabase
from repro.errors import ConfigError
from repro.fs.filesystem import SimFilesystem
from repro.units import DEFAULT_WRITE_REQUEST, PAGE_SIZE, ceil_div, round_up

Handle = TypeVar("Handle")


@dataclass
class InterleaveResult:
    """Fragmentation outcome of one interleaved load."""

    nstreams: int
    objects: int
    report: FragmentReport

    @property
    def fragments_per_object(self) -> float:
        return self.report.mean


def _round_robin(*, nstreams: int, total_objects: int, size: int,
                 write_request: int,
                 open_stream: Callable[[int], tuple[Handle, int]],
                 append: Callable[[Handle, int, bool], None],
                 extents: Callable[[Handle], list[Extent]]
                 ) -> InterleaveResult:
    """Grow ``total_objects`` objects of ``size`` bytes, ``nstreams`` at
    a time, one ``write_request`` per stream per turn.  ``open_stream(i)``
    starts object ``i`` and returns its handle and the requests it wrote
    itself; ``append(handle, nbytes, last)`` writes one more.  A finished
    stream's slot goes to the next object, opened at the back, so the
    stream now in that slot is not skipped.
    """
    if nstreams < 1 or total_objects < 1 or size < 1:
        raise ConfigError("nstreams, total_objects, object_size must be >= 1")
    requests = ceil_div(size, write_request)
    tail = size - (requests - 1) * write_request
    handles: list[Handle] = []
    active: list[tuple[Handle, int]] = []  # (handle, requests left)

    def open_next() -> None:
        handle, written = open_stream(len(handles))
        handles.append(handle)
        if written < requests:
            active.append((handle, requests - written))

    while len(handles) < min(nstreams, total_objects):
        open_next()
    while active or len(handles) < total_objects:
        if not active:
            open_next()
            continue
        slot = 0
        while slot < len(active):
            handle, remaining = active[slot]
            append(handle, write_request if remaining > 1 else tail,
                   remaining == 1)
            remaining -= 1
            if remaining == 0:
                del active[slot]
                if len(handles) < total_objects:
                    open_next()
                continue
            active[slot] = (handle, remaining)
            slot += 1
    counts = {str(handle): fragment_count(extents(handle))
              for handle in handles}
    return InterleaveResult(nstreams=nstreams, objects=len(handles),
                            report=FragmentReport(counts=counts))


def interleaved_fs_load(fs: SimFilesystem, *, nstreams: int,
                        object_size: int, total_objects: int,
                        write_request: int = DEFAULT_WRITE_REQUEST,
                        name_prefix: str = "ileave") -> InterleaveResult:
    """Write ``total_objects`` files, ``nstreams`` growing at a time.

    With ``nstreams=1`` this is the paper's serial bulk load (files come
    out contiguous on a clean volume); larger values interleave the
    append requests of concurrent uploads.
    """
    def open_file(index: int) -> tuple[str, int]:
        name = f"{name_prefix}-{index:05d}"
        fs.create(name)
        return name, 0

    def append(name: str, nbytes: int, last: bool) -> None:
        fs.append(name, nbytes=nbytes)
        if last:
            fs.fsync(name)

    return _round_robin(nstreams=nstreams, total_objects=total_objects,
                        size=object_size, write_request=write_request,
                        open_stream=open_file, append=append,
                        extents=fs.extent_map)


def interleaved_db_load(db: SimDatabase, *, nstreams: int,
                        object_size: int, total_objects: int,
                        write_request: int = DEFAULT_WRITE_REQUEST
                        ) -> InterleaveResult:
    """Database version: BLOBs grow by ``BlobStore.append`` calls."""
    padded = round_up(object_size, PAGE_SIZE)

    def open_blob(_index: int) -> tuple[int, int]:
        # Seed each blob with its first request's worth of pages.
        return db.put_blob(size=min(write_request, padded), commit=False), 1

    def append(blob_id: int, nbytes: int, _last: bool) -> None:
        db.blobs.append(blob_id, size=nbytes, write_request=write_request)

    result = _round_robin(nstreams=nstreams, total_objects=total_objects,
                          size=padded, write_request=write_request,
                          open_stream=open_blob, append=append,
                          extents=db.blobs.blob_extents)
    db.commit()
    return result
