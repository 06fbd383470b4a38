"""The filesystem's retired write path (test-side only).

``SimFilesystem.append`` serves a whole write as one loop of write
requests: each request allocates through ``FsAllocator.allocate_append``
and ``NtfsRunCache``, whose carves go through ``carve_front``, and its
span is found by walking back from the run list's tail.  The functions
here are that path as it was before: the caller's loop issuing one
``append`` per write request, each request validating and looking the
file up again, re-summing its run list and slicing the span from the
front with ``_slice_spans``, and every allocation carved through
``index.remove(Extent(...))`` after a selection that returns an
``Extent``.  ``test_fs_append_oracle.py`` holds the shipped path to
them on twin filesystems.

Everything else (metadata nibbles, the journal, the device, selection
through ``NtfsRunCache.choose``) is the shipped code, shared by both
twins.
"""

from __future__ import annotations

from repro.alloc.extent import Extent
from repro.alloc.runcache import NtfsRunCache
from repro.errors import AllocationError, ConfigError, FsError
from repro.fs.allocator import FsAllocator
from repro.fs.filesystem import SimFilesystem, _slice_spans
from repro.fs.filetable import FileRecord
from repro.units import round_up


# ----------------------------------------------------------------------
# Allocation: every carve is remove(Extent(...))
# ----------------------------------------------------------------------
def allocate(runcache: NtfsRunCache, size: int) -> list[Extent]:
    """``NtfsRunCache.allocate``: contiguous when a cached run fits,
    otherwise largest runs first."""
    if size <= 0:
        raise ConfigError("allocation size must be positive")
    index = runcache.index
    if index.total_free < size:
        raise AllocationError(
            f"volume full: need {size}, have {index.total_free}"
        )
    pieces: list[Extent] = []
    remaining = size
    while remaining > 0:
        run = runcache.choose(remaining)
        if run is not None:
            taken = Extent(run.start, remaining)
            index.remove(taken)
            pieces.append(taken)
            break
        largest = index.largest()
        if largest is None:
            for piece in pieces:
                index.add(piece)
            raise AllocationError("no free runs while space remains")
        index.remove(largest)
        pieces.append(largest)
        remaining -= largest.length
    return pieces


def try_extend(runcache: NtfsRunCache, at_offset: int, size: int, *,
               stickiness: float) -> Extent | None:
    """``NtfsRunCache.try_extend``: extend into the free run that starts
    at ``at_offset`` under the band and stickiness rules."""
    if not 0.0 <= stickiness <= 1.0:
        raise ConfigError("stickiness must be in [0, 1]")
    index = runcache.index
    run = index.run_at(at_offset)
    if run is None or run.start != at_offset:
        return None
    if run.start >= runcache.outer_band_limit and run.length < size:
        return None
    if run.start >= runcache.outer_band_limit and stickiness > 0.0:
        head_length = index.largest_runs(1)[0][0]
        if run.length < stickiness * head_length:
            return None
    taken = Extent(run.start, min(size, run.length))
    index.remove(taken)
    return taken


def allocate_append(allocator: FsAllocator, record: FileRecord,
                    nbytes: int) -> list[Extent]:
    """``FsAllocator.allocate_append`` over the functions above."""
    needed = round_up(nbytes, allocator.cluster_size)
    pieces: list[Extent] = []
    review = record.append_requests % allocator.reconsider_interval_requests == 0
    record.append_requests += 1
    stickiness = allocator.extension_stickiness if review else 0.0
    if record.extents:
        extension = try_extend(allocator.runcache, record.extents[-1].end,
                               needed, stickiness=stickiness)
        if extension is not None:
            pieces.append(extension)
            needed -= extension.length
    if needed > 0:
        pieces.extend(allocate(allocator.runcache, needed))
    return pieces


def allocate_full(allocator: FsAllocator, nbytes: int) -> list[Extent]:
    return allocate(allocator.runcache,
                    round_up(nbytes, allocator.cluster_size))


# ----------------------------------------------------------------------
# The filesystem: one append call per write request
# ----------------------------------------------------------------------
def append(fs: SimFilesystem, name: str, nbytes: int | None = None,
           data: bytes | None = None) -> None:
    """``SimFilesystem.append`` of one write request."""
    if (nbytes is None) == (data is None):
        raise ConfigError("pass exactly one of nbytes or data")
    length = len(data) if data is not None else int(nbytes)  # type: ignore[arg-type]
    if length <= 0:
        raise ConfigError("append length must be positive")
    record = fs.table.lookup(name)
    if fs.config.delayed_allocation:
        fs._write_buffers.setdefault(name, []).append(
            data if data is not None else length
        )
        return
    shortfall = record.size + length - record.allocated_bytes
    if shortfall > 0:
        for ext in fs._allocate_under_pressure(
                allocate_append, fs.allocator, record, shortfall):
            record.add_extent(ext)
    span = _slice_spans(record.extents, record.size, length)
    fs.device.write_extents(span, data)
    record.size += length


def write(fs: SimFilesystem, name: str, total: int, data: bytes | None,
          write_request: int) -> None:
    """The caller's loop: one :func:`append` per write request."""
    cursor = 0
    while cursor < total:
        chunk = min(write_request, total - cursor)
        if data is not None:
            append(fs, name, data=data[cursor: cursor + chunk])
        else:
            append(fs, name, nbytes=chunk)
        cursor += chunk


def flush(fs: SimFilesystem, name: str) -> None:
    """``SimFilesystem._flush_buffers``: one allocation and one request
    for everything delayed allocation buffered."""
    chunks = fs._write_buffers.pop(name, None)
    if not chunks:
        return
    record = fs.table.lookup(name)
    total = sum(len(c) if isinstance(c, bytes) else c for c in chunks)
    data: bytes | None = None
    if all(isinstance(c, bytes) for c in chunks):
        data = b"".join(chunks)  # type: ignore[arg-type]
    shortfall = record.size + total - record.allocated_bytes
    if shortfall > 0:
        for ext in fs._allocate_under_pressure(
                allocate_full, fs.allocator, shortfall):
            record.add_extent(ext)
    span = _slice_spans(record.extents, record.size, total)
    fs.device.write_extents(span, data)
    record.size += total


def preallocate(fs: SimFilesystem, name: str, expected_size: int) -> None:
    """``SimFilesystem.preallocate`` over :func:`allocate_full`."""
    if expected_size <= 0:
        raise ConfigError("expected_size must be positive")
    record = fs.table.lookup(name)
    if record.size or record.extents:
        raise FsError("preallocate requires an empty file")
    for ext in fs._allocate_under_pressure(
            allocate_full, fs.allocator, expected_size):
        record.add_extent(ext)


def safe_write(fs: SimFilesystem, name: str, *, size: int | None = None,
               data: bytes | None = None, write_request: int,
               size_hint: bool = False) -> None:
    """``SimFilesystem.safe_write``: temp file, appends, force, rename."""
    if (size is None) == (data is None):
        raise ConfigError("pass exactly one of size or data")
    total = len(data) if data is not None else int(size)  # type: ignore[arg-type]
    if total <= 0:
        raise ConfigError("safe_write size must be positive")
    fs._tmp_seq += 1
    tmp = f"{name}.tmp{fs._tmp_seq}"
    fs.create(tmp)
    if size_hint:
        preallocate(fs, tmp, total)
    write(fs, tmp, total, data, write_request)
    fs._crash("safe_write:after_data")
    flush(fs, tmp)
    fs.fsync(tmp)
    fs._crash("safe_write:after_fsync")
    fs.rename(tmp, name)


# ----------------------------------------------------------------------
# The filesystem backend
# ----------------------------------------------------------------------
def put(store, key: str, *, size: int | None = None,
        data: bytes | None = None) -> None:
    """``FileBackend.put`` with its own write-request loop."""
    total = len(data) if data is not None else int(size)  # type: ignore[arg-type]
    fs, stats = store.fs, store.device.stats
    fname = store._file_name(key)
    store.cost.charge_file_open(stats)
    fs.create(fname)
    if store.size_hints:
        preallocate(fs, fname, total)
    write(fs, fname, total, data, store.write_request)
    store.cost.charge_file_stream(stats, total)
    flush(fs, fname)
    fs.fsync(fname)
    store.cost.charge_file_close(stats)
    store.cost.charge_db_query(stats)
    store.meta_table.insert(key, {"path": fname, "size": total})
    store.meta_db.commit()
    store._versions[key] = 1


def overwrite(store, key: str, *, size: int | None = None,
              data: bytes | None = None) -> None:
    """``FileBackend.overwrite`` over :func:`safe_write`."""
    total = len(data) if data is not None else int(size)  # type: ignore[arg-type]
    fname = store._meta_lookup(key)["path"]
    stats = store.device.stats
    store.cost.charge_file_open(stats)
    safe_write(store.fs, fname, size=size, data=data,
               write_request=store.write_request,
               size_hint=store.size_hints)
    store.cost.charge_file_stream(stats, total)
    store.cost.charge_file_close(stats)
    store.cost.charge_db_query(stats)
    store.meta_table.update(key, {"size": total})
    store.meta_db.commit()
    store._versions[key] = store._versions.get(key, 0) + 1
