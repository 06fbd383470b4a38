"""The interleaved-stream loaders as two loops (test-side only).

``repro.core.interleaved`` runs the filesystem and the database loader
through one round-robin loop, ``_round_robin``.  The two functions
here are the loops it replaced, kept verbatim: each owned its own slot
bookkeeping and refill order.  ``test_interleave_oracle.py`` runs both
versions on twin volumes and holds the shipped loaders to them with
``==`` on fragment counts, extent maps, device clocks and ``IoStats``.
"""

from __future__ import annotations

from repro.alloc.extent import fragment_count
from repro.core.fragmentation import FragmentReport
from repro.core.interleaved import InterleaveResult
from repro.db.database import SimDatabase
from repro.errors import ConfigError
from repro.fs.filesystem import SimFilesystem
from repro.units import DEFAULT_WRITE_REQUEST, ceil_div


def interleaved_fs_load(fs: SimFilesystem, *, nstreams: int,
                        object_size: int, total_objects: int,
                        write_request: int = DEFAULT_WRITE_REQUEST,
                        name_prefix: str = "ileave") -> InterleaveResult:
    """Write ``total_objects`` files, ``nstreams`` growing at a time.

    With ``nstreams=1`` this is the paper's serial bulk load (files come
    out contiguous on a clean volume); larger values interleave the
    append requests of concurrent uploads.
    """
    if nstreams < 1 or total_objects < 1:
        raise ConfigError("nstreams and total_objects must be >= 1")
    requests_per_object = ceil_div(object_size, write_request)
    names: list[str] = []
    active: list[tuple[str, int]] = []  # (name, requests remaining)
    next_idx = 0

    def open_next() -> None:
        nonlocal next_idx
        name = f"{name_prefix}-{next_idx:05d}"
        next_idx += 1
        fs.create(name)
        names.append(name)
        active.append((name, requests_per_object))

    while next_idx < min(nstreams, total_objects):
        open_next()
    remaining_total = object_size % write_request or write_request
    while active:
        slot = 0
        while slot < len(active):
            name, remaining = active[slot]
            chunk = write_request if remaining > 1 else remaining_total
            fs.append(name, nbytes=chunk)
            remaining -= 1
            if remaining == 0:
                fs.fsync(name)
                del active[slot]
                if next_idx < total_objects:
                    open_next()
                    # The fresh stream starts at the back; do not skip
                    # the stream now occupying this slot.
                continue
            active[slot] = (name, remaining)
            slot += 1
    counts = {
        name: fragment_count(fs.extent_map(name)) for name in names
    }
    return InterleaveResult(
        nstreams=nstreams,
        objects=len(names),
        report=FragmentReport(counts=counts),
    )


def interleaved_db_load(db: SimDatabase, *, nstreams: int,
                        object_size: int, total_objects: int,
                        write_request: int = DEFAULT_WRITE_REQUEST
                        ) -> InterleaveResult:
    """Database version: BLOBs grow by ``BlobStore.append`` calls."""
    if nstreams < 1 or total_objects < 1:
        raise ConfigError("nstreams and total_objects must be >= 1")
    from repro.units import PAGE_SIZE, round_up

    padded = round_up(object_size, PAGE_SIZE)
    requests_per_object = ceil_div(padded, write_request)
    blob_ids: list[int] = []
    active: list[tuple[int, int]] = []
    created = 0

    def open_next() -> None:
        nonlocal created
        # Seed each blob with its first request's worth of pages.
        first = min(write_request, padded)
        blob_id = db.put_blob(size=first, commit=False)
        created += 1
        blob_ids.append(blob_id)
        if requests_per_object > 1:
            active.append((blob_id, requests_per_object - 1))

    while created < min(nstreams, total_objects):
        open_next()
    while active or created < total_objects:
        if not active:
            open_next()
            continue
        slot = 0
        while slot < len(active):
            blob_id, remaining = active[slot]
            current = db.blobs.size_of(blob_id)
            chunk = min(write_request, padded - current)
            db.blobs.append(blob_id, size=chunk,
                            write_request=write_request)
            remaining -= 1
            if remaining == 0:
                del active[slot]
                if created < total_objects:
                    open_next()
                continue
            active[slot] = (blob_id, remaining)
            slot += 1
    db.commit()
    counts = {
        str(blob_id): fragment_count(db.blobs.blob_extents(blob_id))
        for blob_id in blob_ids
    }
    return InterleaveResult(
        nstreams=nstreams,
        objects=len(blob_ids),
        report=FragmentReport(counts=counts),
    )
