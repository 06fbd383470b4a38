"""Byte-stable binary snapshots of the free index and journal state.

Formats are little-endian ``struct`` layouts, each framed the same way::

    magic (4) | version (u16) | ... header ... | payload | crc32 (u32)

The CRC covers every byte before it, so truncation, bit rot, and torn
writes all surface as :class:`~repro.errors.SnapshotError` instead of a
silently wrong free map.  Encodings are **byte-stable**: the same
logical state always serializes to the same bytes (runs are written in
address order, the one canonical order both engines iterate in), so
``encode(decode(blob)) == blob`` and checkpoints diff cleanly.

Free-index snapshots (magic ``RFXS``) record the engine kind so a
restore defaults to the engine that wrote it, but ``kind=`` can
override — the engines are placement-identical, so a snapshot taken
under ``naive`` restores into ``tiered`` (and vice versa) for
migrations and ablation replays.  Decoding validates the run list
(ascending, coalesced, inside capacity) and runs the engine's own
``check_invariants`` before handing the index back.

Journal snapshots (magic ``RJLS``) carry the journal's *recoverable*
state (:class:`~repro.fs.journal.JournalState`) plus the log geometry
it was taken under; :func:`restore_journal` refuses a blob whose
geometry disagrees with the mounting journal's, because a cursor is
only meaningful inside the region it wrapped in.
"""

from __future__ import annotations

import struct
import zlib

from repro.alloc.extent import Extent
from repro.alloc.freelist import FreeExtentIndex, make_free_index
from repro.alloc.naive import NaiveFreeExtentIndex
from repro.errors import SnapshotError
from repro.fs.journal import Journal, JournalState

#: Bumped on any incompatible layout change; decoders reject newer blobs.
SNAPSHOT_VERSION = 1

_FREE_MAGIC = b"RFXS"
_JOURNAL_MAGIC = b"RJLS"

#: kind code <-> engine name (codes are part of the on-disk format).
_KIND_CODES = {"tiered": 0, "naive": 1}
_KIND_NAMES = {code: name for name, code in _KIND_CODES.items()}

_FREE_HEADER = struct.Struct("<4sHBBQQ")   # magic, version, kind, pad, capacity, nruns
_RUN = struct.Struct("<QQ")                # start, length
_CRC = struct.Struct("<I")
_JOURNAL_HEADER = struct.Struct("<4sHxxQQQQIQQII")
# magic, version, log_base, log_size, record_bytes, cursor,
# ops_since_commit, commits, logged_ops, npending, nreplayable


def _crc_frame(buf: bytearray) -> bytes:
    buf += _CRC.pack(zlib.crc32(buf))
    return bytes(buf)


def _open_frame(blob: bytes, magic: bytes, header: struct.Struct,
                what: str) -> tuple:
    """Validate framing and return the unpacked header fields."""
    if len(blob) < header.size + _CRC.size:
        raise SnapshotError(f"{what} snapshot truncated ({len(blob)} bytes)")
    (stored_crc,) = _CRC.unpack_from(blob, len(blob) - _CRC.size)
    if zlib.crc32(blob[: -_CRC.size]) != stored_crc:
        raise SnapshotError(f"{what} snapshot failed its checksum")
    fields = header.unpack_from(blob, 0)
    if fields[0] != magic:
        raise SnapshotError(f"{what} snapshot has bad magic {fields[0]!r}")
    if fields[1] > SNAPSHOT_VERSION:
        raise SnapshotError(
            f"{what} snapshot version {fields[1]} is newer than "
            f"supported version {SNAPSHOT_VERSION}"
        )
    return fields


def _expect_size(blob: bytes, expected: int, what: str) -> None:
    if len(blob) != expected:
        raise SnapshotError(
            f"{what} snapshot is {len(blob)} bytes, expected {expected}"
        )


# ----------------------------------------------------------------------
# Free-extent index
# ----------------------------------------------------------------------
def index_kind_of(index: FreeExtentIndex | NaiveFreeExtentIndex) -> str:
    """The factory name of an engine instance."""
    return "naive" if isinstance(index, NaiveFreeExtentIndex) else "tiered"


def encode_free_index(index: FreeExtentIndex | NaiveFreeExtentIndex) -> bytes:
    """Serialize a free index; same free map -> same bytes."""
    runs = list(index)  # address order: the canonical iteration order
    buf = bytearray(_FREE_HEADER.pack(
        _FREE_MAGIC, SNAPSHOT_VERSION, _KIND_CODES[index_kind_of(index)], 0,
        index.capacity, len(runs),
    ))
    pack_into = _RUN.pack_into
    buf += bytes(len(runs) * _RUN.size)
    offset = _FREE_HEADER.size
    for ext in runs:
        pack_into(buf, offset, ext.start, ext.length)
        offset += _RUN.size
    return _crc_frame(buf)


def decode_free_index(blob: bytes, *, kind: str | None = None,
                      ) -> FreeExtentIndex | NaiveFreeExtentIndex:
    """Rebuild a free index from :func:`encode_free_index` output.

    ``kind`` overrides the engine recorded in the blob (the engines are
    placement-identical, so cross-engine restores are exact).  The run
    list is validated structurally — ascending, coalesced, inside
    capacity — and the engine's own ``check_invariants`` runs before
    the index is returned.
    """
    magic, version, kind_code, _, capacity, nruns = _open_frame(
        blob, _FREE_MAGIC, _FREE_HEADER, "free-index")
    if kind_code not in _KIND_NAMES:
        raise SnapshotError(f"unknown free-index engine code {kind_code}")
    _expect_size(blob, _FREE_HEADER.size + nruns * _RUN.size + _CRC.size,
                 "free-index")
    index = make_free_index(capacity, kind=kind or _KIND_NAMES[kind_code],
                            initially_free=False)
    offset = _FREE_HEADER.size
    prev_end = -1
    for _ in range(nruns):
        start, length = _RUN.unpack_from(blob, offset)
        offset += _RUN.size
        if length <= 0 or start + length > capacity:
            raise SnapshotError(
                f"free-index snapshot run [{start}, {start + length}) "
                f"outside capacity {capacity}"
            )
        if start <= prev_end:
            detail = "overlapping" if start < prev_end else "uncoalesced"
            raise SnapshotError(
                f"free-index snapshot has {detail} runs at {start}"
            )
        index.add(Extent(start, length))
        prev_end = start + length
    index.check_invariants()
    return index


# ----------------------------------------------------------------------
# Journal state
# ----------------------------------------------------------------------
def encode_journal(journal: Journal) -> bytes:
    """Serialize a journal's recoverable state plus its log geometry."""
    state = journal.snapshot_state()
    buf = bytearray(_JOURNAL_HEADER.pack(
        _JOURNAL_MAGIC, SNAPSHOT_VERSION,
        journal.log_base, journal.log_size, journal.record_bytes,
        state.cursor, state.ops_since_commit, state.commits,
        state.logged_ops, len(state.pending), len(state.replayable),
    ))
    # buffered_records rides behind the fixed header (kept out of it so
    # the header stays one struct of co-typed fields).
    buf += struct.pack("<I", state.buffered_records)
    for ext in (*state.pending, *state.replayable):
        buf += _RUN.pack(ext.start, ext.length)
    return _crc_frame(buf)


def decode_journal_state(blob: bytes) -> tuple[dict, JournalState]:
    """Decode a journal blob into (log geometry, recoverable state)."""
    (magic, version, log_base, log_size, record_bytes, cursor,
     ops_since_commit, commits, logged_ops, npending,
     nreplayable) = _open_frame(blob, _JOURNAL_MAGIC, _JOURNAL_HEADER,
                                "journal")
    offset = _JOURNAL_HEADER.size
    _expect_size(
        blob,
        offset + 4 + (npending + nreplayable) * _RUN.size + _CRC.size,
        "journal",
    )
    (buffered_records,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    extents: list[Extent] = []
    for _ in range(npending + nreplayable):
        start, length = _RUN.unpack_from(blob, offset)
        offset += _RUN.size
        if length <= 0:
            raise SnapshotError("journal snapshot has a non-positive free")
        extents.append(Extent(start, length))
    geometry = {"log_base": log_base, "log_size": log_size,
                "record_bytes": record_bytes}
    state = JournalState(
        cursor=cursor,
        ops_since_commit=ops_since_commit,
        buffered_records=buffered_records,
        commits=commits,
        logged_ops=logged_ops,
        pending=tuple(extents[:npending]),
        replayable=tuple(extents[npending:]),
    )
    if cursor >= log_size:
        raise SnapshotError(
            f"journal snapshot cursor {cursor} outside its own log of "
            f"{log_size} bytes"
        )
    return geometry, state


def restore_journal(journal: Journal, blob: bytes) -> JournalState:
    """Adopt a snapshotted state into ``journal``; geometry must match."""
    geometry, state = decode_journal_state(blob)
    actual = {"log_base": journal.log_base, "log_size": journal.log_size,
              "record_bytes": journal.record_bytes}
    if geometry != actual:
        raise SnapshotError(
            f"journal snapshot geometry {geometry} does not match the "
            f"mounting journal's {actual}"
        )
    journal.restore_state(state)
    return state


def verify_journal(journal: Journal, blob: bytes) -> None:
    """Check that ``journal``'s live state matches a snapshot blob.

    Used on checkpoint load to cross-check the pickled journal against
    the independently encoded snapshot — a mismatch means one of the
    two checkpoint artifacts is torn.
    """
    geometry, state = decode_journal_state(blob)
    actual = {"log_base": journal.log_base, "log_size": journal.log_size,
              "record_bytes": journal.record_bytes}
    if geometry != actual:
        raise SnapshotError(
            f"journal snapshot geometry {geometry} != live {actual}"
        )
    live = journal.snapshot_state()
    if live != state:
        raise SnapshotError(
            "journal snapshot disagrees with the restored journal "
            f"(snapshot {state}, live {live})"
        )
