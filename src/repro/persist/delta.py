"""Binary delta between two snapshot payloads (content-keyed, CRC-framed).

A delta blob encodes ``target`` against ``parent`` as a sequence of
COPY/INSERT ops, framed exactly like the other persist codecs::

    magic RDLT | version (u16) | block (u16) | parent_len (u64) |
    parent_crc (u32) | result_len (u64) | result_crc (u32) |
    nops (u32) | ops | crc32 (u32)

Ops are tag-prefixed: ``0x00`` is COPY of ``(parent_offset, length)``
(two u64), ``0x01`` is INSERT of ``length`` (u64) raw bytes.  The outer
CRC covers every byte before it (torn writes surface as
:class:`~repro.errors.SnapshotError`); ``parent_len``/``parent_crc``
pin the blob to the exact parent it was encoded against, and
``result_len``/``result_crc`` verify the reconstruction — a delta can
never silently apply to the wrong base or produce the wrong bytes.

**Match rule.**  The parent is cut into aligned ``block``-sized
blocks.  Scanning the target left to right from the end of the last
op, the next COPY starts at the first position whose ``block``-byte
window equals some parent block; its source is the *lowest* aligned
offset holding those bytes, and it extends greedily past the window
for as long as target and parent keep agreeing.  Everything between
two COPYs is one INSERT.  The rule is stated on content alone, so the
encoder looks content up directly — ``{block bytes: lowest offset}`` —
instead of rolling a checksum over every target byte; the blobs are
the ones the rsync-style weak-then-verify cascade produced
(``tests/deltaoracle.py`` keeps that encoder, and the tests hold this
one to it byte for byte), because a verified weak hit tried in
ascending offset order *is* the lowest offset with equal bytes.

**Probing.**  Hashing a window per target position would still be
Python work per byte, so positions are filtered through ``g``-byte
*grams* (``g`` = 8 from ``block`` 15 up, the largest power of two with
``2g - 1 <= block`` below that).  For every distinct parent block the
grams at in-block offsets ``0..g-1`` go into a flat filter (slot
``gram % size`` -> bitmask of offsets; a ``bytearray``, because a dict
of that many int keys costs more resident memory than the payloads);
the target is read once as ``g``-byte integers at positions ``0, g,
2g, ...`` (a ``memoryview`` cast, no per-byte bytecode) and each is
looked up in the filter.  A window starting at ``k`` contains the
probe ``t = ceil(k / g) * g`` entirely — ``t - k <= g - 1`` and ``t +
g <= k + 2g - 1 <= k + block`` — so a window equal to a parent block
always shows that block's gram at offset ``t - k`` at probe ``t``: no
match is missed.  A hit at ``t`` with offset bit ``o`` names the
candidate start ``t - o``; consecutive probes' candidates are disjoint
and ascending, so verifying them in that order against the block table
finds the first match, and a filter collision only costs a lookup that
misses.

**Worst case.**  On low-entropy data every probe hits and every
offset bit is set, and the scan degrades to one block-table lookup per
target position — never more: each position is a candidate of exactly
one probe and is verified at most once.

Encoding is deterministic: the same ``(parent, target, block)`` always
produces the same bytes.
"""

from __future__ import annotations

import struct
import zlib
from collections.abc import Callable, Iterator
from itertools import compress, repeat
from operator import mod

from repro.errors import ConfigError, SnapshotError
from repro.persist.snapshot import (SNAPSHOT_VERSION, _CRC, _crc_frame,
                                    _open_frame)

#: Default size of the parent's aligned blocks.  Small enough that
#: checkpoint-sized payloads (tens of KB to a few MB) still find
#: matches around localized edits, large enough that the table stays
#: cheap.  Recorded in the header for provenance; apply never needs it.
DELTA_BLOCK = 128

_DELTA_MAGIC = b"RDLT"
_DELTA_HEADER = struct.Struct("<4sHHQIQII")
# magic, version, block, parent_len, parent_crc, result_len, result_crc, nops
_COPY_OP = struct.Struct("<QQ")            # parent offset, length
_U64 = struct.Struct("<Q")

_TAG_COPY = 0x00
_TAG_INSERT = 0x01

#: Widest gram: one native 64-bit read.
_MAX_GRAM = 8
#: ``memoryview.cast`` format of a gram, by log2 of its width.
_GRAM_FORMATS = "BHIQ"
#: Offset bitmask -> its set bits, highest first (ascending candidate
#: start, since a candidate is ``probe - offset``).
_OFFSETS = tuple(
    tuple(o for o in reversed(range(_MAX_GRAM)) if mask >> o & 1)
    for mask in range(1 << _MAX_GRAM))
#: Filter slots per parent block: a random gram shows a given offset
#: bit with probability <= 1/64, i.e. one wasted table lookup per ~64
#: target bytes.
_SLOTS_PER_BLOCK = 64
#: Largest slice :func:`_common_prefix` compares at once.
_PREFIX_CHUNK = 512


def _block_table(parent: bytes, block: int) -> dict[bytes, int]:
    """Content of each aligned parent block -> the lowest offset holding it."""
    table: dict[bytes, int] = {}
    for off in range(0, len(parent) - block + 1, block):
        table.setdefault(parent[off: off + block], off)
    return table


def _gram_filter(table: dict[bytes, int], fmt: str) -> bytearray:
    """Slot ``g % len(filter)`` of gram ``g`` -> bitmask of the in-block
    offsets (below the gram width) some parent block holds ``g`` at.

    Grams are native-order integers of format ``fmt``, the values a
    ``memoryview`` cast of the target yields.  One flat buffer rather
    than a dict: no object per entry, and a collision only costs a
    wasted table lookup.
    """
    slots = bytearray(len(table) * _SLOTS_PER_BLOCK | 1)
    size = len(slots)
    gram = struct.Struct("=" + fmt)
    read = gram.unpack_from
    bits = [(o, 1 << o) for o in range(gram.size)]
    for content in table:
        for o, bit in bits:
            slots[read(content, o)[0] % size] |= bit
    return slots


def _common_prefix(a: bytes, i: int, b: bytes, j: int) -> int:
    """Length of the longest common prefix of ``a[i:]`` and ``b[j:]``.

    Whole chunks while they agree, then a halving descent inside the
    first chunk that does not (a failed compare at ``step`` bounds what
    is left below ``step``).
    """
    limit = min(len(a) - i, len(b) - j)
    size = 0
    step = _PREFIX_CHUNK
    while step:
        if (size + step <= limit
                and a[i + size: i + size + step]
                == b[j + size: j + size + step]):
            size += step
        else:
            step >>= 1
    return size


def _scan(table: dict[bytes, int], parent: bytes, target: bytes,
          block: int) -> Iterator[tuple[int, int, int]]:
    """Yield ``(target position, parent offset, length)`` of every COPY.

    ``table`` is :func:`_block_table` of ``parent``; it is consulted at
    most once per target position (see the module docstring).
    """
    last = len(target) - block        # last admissible window start
    if not table or last < 0:
        return
    gram = min(_MAX_GRAM, 1 << (((block + 1) // 2).bit_length() - 1))
    fmt = _GRAM_FORMATS[gram.bit_length() - 1]
    slots = _gram_filter(table, fmt)
    stop = len(target) - len(target) % gram
    grams = memoryview(target)[:stop].cast(fmt)
    mask_of: Callable[[int], int] = slots.__getitem__
    # One byte per probe, computed without leaving C; only the non-zero
    # ones (with their positions) reach the loop below.
    masks = bytes(map(mask_of, map(mod, grams, repeat(len(slots)))))
    lookup = table.get
    pos = 0                           # end of the last COPY
    for probe, mask in zip(compress(range(0, stop, gram), masks),
                           filter(None, masks)):
        if probe < pos:
            continue                  # every candidate is inside the COPY
        for o in _OFFSETS[mask]:
            at = probe - o
            if at < pos:
                continue
            if at > last:
                return
            off = lookup(target[at: at + block])
            if off is not None:
                length = block + _common_prefix(target, at + block,
                                                parent, off + block)
                yield at, off, length
                pos = at + length


def encode_delta(parent: bytes, target: bytes, *,
                 block: int = DELTA_BLOCK) -> bytes:
    """Encode ``target`` as a delta against ``parent``.

    Always succeeds (worst case the delta is one big INSERT); callers
    decide whether the result is worth storing over a full copy.
    """
    if not 1 <= block <= 0xFFFF:
        raise ConfigError(f"delta block must be in [1, 65535], got {block}")
    parent = bytes(parent)
    target = bytes(target)
    buf = bytearray(_DELTA_HEADER.size)   # packed in once nops is known
    literals = memoryview(target)

    def insert(start: int, stop: int) -> int:
        """Append ``target[start:stop]`` as one INSERT; ops added."""
        if start == stop:
            return 0
        buf.append(_TAG_INSERT)
        buf.extend(_U64.pack(stop - start))
        buf.extend(literals[start:stop])
        return 1

    nops = 0
    pos = 0
    for at, off, length in _scan(_block_table(parent, block), parent,
                                 target, block):
        nops += insert(pos, at) + 1
        buf.append(_TAG_COPY)
        buf.extend(_COPY_OP.pack(off, length))
        pos = at + length
    nops += insert(pos, len(target))
    _DELTA_HEADER.pack_into(
        buf, 0, _DELTA_MAGIC, SNAPSHOT_VERSION, block,
        len(parent), zlib.crc32(parent),
        len(target), zlib.crc32(target), nops,
    )
    return _crc_frame(buf)


def apply_delta(parent: bytes, blob: bytes) -> bytes:
    """Reconstruct the target a delta blob encodes against ``parent``.

    Raises :class:`~repro.errors.SnapshotError` on framing damage, on a
    parent that is not the one the delta was encoded against, on
    malformed ops, and on a reconstruction whose length or CRC disagrees
    with the header — a delta either yields exactly the encoded target
    or refuses.
    """
    (_, _, _, parent_len, parent_crc, result_len, result_crc,
     nops) = _open_frame(blob, _DELTA_MAGIC, _DELTA_HEADER, "delta")
    parent = bytes(parent)
    if len(parent) != parent_len or zlib.crc32(parent) != parent_crc:
        raise SnapshotError(
            f"delta snapshot was encoded against a different parent "
            f"({parent_len} bytes, crc {parent_crc:#010x}; got "
            f"{len(parent)} bytes, crc {zlib.crc32(parent):#010x})"
        )
    out = bytearray()
    offset = _DELTA_HEADER.size
    end = len(blob) - _CRC.size
    for _ in range(nops):
        if offset >= end:
            raise SnapshotError("delta snapshot ops truncated")
        tag = blob[offset]
        offset += 1
        if tag == _TAG_COPY:
            if offset + _COPY_OP.size > end:
                raise SnapshotError("delta snapshot COPY op truncated")
            src, length = _COPY_OP.unpack_from(blob, offset)
            offset += _COPY_OP.size
            if length <= 0 or src + length > parent_len:
                raise SnapshotError(
                    f"delta snapshot COPY [{src}, {src + length}) outside "
                    f"its parent of {parent_len} bytes"
                )
            out += parent[src: src + length]
        elif tag == _TAG_INSERT:
            if offset + _U64.size > end:
                raise SnapshotError("delta snapshot INSERT op truncated")
            (length,) = _U64.unpack_from(blob, offset)
            offset += _U64.size
            if length <= 0 or offset + length > end:
                raise SnapshotError("delta snapshot INSERT data truncated")
            out += blob[offset: offset + length]
            offset += length
        else:
            raise SnapshotError(f"delta snapshot has unknown op tag {tag}")
    if offset != end:
        raise SnapshotError("delta snapshot has trailing bytes after its ops")
    result = bytes(out)
    if len(result) != result_len or zlib.crc32(result) != result_crc:
        raise SnapshotError(
            "delta snapshot reconstruction failed its checksum"
        )
    return result
