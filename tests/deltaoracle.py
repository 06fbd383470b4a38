"""Reference model for the delta encoder (test-side only).

``repro.persist.delta.encode_delta`` finds COPY ops by looking a
window's content up directly.  :func:`encode_delta` here is the version
it replaced, verbatim — the classic rsync scheme: the parent hashed in
aligned ``block``-sized windows under a weak checksum, the target
scanned with the same checksum rolled one byte at a time, every weak
hit byte-verified and extended greedily — so ``test_persist_delta.py``
can hold the shipped encoder to it with ``==`` on the blob, and
``test_checkpoint_resume.py`` can run a charged checkpoint chain under
both and compare the modelled clock.
"""

from __future__ import annotations

import struct
import zlib

from repro.errors import ConfigError

# The RDLT format, restated rather than imported: the oracle pins the
# bytes, so it must not move when ``repro.persist.delta`` does.
SNAPSHOT_VERSION = 1
DELTA_BLOCK = 128

_DELTA_MAGIC = b"RDLT"
_DELTA_HEADER = struct.Struct("<4sHHQIQII")
# magic, version, block, parent_len, parent_crc, result_len, result_crc, nops
_COPY_OP = struct.Struct("<QQ")            # parent offset, length
_U64 = struct.Struct("<Q")
_CRC = struct.Struct("<I")

_TAG_COPY = 0x00
_TAG_INSERT = 0x01


def _weak_table(parent: bytes, block: int) -> dict[int, list[int]]:
    """Weak checksum -> aligned parent offsets with that checksum."""
    table: dict[int, list[int]] = {}
    for off in range(0, len(parent) - block + 1, block):
        a = 0
        b = 0
        for i in range(block):
            x = parent[off + i]
            a += x
            b += (block - i) * x
        key = (a & 0xFFFF) | ((b & 0xFFFF) << 16)
        table.setdefault(key, []).append(off)
    return table


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
    table = _weak_table(parent, block) if len(parent) >= block else {}
    ops = bytearray()
    nops = 0
    literal = bytearray()

    def flush_literal() -> None:
        nonlocal nops
        if literal:
            ops.append(_TAG_INSERT)
            ops.extend(_U64.pack(len(literal)))
            ops.extend(literal)
            literal.clear()
            nops += 1

    pos = 0
    n = len(target)
    a = 0
    b = 0
    have_weak = False
    while pos < n:
        if not table or n - pos < block:
            # Tail shorter than a window (or nothing to match against):
            # the rest is literal.
            literal += target[pos:]
            pos = n
            break
        if not have_weak:
            a = 0
            b = 0
            for i in range(block):
                x = target[pos + i]
                a += x
                b += (block - i) * x
            have_weak = True
        key = (a & 0xFFFF) | ((b & 0xFFFF) << 16)
        match_off = -1
        candidates = table.get(key)
        if candidates is not None:
            window = target[pos: pos + block]
            for cand in candidates:
                if parent[cand: cand + block] == window:
                    match_off = cand
                    break
        if match_off < 0:
            # Miss: emit one literal byte and roll the window forward.
            x_out = target[pos]
            literal.append(x_out)
            pos += 1
            if pos + block <= n:
                x_in = target[pos + block - 1]
                a = a - x_out + x_in
                b = b - block * x_out + a
            else:
                have_weak = False
            continue
        # Verified match: extend greedily past the window.
        length = block
        parent_n = len(parent)
        while (pos + length < n and match_off + length < parent_n
               and target[pos + length] == parent[match_off + length]):
            length += 1
        flush_literal()
        ops.append(_TAG_COPY)
        ops += _COPY_OP.pack(match_off, length)
        nops += 1
        pos += length
        have_weak = False
    flush_literal()

    buf = bytearray(_DELTA_HEADER.pack(
        _DELTA_MAGIC, SNAPSHOT_VERSION, block,
        len(parent), zlib.crc32(parent),
        len(target), zlib.crc32(target), nops,
    ))
    buf += ops
    buf += _CRC.pack(zlib.crc32(bytes(buf)))
    return bytes(buf)
