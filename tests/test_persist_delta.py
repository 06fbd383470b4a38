"""Tests for the binary delta codec (repro.persist.delta).

Round trips over representative payload shapes, byte determinism,
wrong-parent and torn-blob rejection, and op-stream validation.  The
codec underpins delta checkpoint chains (``test_persist_snapshot.py``
covers the chain layer; ``test_crash_matrix.py`` the crash behaviour).

The blob *length* is charged to the modelled clock, so the encoder is
also held byte for byte to the rolling-checksum encoder it replaced
(``deltaoracle.py``): a property over ``(parent, target, block)`` and
named regressions for the places a content-keyed scan could diverge.
"""

import random
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaoracle import encode_delta as oracle_encode_delta
from repro.errors import ConfigError, SnapshotError
from repro.persist import DELTA_BLOCK, apply_delta, encode_delta
from repro.persist.delta import (_CRC, _DELTA_HEADER, _block_table,
                                 _common_prefix, _scan)


def mutated(parent: bytes, seed: int = 7, edits: int = 5) -> bytes:
    """The parent with a handful of localized edits (checkpoint-like)."""
    rng = random.Random(seed)
    out = bytearray(parent)
    for _ in range(edits):
        if not out:
            break
        at = rng.randrange(len(out))
        kind = rng.randrange(3)
        chunk = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 40)))
        if kind == 0:
            out[at:at] = chunk                    # insert
        elif kind == 1:
            out[at: at + len(chunk)] = chunk      # overwrite
        else:
            del out[at: at + rng.randrange(1, 40)]  # delete
    return bytes(out)


CASES = [
    (b"", b""),
    (b"", b"hello new world"),
    (b"old content here", b""),
    (b"identical payload " * 200, b"identical payload " * 200),
    (b"x" * 10_000, b"y" * 10_000),
]


class TestRoundTrip:
    @pytest.mark.parametrize("parent,target", CASES)
    def test_edge_shapes(self, parent, target):
        assert apply_delta(parent, encode_delta(parent, target)) == target

    def test_localized_edits(self):
        rng = random.Random(1)
        parent = bytes(rng.randrange(256) for _ in range(50_000))
        target = mutated(parent)
        blob = encode_delta(parent, target)
        assert apply_delta(parent, blob) == target
        # Mostly-identical inputs must beat a full copy by a wide margin.
        assert len(blob) < len(target) // 4

    def test_identical_inputs_collapse(self):
        parent = bytes(range(256)) * 100
        blob = encode_delta(parent, parent)
        assert apply_delta(parent, blob) == parent
        assert len(blob) < 100  # a header and a single COPY op

    def test_sub_block_payloads(self):
        parent = b"tiny"
        target = b"also tiny"
        assert len(parent) < DELTA_BLOCK and len(target) < DELTA_BLOCK
        assert apply_delta(parent, encode_delta(parent, target)) == target

    def test_custom_block_size(self):
        parent = bytes(range(256)) * 8
        target = mutated(parent, seed=2)
        blob = encode_delta(parent, target, block=16)
        assert apply_delta(parent, blob) == target

    def test_block_validation(self):
        with pytest.raises(ConfigError):
            encode_delta(b"a", b"b", block=0)
        with pytest.raises(ConfigError):
            encode_delta(b"a", b"b", block=0x10000)


class TestDeterminism:
    def test_same_inputs_same_bytes(self):
        rng = random.Random(3)
        parent = bytes(rng.randrange(256) for _ in range(20_000))
        target = mutated(parent, seed=4)
        assert encode_delta(parent, target) == encode_delta(parent, target)


class TestRejection:
    def make_blob(self):
        parent = b"the quick brown fox " * 50
        target = parent.replace(b"quick", b"rapid")
        return parent, target, encode_delta(parent, target)

    def test_wrong_parent_rejected(self):
        parent, _, blob = self.make_blob()
        with pytest.raises(SnapshotError, match="different parent"):
            apply_delta(parent + b"!", blob)
        with pytest.raises(SnapshotError, match="different parent"):
            apply_delta(b"", blob)

    def test_truncated_blob_rejected(self):
        parent, _, blob = self.make_blob()
        with pytest.raises(SnapshotError):
            apply_delta(parent, blob[: len(blob) // 2])

    def test_bit_flip_rejected(self):
        parent, _, blob = self.make_blob()
        for at in (2, _DELTA_HEADER.size + 1, len(blob) - 2):
            flipped = bytearray(blob)
            flipped[at] ^= 0xFF
            with pytest.raises(SnapshotError):
                apply_delta(parent, bytes(flipped))

    def test_bad_magic_rejected(self):
        parent, _, blob = self.make_blob()
        bad = b"XXXX" + blob[4:]
        with pytest.raises(SnapshotError):
            apply_delta(parent, bad)

    def reframe(self, body: bytes) -> bytes:
        """Re-CRC a doctored frame so only op validation can reject it."""
        return body + _CRC.pack(zlib.crc32(body))

    def test_copy_outside_parent_rejected(self):
        parent = b"p" * 300
        header = _DELTA_HEADER.pack(
            b"RDLT", 1, DELTA_BLOCK, len(parent), zlib.crc32(parent),
            10, 0, 1)
        op = bytes([0x00]) + struct.pack("<QQ", len(parent) - 2, 10)
        with pytest.raises(SnapshotError, match="outside its parent"):
            apply_delta(parent, self.reframe(header + op))

    def test_unknown_tag_rejected(self):
        parent = b"p" * 300
        header = _DELTA_HEADER.pack(
            b"RDLT", 1, DELTA_BLOCK, len(parent), zlib.crc32(parent),
            1, 0, 1)
        with pytest.raises(SnapshotError, match="unknown op tag"):
            apply_delta(parent, self.reframe(header + bytes([0x7F])))

    def test_trailing_bytes_rejected(self):
        parent, target, blob = self.make_blob()
        body = blob[: -_CRC.size] + b"\x00" * 4
        with pytest.raises(SnapshotError):
            apply_delta(parent, self.reframe(body))

    def test_result_mismatch_rejected(self):
        import zlib

        parent = b"payload " * 40
        header = _DELTA_HEADER.pack(
            b"RDLT", 1, DELTA_BLOCK, len(parent), zlib.crc32(parent),
            4, zlib.crc32(b"good"), 1)
        op = bytes([0x01]) + struct.pack("<Q", 4) + b"evil"
        with pytest.raises(SnapshotError, match="checksum"):
            apply_delta(parent, self.reframe(header + op))


# ----------------------------------------------------------------------
# The encoder against the one it replaced (deltaoracle.py)
# ----------------------------------------------------------------------
def ops_of(blob: bytes) -> list[tuple]:
    """The op stream of a blob: ("copy", offset, length) / ("insert", data)."""
    nops = _DELTA_HEADER.unpack_from(blob)[-1]
    at = _DELTA_HEADER.size
    out = []
    for _ in range(nops):
        tag = blob[at]
        if tag == 0:
            out.append(("copy", *struct.unpack_from("<QQ", blob, at + 1)))
            at += 17
        else:
            (length,) = struct.unpack_from("<Q", blob, at + 1)
            out.append(("insert", blob[at + 9: at + 9 + length]))
            at += 9 + length
    return out


@st.composite
def delta_inputs(draw):
    """(parent, target, block): small alphabets repeat grams and whole
    blocks; the target is the parent edited, or unrelated."""
    symbols = draw(st.sampled_from([2, 3, 256]))
    payload = st.binary if symbols == 256 else (
        lambda **kw: st.lists(st.integers(0, symbols - 1), **kw).map(bytes))
    parent = draw(payload(max_size=700))
    block = draw(st.integers(1, 200))
    if draw(st.booleans()):
        return parent, draw(payload(max_size=700)), block
    target = bytearray(parent)
    for _ in range(draw(st.integers(0, 6))):
        at = draw(st.integers(0, len(target)))
        chunk = draw(payload(min_size=1, max_size=24))
        kind = draw(st.integers(0, 2))
        if kind == 0:
            target[at:at] = chunk
        elif kind == 1:
            target[at: at + len(chunk)] = chunk
        else:
            del target[at: at + len(chunk)]
    return parent, bytes(target), block


class TestAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(delta_inputs())
    def test_same_blob_as_the_rolling_checksum_encoder(self, inputs):
        parent, target, block = inputs
        blob = encode_delta(parent, target, block=block)
        assert blob == oracle_encode_delta(parent, target, block=block)
        assert apply_delta(parent, blob) == target

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 8, 15, 16, 31, 128])
    def test_checkpoint_like_payloads(self, block):
        rng = random.Random(block)
        parent = bytes(rng.randrange(256) for _ in range(6000))
        target = mutated(parent, seed=block, edits=12)
        assert (encode_delta(parent, target, block=block)
                == oracle_encode_delta(parent, target, block=block))

    def test_identical_parent_blocks_lowest_offset_wins(self):
        block = 16
        parent = b"A" * block + b"B" * block + b"A" * block + b"B" * block
        target = b"B" * block
        blob = encode_delta(parent, target, block=block)
        assert blob == oracle_encode_delta(parent, target, block=block)
        # The first B block, extended by nothing (an A follows it).
        assert ops_of(blob) == [("copy", block, block)]

    def test_match_at_the_last_admissible_start(self):
        block = 32
        rng = random.Random(5)
        parent = bytes(rng.randrange(256) for _ in range(4 * block))
        for lead in range(1, 20):          # every alignment of the tail
            target = bytes(lead) + parent[2 * block: 3 * block]
            blob = encode_delta(parent, target, block=block)
            assert blob == oracle_encode_delta(parent, target, block=block)
            assert ops_of(blob) == [("insert", bytes(lead)),
                                    ("copy", 2 * block, block)]

    def test_window_overlapping_the_previous_copy_is_not_a_match(self):
        """A parent block that occurs in the target *inside* the stretch
        the previous COPY already covered (its gram only shows at a
        probe past that COPY's end) must not be emitted."""
        block = 16
        parent = b"a" * 16 + b"a" * 13 + b"bbb" + b"aaabbb" + b"c" * 10
        target = b"a" * 20 + b"bbb" + b"c" * 10 + b"ddd"
        assert target[17: 17 + block] == parent[32:48]
        blob = encode_delta(parent, target, block=block)
        assert blob == oracle_encode_delta(parent, target, block=block)
        assert ops_of(blob) == [("copy", 0, 20), ("insert", target[20:])]

    def test_target_shorter_than_a_block(self):
        parent = bytes(range(256))
        target = parent[: DELTA_BLOCK - 1]
        blob = encode_delta(parent, target)
        assert blob == oracle_encode_delta(parent, target)
        assert ops_of(blob) == [("insert", target)]

    def test_block_longer_than_the_parent(self):
        parent, target = b"short parent", b"short parent, longer target"
        blob = encode_delta(parent, target, block=100)
        assert blob == oracle_encode_delta(parent, target, block=100)
        assert ops_of(blob) == [("insert", target)]

    def test_empty_parent(self):
        target = b"anything at all " * 20
        blob = encode_delta(b"", target)
        assert blob == oracle_encode_delta(b"", target)
        assert ops_of(blob) == [("insert", target)]

    def test_low_entropy_scan_is_one_lookup_per_position_at_most(self):
        """Worst case for the gram filter: two symbols, so every probe
        hits with every offset bit set.  The scan must degrade to the
        block table, never past it."""
        class CountingTable(dict):
            lookups = 0

            def get(self, key, default=None):
                self.lookups += 1
                return super().get(key, default)

        rng = random.Random(9)
        size = 256 * 1024
        parent = bytes(rng.choice(b"\x00\x01") for _ in range(size))
        # Unrelated bits with a few stretches of the parent spliced in.
        target = bytearray(rng.choice(b"\x00\x01") for _ in range(size))
        for at in (1000, 77_777, 200_001):
            target[at: at + 5000] = parent[at + 3: at + 5003]
        target = bytes(target)
        table = CountingTable(_block_table(parent, DELTA_BLOCK))
        copies = list(_scan(table, parent, target, DELTA_BLOCK))
        assert 0 < table.lookups <= len(target)
        assert sum(length for _, _, length in copies) >= 3 * 4800
        # And the blob is still the oracle's.
        assert (encode_delta(parent, target)
                == oracle_encode_delta(parent, target))


class TestCommonPrefix:
    def test_against_the_byte_loop(self):
        rng = random.Random(2)
        base = bytes(rng.randrange(4) for _ in range(3000))
        for _ in range(200):
            i, j = rng.randrange(3000), rng.randrange(3000)
            other = bytearray(base)
            flip = rng.randrange(3000)
            other[flip] ^= 0xFF
            other = bytes(other)
            expected = 0
            while (i + expected < len(base) and j + expected < len(other)
                   and base[i + expected] == other[j + expected]):
                expected += 1
            assert _common_prefix(base, i, other, j) == expected

    def test_runs_to_the_shorter_end(self):
        data = b"z" * 5000
        assert _common_prefix(data, 0, data, 0) == 5000
        assert _common_prefix(data, 100, data[:1234], 0) == 1234
        assert _common_prefix(data, 5000, data, 0) == 0
