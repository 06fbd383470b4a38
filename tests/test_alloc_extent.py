"""Tests for the Extent value type and the fragment count."""

import pytest

from repro.alloc.extent import Extent, fragment_count, total_length
from repro.errors import ConfigError


class TestExtentBasics:
    def test_end(self):
        assert Extent(10, 5).end == 15

    def test_rejects_negative_start(self):
        with pytest.raises(ConfigError):
            Extent(-1, 5)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ConfigError):
            Extent(0, 0)

    def test_ordering_by_start(self):
        assert sorted([Extent(10, 1), Extent(0, 1)])[0].start == 0

    def test_contains(self):
        e = Extent(10, 5)
        assert e.contains(10)
        assert e.contains(14)
        assert not e.contains(15)
        assert not e.contains(9)

    def test_contains_extent(self):
        assert Extent(0, 10).contains_extent(Extent(2, 3))
        assert not Extent(0, 10).contains_extent(Extent(8, 3))


class TestOverlapAdjacency:
    def test_overlaps(self):
        assert Extent(0, 10).overlaps(Extent(5, 10))
        assert not Extent(0, 10).overlaps(Extent(10, 5))

    def test_adjacent(self):
        assert Extent(0, 10).adjacent_to(Extent(10, 5))
        assert Extent(10, 5).adjacent_to(Extent(0, 10))
        assert not Extent(0, 10).adjacent_to(Extent(11, 5))

    def test_merge_adjacent(self):
        assert Extent(0, 10).merge(Extent(10, 5)) == Extent(0, 15)

    def test_merge_disjoint_rejected(self):
        with pytest.raises(ConfigError):
            Extent(0, 10).merge(Extent(20, 5))


class TestSplitTake:
    def test_split_at(self):
        left, right = Extent(0, 10).split_at(4)
        assert left == Extent(0, 4)
        assert right == Extent(4, 6)

    def test_split_at_boundary_rejected(self):
        with pytest.raises(ConfigError):
            Extent(0, 10).split_at(0)
        with pytest.raises(ConfigError):
            Extent(0, 10).split_at(10)

    def test_take_front(self):
        taken, rest = Extent(100, 10).take_front(4)
        assert taken == Extent(100, 4)
        assert rest == Extent(104, 6)

    def test_take_front_all(self):
        taken, rest = Extent(100, 10).take_front(10)
        assert taken == Extent(100, 10)
        assert rest is None

    def test_take_too_much_rejected(self):
        with pytest.raises(ConfigError):
            Extent(0, 10).take_front(11)


class TestCoalesce:
    """``fragment_count`` (the class keeps its name and test ids from
    the ``coalesce`` it replaced)."""

    def test_empty(self):
        assert fragment_count([]) == 0

    def test_merges_touching(self):
        assert fragment_count([Extent(0, 10), Extent(10, 5)]) == 1

    def test_keeps_gaps(self):
        assert fragment_count([Extent(20, 5), Extent(0, 10)]) == 2

    def test_unsorted_input(self):
        assert fragment_count(
            [Extent(10, 5), Extent(0, 10), Extent(15, 1)]) == 1

    def test_fragment_count_semantics(self):
        # A contiguous object has one fragment (Figure 2's caption).
        contiguous = [Extent(0, 64), Extent(64, 64), Extent(128, 64)]
        assert fragment_count(contiguous) == 1
        scattered = [Extent(0, 64), Extent(128, 64), Extent(256, 64)]
        assert fragment_count(scattered) == 3
        # Overlap merges too: the count is of covered runs.
        assert fragment_count([Extent(0, 64), Extent(32, 8)]) == 1

    def test_total_length(self):
        assert total_length([Extent(0, 10), Extent(100, 5)]) == 15


class TestSlots:
    def test_extent_is_slotted(self):
        ext = Extent(0, 10)
        assert not hasattr(ext, "__dict__")
        assert set(Extent.__slots__) == {"start", "length"}
        with pytest.raises(AttributeError):
            object.__setattr__(ext, "color", "red")

    def test_extent_remains_frozen(self):
        ext = Extent(0, 10)
        with pytest.raises(AttributeError):
            ext.start = 5

    def test_extent_remains_hashable(self):
        ext = Extent(3, 7)
        assert hash(ext) == hash(Extent(3, 7))
        assert {ext: "a"}[Extent(3, 7)] == "a"
        assert len({Extent(0, 1), Extent(0, 1), Extent(1, 1)}) == 2

    def test_extent_pickles(self):
        import pickle

        ext = Extent(12, 34)
        assert pickle.loads(pickle.dumps(ext)) == ext

    #: ``pickle.dumps`` of ``PINNED`` after its protocol header: the same
    #: under the default protocol (4 on CPython 3.8-3.13) and protocol 5.
    #: Checkpoints pickle extents and charge their byte count, so these
    #: bytes must not move.
    PINNED = [Extent(0, 4096), Extent(8192, 65536), Extent(2**40, 2**33)]
    PINNED_BODY = (
        b"\x95]\x00\x00\x00\x00\x00\x00\x00]\x94(\x8c\x12repro.alloc.extent"
        b"\x94\x8c\x06Extent\x94\x93\x94)\x81\x94]\x94(K\x00M\x00\x10ebh\x03)"
        b"\x81\x94]\x94(M\x00 J\x00\x00\x01\x00ebh\x03)\x81\x94]\x94(\x8a\x06"
        b"\x00\x00\x00\x00\x00\x01\x8a\x05\x00\x00\x00\x00\x02ebe.")

    @pytest.mark.parametrize("protocol", [None, 5])
    def test_extent_pickle_bytes_are_pinned(self, protocol):
        import pickle

        head = bytes([0x80, protocol or pickle.DEFAULT_PROTOCOL])
        got = pickle.dumps(self.PINNED, protocol=protocol)
        assert got == head + self.PINNED_BODY
        assert pickle.loads(got) == self.PINNED


class TestOneFrame:
    """An extent is built, and unpickled, in one Python frame: the
    validating ``__init__`` (there is no ``__post_init__``), or
    ``__setstate__``."""

    @staticmethod
    def frames(call):
        import sys

        seen = []

        def profile(frame, event, _arg):
            if event == "call":
                seen.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            call()
        finally:
            sys.setprofile(None)
        return seen

    def test_construction_is_one_frame(self):
        assert "__post_init__" not in vars(Extent)
        assert self.frames(lambda: Extent(5, 7)) == ["<lambda>", "__init__"]
        assert self.frames(lambda: Extent(start=5, length=7)) == \
            ["<lambda>", "__init__"]

    def test_unpickling_is_one_frame(self):
        import pickle

        data = pickle.dumps(Extent(5, 7))
        assert self.frames(lambda: pickle.loads(data)) == \
            ["<lambda>", "__setstate__"]
        assert pickle.loads(data) == Extent(5, 7)

    @pytest.mark.parametrize("start,length,message", [
        (-1, 4, "extent start must be >= 0, got -1"),
        (0, 0, "extent length must be > 0, got 0"),
        (3, -2, "extent length must be > 0, got -2"),
    ])
    def test_validation_messages(self, start, length, message):
        with pytest.raises(ConfigError, match=message):
            Extent(start, length)
