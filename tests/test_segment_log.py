"""The segment log under the LFS and GFS stores.

A stateful exploration drives either store with stored bytes through
random puts, overwrites, deletes and reads on a small volume: the log's
books (``SegmentLog.check_invariants``) hold after every step, and every
object reads back the last bytes written to it.  A regression run holds
the GFS forced-collection wedge closed: at 50 % occupancy with
``gc_dead_fraction=0.9``, chunks whose records died while they were open
used to fill the volume until a write found no free chunk.  A put the
full log refuses partway through an object leaves what it wrote as dead
bytes, not live ones no object owns.  A collection run in the middle of
an LFS append never picks or frees a unit the object being written has
a piece in, and a low-water pass that cannot reach its mark stops
instead of moving live bytes around for ever.  A collection takes no
victim whose objects the free bytes cannot take whole, so the pass that
follows a finished overwrite is never refused halfway through a copy.
"""

import pytest
import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.backends.gfs_backend import GfsChunkBackend
from repro.backends.lfs_backend import LfsBackend, SegmentLog
from repro.cli import main
from repro.disk.device import BlockDevice
from repro.disk.geometry import scaled_disk
from repro.errors import StorageFullError
from repro.units import KB, MB

VOLUME = 256 * KB
UNIT = 32 * KB  # eight units


class SegmentLogMachine(RuleBasedStateMachine):
    kind = "lfs"

    def __init__(self):
        super().__init__()
        self.store = None
        self.model: dict[str, bytes] = {}
        self.writes = 0

    @initialize(dead_fraction=st.sampled_from([0.25, 0.5, 0.9]))  # GFS
    def build(self, dead_fraction):
        device = BlockDevice(scaled_disk(VOLUME), store_data=True)
        if self.kind == "lfs":
            self.store = LfsBackend(device, segment_size=UNIT)
            self.scale = 3  # objects span segments
        else:
            self.store = GfsChunkBackend(device, chunk_size=UNIT,
                                         gc_dead_fraction=dead_fraction)
            self.scale = 1

    def payload(self, size):
        self.writes += 1
        return bytes([self.writes % 251 + 1]) * (size * self.scale)

    def fits(self, size, replaced=b""):
        """Keep live bytes at or under half the volume."""
        live = sum(map(len, self.model.values())) - len(replaced)
        return live + size * self.scale <= VOLUME // 2

    @rule(size=st.integers(min_value=UNIT // 8, max_value=UNIT // 4))
    def put(self, size):
        if self.fits(size):
            key = f"k{self.writes}"
            self.model[key] = data = self.payload(size)
            self.store.put(key, data=data)

    def pick(self, index):
        return sorted(self.model)[index % len(self.model)]

    @precondition(lambda self: self.model)
    @rule(index=st.integers(min_value=0),
          size=st.integers(min_value=UNIT // 8, max_value=UNIT // 4))
    def overwrite(self, index, size):
        key = self.pick(index)
        if self.fits(size, self.model[key]):
            self.model[key] = data = self.payload(size)
            self.store.overwrite(key, data=data)

    @precondition(lambda self: self.model)
    @rule(index=st.integers(min_value=0))
    def delete(self, index):
        key = self.pick(index)
        del self.model[key]
        self.store.delete(key)

    @precondition(lambda self: self.model)
    @rule(index=st.integers(min_value=0))
    def get(self, index):
        key = self.pick(index)
        assert self.store.get(key) == self.model[key]

    @invariant()
    def books_hold(self):
        if self.store is not None:
            self.store.check_invariants()
            assert self.store.keys() == list(self.model)

    def teardown(self):
        for key, data in self.model.items():
            assert self.store.get(key) == data


class GfsLogMachine(SegmentLogMachine):
    kind = "gfs"


#: A fixed example set: a fault must fail every CI run, not one in some.
LOG_SETTINGS = settings(max_examples=70, stateful_step_count=100,
                        deadline=None, derandomize=True)
TestLfsLog = SegmentLogMachine.TestCase
TestLfsLog.settings = LOG_SETTINGS
TestGfsLog = GfsLogMachine.TestCase
TestGfsLog.settings = LOG_SETTINGS


def test_gfs_forced_collection_does_not_wedge():
    assert main(["run", "--store", "gfs:gc_dead_fraction=0.9,chunk_size=1M",
                 "--volume", "32M", "--object-size", "256K",
                 "--occupancy", "0.5", "--ages", "0,1,2"]) == 0


def test_a_refused_put_leaves_no_orphan_live_bytes():
    store = LfsBackend(BlockDevice(scaled_disk(8 * MB)),
                       segment_size=1 * MB, clean_threshold=1.0)
    for i in range(6):
        store.put(f"k{i}", size=1 * MB)
    with pytest.raises(StorageFullError):
        store.put("big", size=3 * MB)
    store.check_invariants()
    assert not store.exists("big")
    assert sum(seg.live for seg in store._segments.values()) == 6 * MB
    # The refused object's 2 MB are dead: the unit it emptied is free
    # again, the head keeps its dead megabyte for a collection.
    assert store.free_bytes() == 1 * MB
    assert sum(seg.dead() for seg in store._segments.values()) == 1 * MB


def test_a_refused_put_after_a_mid_append_collection_keeps_the_books():
    """A seeded random op mix on a full 4 MB log: the put refused at
    step 92 had a collection free and reuse a unit that held one of its
    earlier pieces, so only the pieces in units still held may become
    dead bytes."""
    rng = random.Random(1)
    store = LfsBackend(BlockDevice(scaled_disk(4 * MB)),
                       segment_size=rng.choice([128 * KB, 256 * KB]),
                       clean_threshold=rng.choice([0.5, 0.75, 1.0]))
    keys, refused = [], 0
    for step in range(93):
        op, size = rng.random(), rng.randint(50 * KB, 700 * KB)
        try:
            if op < 0.5 or not keys:
                store.put(f"k{step}", size=size)
                keys.append(f"k{step}")
            elif op < 0.8:
                store.overwrite(rng.choice(keys), size=size)
            else:
                key = rng.choice(keys)
                keys.remove(key)
                store.delete(key)
        except StorageFullError:
            refused += 1
        store.check_invariants()
    assert refused > 0


#: A put, overwrite and delete mix on a 4 MB log of 256 KB units that
#: keeps one unit free: the put of ``k13`` fills the head with all units
#: held, and the only unit with dead bytes for its collection is unit 14,
#: which holds the first piece of ``k13`` itself.  Collecting it would
#: free it under that piece; sparing it leaves no victim, so the put is
#: refused.
IN_FLIGHT_OPS = [
    ("put", "k0", 341884), ("delete", "k0", 0), ("put", "k2", 616973),
    ("put", "k3", 441663), ("overwrite", "k2", 473673),
    ("put", "k5", 302679), ("put", "k6", 126002),
    ("overwrite", "k2", 652032), ("overwrite", "k6", 497068),
    ("overwrite", "k5", 512030), ("put", "k10", 552954),
    ("put", "k11", 693394), ("delete", "k11", 0), ("put", "k13", 600898),
]


def test_a_mid_append_collection_spares_the_units_of_the_object_in_flight():
    store = LfsBackend(BlockDevice(scaled_disk(4 * MB)),
                       segment_size=256 * KB, clean_threshold=1.0)
    refused = []
    for op, key, size in IN_FLIGHT_OPS:
        try:
            if op == "delete":
                store.delete(key)
            else:
                getattr(store, op)(key, size=size)
        except StorageFullError:
            refused.append(key)
        store.check_invariants()
    assert refused == ["k13"] and not store.exists("k13")


def test_an_unreachable_low_water_mark_ends_the_pass(monkeypatch):
    """26 MB of 100-512 KB objects on a 32 MB log of 2 MB units: four
    free units (the default mark) would need more room than the live
    bytes leave, and moving an object that spans units leaves dead bytes
    elsewhere, so there is always another victim.  Each overwrite must
    return after a bounded number of collections (a pass takes about 30
    here) with the books intact."""
    collect_unit = SegmentLog._collect_unit
    runs = []

    def bounded(self, victim):
        runs[-1] += 1
        if runs[-1] > 1000:
            raise AssertionError("the collector does not stop")
        collect_unit(self, victim)

    monkeypatch.setattr(SegmentLog, "_collect_unit", bounded)
    rng = random.Random(0)
    store = LfsBackend(BlockDevice(scaled_disk(32 * MB)),
                       segment_size=2 * MB)
    live = 0
    runs.append(0)
    while live < 26 * MB:
        size = rng.randint(100 * KB, 512 * KB)
        store.put(f"k{len(store.keys())}", size=size)
        live += size
    keys = store.keys()
    for _ in range(10):
        runs.append(0)
        store.overwrite(rng.choice(keys), size=rng.randint(100 * KB,
                                                            512 * KB))
        store.check_invariants()
    assert max(runs[1:]) > store.nsegments
    assert len(store._free_segments) < 4


#: Puts and overwrites on the eight 32 KB units of the stateful run that
#: keep live bytes under half the volume.  The last overwrite leaves one
#: free unit, and the unit with the most dead bytes holds pieces of two
#: objects that need 42 624 bytes to copy whole, two more than the free
#: bytes; the pass copied one and was refused on the other.
NO_ROOM_OPS = [
    ("put", "k0", 14061), ("put", "k1", 15528), ("overwrite", "k0", 21084),
    ("put", "k3", 24576), ("overwrite", "k3", 17838), ("put", "k5", 18384),
    ("overwrite", "k0", 14814), ("put", "k7", 16860), ("put", "k8", 17499),
    ("put", "k9", 14061), ("overwrite", "k1", 23925),
    ("overwrite", "k1", 22518), ("overwrite", "k8", 14154),
    ("overwrite", "k0", 15501), ("overwrite", "k9", 14868),
    ("overwrite", "k0", 18771), ("overwrite", "k1", 13308),
    ("overwrite", "k1", 23748), ("overwrite", "k5", 13299),
    ("overwrite", "k0", 12939), ("overwrite", "k0", 14445),
    ("overwrite", "k0", 23238), ("overwrite", "k7", 18342),
    ("overwrite", "k7", 13746), ("overwrite", "k3", 12609),
    ("overwrite", "k3", 13164), ("overwrite", "k8", 17466),
    ("overwrite", "k7", 13017), ("overwrite", "k7", 17622),
    ("overwrite", "k1", 16605), ("overwrite", "k3", 21138),
    ("overwrite", "k1", 21786), ("overwrite", "k3", 18819),
    ("overwrite", "k1", 23805),
]


def test_a_collection_copies_only_what_the_free_bytes_can_take():
    store = LfsBackend(BlockDevice(scaled_disk(VOLUME)), segment_size=UNIT)
    for op, key, size in NO_ROOM_OPS:
        getattr(store, op)(key, size=size)
        store.check_invariants()
    assert store.meta("k1").size == 23805
