"""Property-based tests for the free-extent index.

Invariant under any operation sequence: the index plus the allocated
set partitions the volume — no byte is lost, duplicated, or handed out
twice — and the internal tiers stay synchronized.

The parity suite additionally drives the tiered engine and the naive
flat-list oracle (:class:`NaiveFreeExtentIndex`, test-side in
``freeindexoracle.py``) with identical operation sequences and asserts
byte-identical free maps and placement-identical policy answers —
including the banded ``first_fit`` edge cases where a free run
straddles ``min_start``, and the ``largest_runs`` slice the run cache
allocates from.  Two whole runs hold the same parity end to end, with
the oracle substituted for the filesystem's engine: Figure 3's
filesystem curve, and a delete/rewrite churn loop over small files.
"""

import random
from itertools import islice
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from freeindexoracle import NaiveFreeExtentIndex
from repro.alloc import freelist
from repro.alloc.extent import Extent
from repro.alloc.freelist import FreeExtentIndex
from repro.backends.spec import StoreSpec
from repro.core.experiment import ExperimentConfig, run_experiment
from repro.core.workload import ConstantSize
from repro.disk.device import BlockDevice
from repro.disk.geometry import scaled_disk
from repro.fs import filesystem
from repro.units import KB, MB

CAPACITY = 4096


@st.composite
def operation_lists(draw):
    return draw(st.lists(
        st.tuples(
            st.sampled_from(["alloc_first", "alloc_best", "alloc_worst",
                             "free_random"]),
            st.integers(min_value=1, max_value=256),
        ),
        max_size=60,
    ))


@given(operation_lists())
@settings(max_examples=120, deadline=None)
def test_conservation_under_any_sequence(ops):
    index = FreeExtentIndex(CAPACITY)
    allocated: list[Extent] = []
    for op, size in ops:
        if op == "free_random":
            if allocated:
                index.add(allocated.pop(size % len(allocated)))
        else:
            query = {
                "alloc_first": index.first_fit,
                "alloc_best": index.best_fit,
                "alloc_worst": index.worst_fit,
            }[op]
            run = query(size)
            if run is None:
                continue
            taken, _ = run.take_front(size)
            index.remove(taken)
            allocated.append(taken)
        index.check_invariants()
    assert index.total_free + sum(e.length for e in allocated) == CAPACITY
    # Allocated extents never overlap each other.
    ordered = sorted(allocated, key=lambda e: e.start)
    for a, b in zip(ordered, ordered[1:]):
        assert a.end <= b.start


@given(st.lists(st.integers(min_value=0, max_value=CAPACITY - 1),
                min_size=1, max_size=64, unique=True))
@settings(max_examples=100, deadline=None)
def test_free_everything_coalesces_to_one_run(starts):
    """Allocating arbitrary single bytes and freeing them all must end
    with exactly one maximal free run."""
    index = FreeExtentIndex(CAPACITY)
    taken = []
    for start in starts:
        ext = Extent(start, 1)
        index.remove(ext)
        taken.append(ext)
    for ext in taken:
        index.add(ext)
    assert list(index) == [Extent(0, CAPACITY)]


class FreeListMachine(RuleBasedStateMachine):
    """Stateful exploration of interleaved queries and mutations."""

    def __init__(self):
        super().__init__()
        self.index = FreeExtentIndex(CAPACITY)
        self.allocated: list[Extent] = []

    @rule(size=st.integers(min_value=1, max_value=512))
    def alloc_first_fit(self, size):
        run = self.index.first_fit(size)
        if run is not None:
            taken, _ = run.take_front(size)
            self.index.remove(taken)
            self.allocated.append(taken)

    @rule(size=st.integers(min_value=1, max_value=512))
    def alloc_best_fit(self, size):
        run = self.index.best_fit(size)
        if run is not None:
            taken, _ = run.take_front(size)
            self.index.remove(taken)
            self.allocated.append(taken)

    @rule(pick=st.integers(min_value=0, max_value=10**6))
    def free_one(self, pick):
        if self.allocated:
            self.index.add(self.allocated.pop(pick % len(self.allocated)))

    @invariant()
    def views_consistent(self):
        self.index.check_invariants()

    @invariant()
    def bytes_conserved(self):
        total = self.index.total_free + \
            sum(e.length for e in self.allocated)
        assert total == CAPACITY


TestFreeListMachine = FreeListMachine.TestCase
TestFreeListMachine.settings = settings(max_examples=40, deadline=None,
                                        stateful_step_count=40)


# ----------------------------------------------------------------------
# Parity: tiered engine vs the naive flat-list reference model
# ----------------------------------------------------------------------

@st.composite
def parity_ops(draw):
    op = st.one_of(
        st.tuples(st.sampled_from(["first", "best", "worst"]),
                  st.integers(min_value=1, max_value=CAPACITY)),
        st.tuples(st.just("next"),
                  st.integers(min_value=1, max_value=512),
                  st.integers(min_value=0, max_value=CAPACITY)),
        st.tuples(st.just("banded"),
                  st.integers(min_value=1, max_value=512),
                  st.integers(min_value=0, max_value=CAPACITY - 1),
                  st.integers(min_value=0, max_value=CAPACITY)),
        st.tuples(st.just("free"),
                  st.integers(min_value=0, max_value=10**6)),
    )
    return draw(st.lists(op, max_size=80))


def _query(index, op):
    """Run one drawn query op against one index; None when it is a miss."""
    kind = op[0]
    if kind == "first":
        return index.first_fit(op[1])
    if kind == "best":
        return index.best_fit(op[1])
    if kind == "worst":
        return index.worst_fit(op[1])
    if kind == "next":
        return index.next_fit(op[1], op[2])
    # banded: max_start is drawn independently and may sit below
    # min_start, which must be a miss in both engines.
    return index.first_fit(op[1], min_start=op[2], max_start=op[3])


@given(parity_ops())
@settings(max_examples=150, deadline=None)
def test_tiered_matches_naive_reference(ops):
    """Identical op sequences must yield identical free maps and answers."""
    tiered = FreeExtentIndex(CAPACITY)
    naive = NaiveFreeExtentIndex(CAPACITY)
    allocated: list[Extent] = []
    for op in ops:
        if op[0] == "free":
            if allocated:
                ext = allocated.pop(op[1] % len(allocated))
                tiered.add(ext)
                naive.add(ext)
        else:
            run_t = _query(tiered, op)
            run_n = _query(naive, op)
            assert run_t == run_n, f"{op}: {run_t} != {run_n}"
            if run_t is not None and op[0] != "banded":
                size = op[1]
                taken, _ = run_t.take_front(size)
                tiered.remove(taken)
                naive.remove(taken)
                allocated.append(taken)
        assert tiered.total_free == naive.total_free
        assert list(tiered) == list(naive)
    tiered.check_invariants()
    naive.check_invariants()
    assert tiered.largest() == naive.largest()
    assert list(tiered.runs_by_size_desc()) == list(naive.runs_by_size_desc())


def _on_the_oracle(monkeypatch, run):
    """``run()`` on the production engine, then again with the oracle
    substituted for the filesystem's engine: the two answers."""
    production = run()
    monkeypatch.setattr(filesystem, "FreeExtentIndex", NaiveFreeExtentIndex)
    return production, run()


def test_figure3_filesystem_curve_is_engine_independent(monkeypatch):
    """Figure 3's filesystem curve (97 % full, 256 KB objects in 64 KB
    requests: the longest free lists any figure builds) samples the
    same numbers on either engine."""
    config = ExperimentConfig(
        store=StoreSpec("filesystem", volume_bytes=512 * MB),
        sizes=ConstantSize(256 * KB), occupancy=0.97,
        ages=(0.0, 1.0, 2.0), reads_per_sample=16, seed=7)
    tiered, naive = _on_the_oracle(
        monkeypatch, lambda: run_experiment(config).samples)
    assert len(tiered) == 3
    assert tiered == naive


def test_small_file_churn_is_engine_independent(monkeypatch):
    """Bulk load 64 KB files (16 KB requests) to half of a 128 MB
    volume, then delete and rewrite 400 random ones: the file count,
    free-run count and modelled device clock agree on either engine."""
    def churn():
        device = BlockDevice(scaled_disk(128 * MB))
        fs = filesystem.SimFilesystem(device)
        rng = random.Random(7)
        names: list[str] = []

        def write_file(name: str) -> None:
            fs.create(name)
            fs.append(name, 64 * KB, write_request=16 * KB)

        while fs.used_bytes < int(fs.data_capacity * 0.5):
            names.append(f"f{len(names)}")
            write_file(names[-1])
        for op in range(400):
            victim = rng.randrange(len(names))
            fs.delete(names[victim])
            names[victim] = f"f{len(names) + op}"
            write_file(names[victim])
        fs.check_invariants()
        return {"files": len(names), "free_runs": len(fs.free_index),
                "modelled_device_s": round(device.clock_s, 4),
                "clock_s": device.clock_s, "engine": type(fs.free_index)}

    tiered, naive = _on_the_oracle(monkeypatch, churn)
    assert (tiered.pop("engine"), naive.pop("engine")) \
        == (FreeExtentIndex, NaiveFreeExtentIndex)
    # The 128 MB row the retired ``fs_churn`` figure committed.
    assert (tiered["files"], tiered["free_runs"],
            tiered["modelled_device_s"]) == (944, 535, 46.118)
    assert tiered == naive


@given(
    st.lists(st.tuples(st.booleans(),
                       st.integers(min_value=0, max_value=CAPACITY - 1),
                       st.integers(min_value=1, max_value=96)),
             max_size=120),
    st.lists(st.tuples(st.integers(min_value=0, max_value=70),
                       st.integers(min_value=1, max_value=128)),
             min_size=1, max_size=6),
    st.sampled_from([2, 3, 256]),
)
@settings(max_examples=150, deadline=None)
def test_largest_runs_parity(ops, probes, load):
    """``largest_runs(k, m)`` is the first ``k`` of ``runs_by_size_desc``
    cut at the first run shorter than ``m`` — in both engines, probed
    after every mutation, with size-tier blocks small enough to split."""
    with mock.patch.object(freelist, "_LOAD", load):
        tiered = FreeExtentIndex(CAPACITY, initially_free=False)
    naive = NaiveFreeExtentIndex(CAPACITY, initially_free=False)
    free = bytearray(CAPACITY)
    for adding, start, length in ops:
        # Clip the drawn range to a maximal all-free / all-allocated
        # stretch so every op is legal.
        end = min(start + length, CAPACITY)
        want = 0 if adding else 1
        stop = start
        while stop < end and free[stop] == want:
            stop += 1
        if stop == start:
            continue
        ext = Extent(start, stop - start)
        free[start:stop] = bytes([1 - want]) * (stop - start)
        for index in (tiered, naive):
            (index.add if adding else index.remove)(ext)
        for limit, min_length in probes:
            expected = [
                (run.length, run.start)
                for run in islice(naive.runs_by_size_desc(), limit)
                if run.length >= min_length
            ]
            assert tiered.largest_runs(limit, min_length) == expected
            assert naive.largest_runs(limit, min_length) == expected
    tiered.check_invariants()
    assert list(tiered.runs_by_size_desc()) == list(naive.runs_by_size_desc())


def test_banded_first_fit_straddle_parity():
    """Exhaustive banded grid around runs straddling min_start.

    The free map [8,24) [32,40) [48,64) is probed with every
    (size, min_start, max_start) combination, so min_start lands before,
    inside, and exactly on run boundaries — the straddle cases where the
    usable tail, not the full run, must satisfy the request.
    """
    cap = 64
    tiered = FreeExtentIndex(cap)
    naive = NaiveFreeExtentIndex(cap)
    for ext in (Extent(0, 8), Extent(24, 8), Extent(40, 8)):
        tiered.remove(ext)
        naive.remove(ext)
    assert list(tiered) == list(naive)
    for size in range(1, 20):
        for min_start in range(cap):
            for max_start in (None, *range(0, cap + 1, 4)):
                got = tiered.first_fit(size, min_start=min_start,
                                       max_start=max_start)
                want = naive.first_fit(size, min_start=min_start,
                                       max_start=max_start)
                assert got == want, (
                    f"first_fit({size}, min_start={min_start}, "
                    f"max_start={max_start}): {got} != {want}"
                )


def test_parity_across_block_splits():
    """Parity must hold past the address tier's block-split threshold."""
    cap = 1 << 22
    tiered = FreeExtentIndex(cap, initially_free=False)
    naive = NaiveFreeExtentIndex(cap, initially_free=False)
    # 1500 isolated runs forces at least two block splits (_LOAD = 256).
    for i in range(1500):
        ext = Extent(i * 2048, 1 + (i * 7919) % 512)
        tiered.add(ext)
        naive.add(ext)
    tiered.check_invariants()
    assert list(tiered) == list(naive)
    assert tiered.total_free == naive.total_free
    for size in (1, 64, 200, 511, 512, 513):
        assert tiered.first_fit(size) == naive.first_fit(size)
        assert tiered.best_fit(size) == naive.best_fit(size)
        assert tiered.worst_fit(size) == naive.worst_fit(size)
        mid = cap // 2
        assert tiered.first_fit(size, min_start=mid) == \
            naive.first_fit(size, min_start=mid)
        # Banded across block boundaries: windows that land mid-block,
        # span blocks, and cut off before any fitting run.
        for lo, hi in ((0, 100 * 2048), (400 * 2048, 800 * 2048),
                       (mid, mid + 64 * 2048), (mid, mid)):
            assert tiered.first_fit(size, min_start=lo, max_start=hi) == \
                naive.first_fit(size, min_start=lo, max_start=hi)
    # Tear down every other run to exercise deletes, block shrink, and
    # stale-max recomputation, then re-check parity.
    for i in range(0, 1500, 2):
        ext = Extent(i * 2048, 1 + (i * 7919) % 512)
        tiered.remove(ext)
        naive.remove(ext)
    tiered.check_invariants()
    assert list(tiered) == list(naive)
    assert list(tiered.runs_by_size_desc()) == list(naive.runs_by_size_desc())
