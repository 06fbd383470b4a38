"""Tiered O(log n) free-space index with coalescing.

:class:`FreeExtentIndex` is the "bitmap" of the simulation: the single
source of truth about which byte ranges of a volume are free.  Every
experiment — bulk load, safe-write churn, fragmentation aging — funnels
through it, so it is engineered as a tiered engine rather than the flat
sorted lists of the original implementation (kept test-side as the
oracle ``tests/freeindexoracle.py``).  Both tiers are instances of the
shared :class:`~repro.struct.blockedlist.BlockedList` primitive —
see its module docstring for the block-size bounds, split/merge rules,
and the augmentation contract:

* **Address tier** — a :class:`BlockedList` of run starts, augmented
  per block with the **max run length** (and the count of runs
  attaining it) via :class:`MaxWeightAugmentation`.  Insert/delete/
  predecessor cost O(log n) directory search plus an O(load) in-block
  ``memmove``, instead of the flat list's O(n), and ``first_fit``/
  ``next_fit`` (including the ``min_start``/``max_start`` banded
  queries) use the augmentation to skip whole blocks that cannot
  satisfy a request instead of scanning run by run.  Summaries are
  lazy: carving a block's largest run only marks its entry stale, and
  ``first_fit`` rescans a stale block the first time it looks at it.
* **Size tier** — power-of-two buckets (bucket *b* holds runs whose
  length has ``bit_length() == b``), each an unaugmented
  :class:`BlockedList` of ``(length, start)`` pairs, so a skewed
  workload landing every run in one bucket still pays only O(load)
  per mutation.  ``best_fit`` bisects one bucket and falls through to
  the next non-empty one; ``worst_fit``/``largest`` read the tail of
  the highest non-empty bucket; ``largest_runs`` (the run cache's
  view) slices the tail blocks of the top buckets and
  ``runs_by_size_desc`` streams the same walk to the bottom — all
  without maintaining one global O(n) sorted list.
* **Incremental accounting** — :attr:`total_free`, the run count, and
  the largest run are maintained under mutation, so reading them is
  O(1) (the largest-run probe scans at most ``capacity.bit_length()``
  bucket heads, a constant for any fixed volume).

Complexity of the public methods, with n free runs: ``add`` /
``remove`` are O(log n + load) — carves and merges that only move a
run boundary take the in-place :meth:`BlockedList.replace` fast path
in the address tier and one :meth:`BlockedList.move` in the size tier
when the run keeps its bucket, so each tier is searched once; only a
mid-run carve pays a delete plus two inserts.  ``carve_front``
(every allocator's carve: the caller holds the run's start) is
``remove`` of the run's front without the predecessor search, so it
never pays the mid-run path.  ``run_at`` / ``best_fit`` /
``worst_fit`` / ``largest`` are O(log n); ``largest_runs(k)`` is
O(log load + k), one slice per block it reads; ``first_fit`` /
``next_fit`` are O(log n) plus one scanned block per directory block
whose max-run augmentation passes the size filter or is stale (one
rescan, then cached).  ``run_length_at``, ``total_free`` and
``__len__`` are O(1).

The public API and error semantics are identical to the flat-list
oracle's: :class:`~repro.errors.CorruptionError` on double frees or
overlapping inserts rather than repairing them, because an overlap
means the caller's accounting diverged.  ``tests/test_prop_freelist.py``
holds the two engines to placement-identical answers under random
operation sequences and whole filesystem runs.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterator

from repro.alloc.extent import Extent
from repro.errors import CorruptionError
from repro.struct.blockedlist import (
    DEFAULT_LOAD, BlockedList, MaxWeightAugmentation,
)

#: Target block size of both tiers; see
#: :data:`repro.struct.blockedlist.DEFAULT_LOAD` for the trade-off.
_LOAD = DEFAULT_LOAD


class FreeExtentIndex:
    """Coalescing index of free extents over ``[0, capacity)``.

    Parameters
    ----------
    capacity:
        Volume size; inserts beyond it are rejected.
    initially_free:
        When true the whole volume starts as one free run.
    """

    def __init__(self, capacity: int, *, initially_free: bool = True) -> None:
        if capacity <= 0:
            raise CorruptionError("capacity must be positive")
        self.capacity = capacity
        #: run start -> run length (the O(1) length authority).
        self._len_by_start: dict[int, int] = {}
        # Address tier: run starts, augmented with the max run length
        # per block.  Rescans pull lengths straight from the dict, so
        # every mutation updates _len_by_start before the tier.
        self._addr = BlockedList(
            load=_LOAD,
            augment=MaxWeightAugmentation(self._len_by_start.__getitem__),
        )
        # Size tier: bucket b holds (length, start) pairs, sorted, for
        # runs with length.bit_length() == b.
        self._buckets: list[BlockedList] = [
            BlockedList(load=_LOAD) for _ in range(capacity.bit_length() + 1)
        ]
        #: High-watermark bucket hint: no bucket above it is non-empty.
        #: Raised eagerly on insert, lowered lazily by :meth:`largest`.
        self._btop = 0
        self._total_free = 0
        if initially_free:
            self._insert(0, capacity)

    # ------------------------------------------------------------------
    # Internal bookkeeping (all tiers updated together, each once)
    # ------------------------------------------------------------------
    def _insert(self, start: int, length: int) -> None:
        self._len_by_start[start] = length
        self._addr.insert(start, weight=length)
        b = length.bit_length()
        if b > self._btop:
            self._btop = b
        self._buckets[b].insert((length, start))
        self._total_free += length

    def _delete(self, start: int) -> int:
        length = self._len_by_start.pop(start)
        if not self._addr.remove(start, weight=length):
            raise CorruptionError(f"free index views out of sync at {start}")
        if not self._buckets[length.bit_length()].remove((length, start)):
            raise CorruptionError(f"size view out of sync at {start}")
        self._total_free -= length
        return length

    def _resize(self, old_start: int, new_start: int, new_len: int) -> None:
        """Move one run's boundary in place (carve/merge fast path).

        The caller guarantees the replacement preserves address order
        (carves and merges only move a boundary between two existing
        neighbours), which is what lets the address tier rewrite the
        entry without a memmove.  A run that keeps its size bucket
        moves inside it with one :meth:`BlockedList.move`.
        """
        lens = self._len_by_start
        old_len = lens.pop(old_start)
        lens[new_start] = new_len
        self._addr.replace(old_start, new_start,
                           old_weight=old_len, new_weight=new_len)
        old_b, new_b = old_len.bit_length(), new_len.bit_length()
        buckets = self._buckets
        if old_b == new_b:
            buckets[old_b].move((old_len, old_start), (new_len, new_start))
        else:
            if not buckets[old_b].remove((old_len, old_start)):
                raise CorruptionError(f"size view out of sync at {old_start}")
            if new_b > self._btop:
                self._btop = new_b
            buckets[new_b].insert((new_len, new_start))
        self._total_free += new_len - old_len

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, ext: Extent) -> None:
        """Return ``ext`` to the free pool, merging with free neighbours.

        Merges are in-place boundary moves: absorbing ``ext`` into a
        neighbour rewrites that neighbour's directory entry instead of
        deleting and reinserting it.
        """
        start, end = ext.start, ext.end
        if end > self.capacity:
            raise CorruptionError(f"{ext} extends past capacity {self.capacity}")
        lens = self._len_by_start
        pred, succ = self._addr.neighbours(start)
        if pred is not None and pred + lens[pred] > start:
            raise CorruptionError(
                f"double free: {ext} overlaps free run at {pred}"
            )
        if succ is not None and succ < end:
            raise CorruptionError(
                f"double free: {ext} overlaps free run at {succ}"
            )
        merge_left = pred is not None and pred + lens[pred] == start
        succ_len = lens.get(end)
        if merge_left and succ_len is not None:
            # Bridge: pred absorbs ext and the successor run.
            self._delete(end)
            self._resize(pred, pred, end + succ_len - pred)
        elif merge_left:
            self._resize(pred, pred, end - pred)
        elif succ_len is not None:
            # Successor's start slides left over ext.
            self._resize(end, start, end + succ_len - start)
        else:
            self._insert(start, end - start)

    def remove(self, ext: Extent) -> None:
        """Allocate the exact range ``ext``, which must be entirely free.

        Front and tail carves (every policy allocation carves a run's
        front) are in-place boundary moves; only a mid-run carve pays a
        delete plus two inserts.
        """
        estart, eend = ext.start, ext.end
        lens = self._len_by_start
        rstart = self._addr.pred_le(estart)
        if rstart is None:
            raise CorruptionError(f"{ext} is not free")
        rlen = lens[rstart]
        rend = rstart + rlen
        if estart < rstart or eend > rend:
            raise CorruptionError(
                f"{ext} is not inside free run {Extent(rstart, rlen)}"
            )
        if rstart < estart:
            if eend < rend:
                self._delete(rstart)
                self._insert(rstart, estart - rstart)
                self._insert(eend, rend - eend)
            else:
                self._resize(rstart, rstart, estart - rstart)
        elif eend < rend:
            self._resize(rstart, eend, rend - eend)
        else:
            self._delete(rstart)

    def carve_front(self, start: int, nbytes: int) -> Extent:
        """Allocate and return the first ``nbytes`` of the free run that
        begins at ``start``: the mutations of ``remove(Extent(start,
        nbytes))`` without its predecessor search."""
        taken = Extent(start, nbytes)
        rlen = self._len_by_start.get(start, 0)
        if nbytes > rlen:
            raise CorruptionError(f"{taken} is not the front of a free run")
        if nbytes < rlen:
            self._resize(start, start + nbytes, rlen - nbytes)
        else:
            self._delete(start)
        return taken

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def run_at(self, offset: int) -> Extent | None:
        """The free run containing ``offset``, or None when allocated."""
        start = self._addr.pred_le(offset)
        if start is None:
            return None
        run = Extent(start, self._len_by_start[start])
        return run if offset < run.end else None

    def run_length_at(self, offset: int) -> int:
        """Length of the free run beginning exactly at ``offset``, 0 when
        none begins there (the extension probe)."""
        return self._len_by_start.get(offset, 0)

    def first_fit(self, size: int, *, min_start: int = 0,
                  max_start: int | None = None) -> Extent | None:
        """Lowest-address free run of at least ``size`` bytes.

        ``min_start``/``max_start`` bound the run's *start* offset, which
        is how the banded (outer-band-first) search is expressed.  A run
        straddling ``min_start`` qualifies when its tail past
        ``min_start`` still fits the request.  The search descends the
        block directory using the per-block max-run-length augmentation,
        so blocks with no fitting run are skipped without touching them.
        """
        lens = self._len_by_start
        pred = self._addr.pred_lt(min_start)
        if pred is not None:
            pred_end = pred + lens[pred]
            if pred_end > min_start and pred_end - min_start >= size:
                return Extent(pred, lens[pred])
        mins = self._addr.mins
        blocks = self._addr.blocks
        sums = self._addr.sums
        summary = self._addr.summary
        nb = len(blocks)
        bi = bisect.bisect_right(mins, min_start) - 1
        if bi < 0:
            bi, pos = 0, 0
        else:
            pos = bisect.bisect_left(blocks[bi], min_start)
            if pos >= len(blocks[bi]):
                bi, pos = bi + 1, 0
        for b in range(bi, nb):
            block = blocks[b]
            lo = pos if b == bi else 0
            if max_start is not None and block[lo] > max_start:
                return None
            # Fresh entries are read in place (a call per skipped block
            # doubles a whole-directory miss); summary() heals stale ones.
            if (sums[b] or summary(b))[0] < size:
                continue
            for i in range(lo, len(block)):
                s = block[i]
                if max_start is not None and s > max_start:
                    return None
                length = lens[s]
                if length >= size:
                    return Extent(s, length)
        return None

    def best_fit(self, size: int) -> Extent | None:
        """Smallest free run of at least ``size`` bytes (lowest address ties)."""
        buckets = self._buckets
        # A negative size's bit_length() is its magnitude's: every run
        # fits it, so start from the bottom bucket.
        b0 = size.bit_length() if size > 0 else 0
        if b0 >= len(buckets):
            return None
        pair = buckets[b0].first_ge((size, -1))
        if pair is not None:
            return Extent(pair[1], pair[0])
        for b in range(b0 + 1, len(buckets)):
            bucket = buckets[b]
            if bucket:
                length, start = bucket.first()
                return Extent(start, length)
        return None

    def worst_fit(self, size: int) -> Extent | None:
        """Largest free run, provided it holds at least ``size`` bytes."""
        largest = self.largest()
        if largest is None or largest.length < size:
            return None
        return largest

    def next_fit(self, size: int, cursor: int) -> Extent | None:
        """First fit starting at ``cursor``, wrapping once past the end."""
        found = self.first_fit(size, min_start=cursor)
        if found is not None:
            return found
        return self.first_fit(size, max_start=cursor)

    def _top_bucket(self) -> int:
        """Lower ``_btop`` to the highest non-empty bucket and return it
        (bucket 0 holds no run: it is the answer for an empty index)."""
        buckets = self._buckets
        b = self._btop
        while b > 0 and not buckets[b]:
            b -= 1
        self._btop = b
        return b

    def largest(self) -> Extent | None:
        """The largest free run (highest address ties)."""
        bucket = self._buckets[self._top_bucket()]
        if not bucket:
            return None
        length, start = bucket.last()
        return Extent(start, length)

    def largest_runs(self, limit: int,
                     min_length: int = 1) -> list[tuple[int, int]]:
        """The ``limit`` largest runs as descending ``(length, start)``
        pairs, cut at the first one shorter than ``min_length``."""
        out: list[tuple[int, int]] = []
        floor = (min_length,)
        buckets = self._buckets
        for b in range(self._top_bucket(), -1, -1):
            for block in reversed(buckets[b].blocks):
                lo = max(len(block) - limit + len(out), 0)
                if lo or block[0] < floor:
                    # The limit or min_length cuts this block, the last
                    # one read: keep block[cut:], largest first.
                    cut = bisect.bisect_left(block, floor, lo)
                    out += block[:cut - 1:-1]
                    return out
                out += block[::-1]
        return out

    def runs_by_size_desc(self) -> Iterator[Extent]:
        """Free runs from largest to smallest (NTFS run-cache order)."""
        buckets = self._buckets
        for b in range(self._top_bucket(), -1, -1):
            for block in reversed(buckets[b].blocks):
                for length, start in reversed(block):
                    yield Extent(start, length)

    def __iter__(self) -> Iterator[Extent]:
        """Free runs in address order."""
        lens = self._len_by_start
        for start in self._addr:
            yield Extent(start, lens[start])

    def __len__(self) -> int:
        return len(self._len_by_start)

    @property
    def total_free(self) -> int:
        """Free bytes, maintained incrementally — an O(1) attribute read."""
        return self._total_free

    def check_invariants(self) -> None:
        """Verify all tiers agree and runs are disjoint and coalesced.

        Used by property tests; O(n log n).
        """
        lens = self._len_by_start
        self._addr.check("address tier")
        starts = list(self._addr)
        if len(starts) != len(lens):
            raise CorruptionError("view sizes disagree")
        prev_end: int | None = None
        total = 0
        for start in starts:
            length = lens.get(start)
            if length is None:
                raise CorruptionError(f"address view has unknown run {start}")
            if length <= 0:
                raise CorruptionError(f"non-positive run at {start}")
            if prev_end is not None and start <= prev_end:
                detail = "overlapping" if start < prev_end else "uncoalesced"
                raise CorruptionError(f"{detail} runs at {start}")
            if start + length > self.capacity:
                raise CorruptionError("run extends past capacity")
            prev_end = start + length
            total += length
        if total != self._total_free:
            raise CorruptionError(
                f"total_free accounting drifted: {self._total_free} != {total}"
            )
        by_size: list[tuple[int, int]] = []
        for b, bucket in enumerate(self._buckets):
            bucket.check(f"size bucket {b}")
            for length, start in bucket:
                if length.bit_length() != b:
                    raise CorruptionError(
                        f"run ({length}, {start}) filed in bucket {b}"
                    )
                by_size.append((length, start))
        expected = sorted((length, start) for start, length in lens.items())
        if by_size != expected:
            raise CorruptionError("size view disagrees with address view")
        for b in range(self._btop + 1, len(self._buckets)):
            if self._buckets[b]:
                raise CorruptionError(f"bucket {b} above the top-bucket hint")
