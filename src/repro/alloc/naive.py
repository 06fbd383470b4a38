"""Flat-list reference free-space index (the pre-tiered implementation).

:class:`NaiveFreeExtentIndex` is the original O(n)-per-mutation engine
kept verbatim as an executable specification.  It exists for two
reasons:

* **Parity testing** — ``tests/test_prop_freelist.py`` drives it and the
  tiered :class:`~repro.alloc.freelist.FreeExtentIndex` with identical
  operation sequences and asserts byte-identical free maps and
  placement-identical policy answers.
* **Ablation** — ``python benchmarks/paperfig.py --only ablation_index``
  ages Figure 3's filesystem curve under both engines
  (``FsConfig(index_kind="naive")``), checks that no sample moved and
  records the two host times side by side in
  ``benchmarks/BENCH_paper.json``; ``--index naive`` reruns any other
  figure on this engine.

Do not optimise this class; its value is that it is obviously correct.
Both classes expose the same public API and raise
:class:`~repro.errors.CorruptionError` under the same conditions.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterator

from repro.alloc.extent import Extent
from repro.errors import CorruptionError


class NaiveFreeExtentIndex:
    """Coalescing index of free extents over ``[0, capacity)``.

    Keeps two synchronized flat views — an address-ordered list of run
    starts and a size-ordered list of ``(length, start)`` pairs — paying
    O(n) ``list.insert``/``del`` per mutation and an O(n) sum for
    :attr:`total_free`.

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
        self._starts: list[int] = []
        self._len_by_start: dict[int, int] = {}
        self._by_size: list[tuple[int, int]] = []  # (length, start)
        if initially_free:
            self._insert(Extent(0, capacity))

    # ------------------------------------------------------------------
    # Internal bookkeeping (both views updated together)
    # ------------------------------------------------------------------
    def _insert(self, ext: Extent) -> None:
        idx = bisect.bisect_left(self._starts, ext.start)
        self._starts.insert(idx, ext.start)
        self._len_by_start[ext.start] = ext.length
        bisect.insort(self._by_size, (ext.length, ext.start))

    def _delete(self, start: int) -> Extent:
        length = self._len_by_start.pop(start)
        idx = bisect.bisect_left(self._starts, start)
        if idx >= len(self._starts) or self._starts[idx] != start:
            raise CorruptionError(f"free index views out of sync at {start}")
        del self._starts[idx]
        sidx = bisect.bisect_left(self._by_size, (length, start))
        if sidx >= len(self._by_size) or self._by_size[sidx] != (length, start):
            raise CorruptionError(f"size view out of sync at {start}")
        del self._by_size[sidx]
        return Extent(start, length)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, ext: Extent) -> None:
        """Return ``ext`` to the free pool, merging with free neighbours."""
        if ext.end > self.capacity:
            raise CorruptionError(f"{ext} extends past capacity {self.capacity}")
        idx = bisect.bisect_right(self._starts, ext.start)
        # Check overlap with predecessor and successor.
        if idx > 0:
            prev_start = self._starts[idx - 1]
            prev_end = prev_start + self._len_by_start[prev_start]
            if prev_end > ext.start:
                raise CorruptionError(
                    f"double free: {ext} overlaps free run at {prev_start}"
                )
        if idx < len(self._starts) and self._starts[idx] < ext.end:
            raise CorruptionError(
                f"double free: {ext} overlaps free run at {self._starts[idx]}"
            )
        merged = ext
        if idx > 0:
            prev_start = self._starts[idx - 1]
            if prev_start + self._len_by_start[prev_start] == ext.start:
                merged = self._delete(prev_start).merge(merged)
        idx = bisect.bisect_right(self._starts, merged.start)
        if idx < len(self._starts) and self._starts[idx] == merged.end:
            merged = merged.merge(self._delete(self._starts[idx]))
        self._insert(merged)

    def remove(self, ext: Extent) -> None:
        """Allocate the exact range ``ext``, which must be entirely free."""
        idx = bisect.bisect_right(self._starts, ext.start) - 1
        if idx < 0:
            raise CorruptionError(f"{ext} is not free")
        start = self._starts[idx]
        run = Extent(start, self._len_by_start[start])
        if not run.contains_extent(ext):
            raise CorruptionError(f"{ext} is not inside free run {run}")
        self._delete(start)
        if run.start < ext.start:
            self._insert(Extent(run.start, ext.start - run.start))
        if ext.end < run.end:
            self._insert(Extent(ext.end, run.end - ext.end))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def run_at(self, offset: int) -> Extent | None:
        """The free run containing ``offset``, or None when allocated."""
        idx = bisect.bisect_right(self._starts, offset) - 1
        if idx < 0:
            return None
        start = self._starts[idx]
        run = Extent(start, self._len_by_start[start])
        return run if run.contains(offset) else None

    def run_starting_at(self, offset: int) -> Extent | None:
        """The free run beginning exactly at ``offset`` (extension probe)."""
        length = self._len_by_start.get(offset)
        return Extent(offset, length) if length is not None else None

    def first_fit(self, size: int, *, min_start: int = 0,
                  max_start: int | None = None) -> Extent | None:
        """Lowest-address free run of at least ``size`` bytes.

        ``min_start``/``max_start`` bound the run's *start* offset, which
        is how the banded (outer-band-first) search is expressed.
        """
        idx = bisect.bisect_left(self._starts, min_start)
        if idx > 0:
            prev = self._starts[idx - 1]
            if prev + self._len_by_start[prev] > min_start:
                usable = prev + self._len_by_start[prev] - min_start
                if usable >= size:
                    return Extent(prev, self._len_by_start[prev])
        while idx < len(self._starts):
            start = self._starts[idx]
            if max_start is not None and start > max_start:
                return None
            if self._len_by_start[start] >= size:
                return Extent(start, self._len_by_start[start])
            idx += 1
        return None

    def best_fit(self, size: int) -> Extent | None:
        """Smallest free run of at least ``size`` bytes (lowest address ties)."""
        idx = bisect.bisect_left(self._by_size, (size, -1))
        if idx >= len(self._by_size):
            return None
        length, start = self._by_size[idx]
        return Extent(start, length)

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

    def largest(self) -> Extent | None:
        """The largest free run (highest address ties)."""
        if not self._by_size:
            return None
        length, start = self._by_size[-1]
        return Extent(start, length)

    def largest_runs(self, limit: int,
                     min_length: int = 1) -> list[tuple[int, int]]:
        """The ``limit`` largest runs as descending ``(length, start)``
        pairs, cut at the first one shorter than ``min_length``."""
        by_size = self._by_size
        lo = max(len(by_size) - limit,
                 bisect.bisect_left(by_size, (min_length,)))
        return by_size[lo:][::-1]

    def runs_by_size_desc(self) -> Iterator[Extent]:
        """Free runs from largest to smallest (NTFS run-cache order)."""
        for length, start in reversed(self._by_size):
            yield Extent(start, length)

    def __iter__(self) -> Iterator[Extent]:
        """Free runs in address order."""
        for start in self._starts:
            yield Extent(start, self._len_by_start[start])

    def __len__(self) -> int:
        return len(self._starts)

    @property
    def total_free(self) -> int:
        # Address order, matching __iter__: the reduction order is part
        # of the bit-exactness contract (int sum, so also order-proof).
        return sum(self._len_by_start[start] for start in self._starts)

    def check_invariants(self) -> None:
        """Verify the two views agree and runs are disjoint and coalesced.

        Used by property tests; O(n log n).
        """
        if len(self._starts) != len(self._len_by_start) or \
                len(self._starts) != len(self._by_size):
            raise CorruptionError("view sizes disagree")
        if self._starts != sorted(self._starts):
            raise CorruptionError("address view is unsorted")
        prev_end: int | None = None
        for start in self._starts:
            length = self._len_by_start[start]
            if length <= 0:
                raise CorruptionError(f"non-positive run at {start}")
            if prev_end is not None and start <= prev_end:
                detail = "overlapping" if start < prev_end else "uncoalesced"
                raise CorruptionError(f"{detail} runs at {start}")
            if start + length > self.capacity:
                raise CorruptionError("run extends past capacity")
            prev_end = start + length
        expected = sorted(
            (length, start) for start, length in self._len_by_start.items()
        )
        if expected != self._by_size:
            raise CorruptionError("size view disagrees with address view")
