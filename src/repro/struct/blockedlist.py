"""Blocked two-level sorted list with pluggable per-block augmentation.

This is the one ordered-collection primitive behind the repo's hot
indexes: the free-space engine's address tier (augmented with the max
run length per block), its power-of-two size buckets, and the block
device's sparse segment store.  Before extraction each of those
hand-rolled the same machinery; they now share :class:`BlockedList`.

Layout
------
Keys live in a list of **blocks** (each a sorted Python list) plus a
parallel **directory** of block minima.  A lookup bisects the
directory, then bisects one block; a mutation pays the directory
bisect plus an O(block) ``memmove`` inside one block.  With blocks
bounded by the load factor this makes every operation
O(log n + load) ≈ O(√n) worst case instead of the flat list's O(n)
memmove — the difference between 10^3 and 10^6 keys being practical.

Invariants (checked by :meth:`BlockedList.check`)
-------------------------------------------------
* Every block is non-empty and sorted; concatenating blocks in
  directory order yields the sorted key sequence.
* ``mins[i] == blocks[i][0]`` for every block.
* Block size stays in ``[1, 2 * load)``: a block reaching
  ``2 * load`` keys splits in half (directory insert, O(#blocks));
  a block emptied by removal is deleted.  Blocks are never rebalanced
  by merging — adjacent small blocks are allowed, matching the
  original freelist behaviour exactly (parity tests depend on it).
* When augmented, ``sums[i]`` is either ``None`` (stale) or equal to
  ``augment.summarize(blocks[i])``.

Augmentation contract
---------------------
An augmentation maintains one summary value per block, incrementally
where possible and **lazily** where not:

* ``summarize(block)`` — full O(block) recompute.
* ``add(summary, weight)`` — summary after a key of ``weight`` joins
  the block (must always succeed).
* ``discard(summary, weight)`` — summary after a key of ``weight``
  leaves, or ``None`` when only a rescan can tell.

A mutation that cannot update a summary in O(1) (``discard`` returned
``None``, or the block split) stores ``None`` in ``sums[i]`` and moves
on; a stale entry stays stale until :meth:`BlockedList.summary`
rescans and caches it — so a workload that never reads summaries (the
run-cache allocator) never pays for them.
Pickling refreshes every entry first: the pickled bytes depend on the
keys and weights alone, never on which summaries were read.

Weights are supplied by the caller on every mutation (so the caller
can mutate its weight source first), while rescans pull weights
through the augmentation's own ``weight(key)`` callable — the source
must agree with the list whenever a summary is read or it is pickled.
:class:`MaxWeightAugmentation` tracks ``(max weight, count attaining
it)``, which is what lets the free-space index's ``first_fit`` skip
whole blocks that cannot satisfy a request.

Complexity of the public methods (n keys, b = #blocks ≈ n / load)
-----------------------------------------------------------------
``insert`` / ``remove`` / ``replace``: O(log n + load), plus O(b) on
the rare split or block deletion.  ``summary``: O(1), or one O(block)
rescan when the entry is stale.  ``pred_le`` / ``pred_lt`` /
``succ_gt`` / ``first_ge``: O(log n).  ``first`` / ``last`` /
``__len__``: O(1).  Iteration: O(n); ``iter_from``: O(log n) to seek
plus O(1) per key yielded.  Mutating the list during iteration is
undefined.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections.abc import Callable, Iterator
from typing import Any, cast

from repro.errors import CorruptionError

#: Default target block size.  Blocks split when they reach twice
#: this.  Trades the O(load) in-block memmove per mutation against the
#: O(n / load) directory; ~256 is near the optimum across 10^3..10^6
#: keys (measured by ``benchmarks/bench_alloc_micro.py``).
DEFAULT_LOAD = 256


class MaxWeightAugmentation:
    """Per-block ``(max weight, count attaining it)`` summary.

    The count lets a removal decrement instead of rescanning when
    several keys tie for the maximum; only removing the last maximal
    key leaves the summary stale until someone reads it.  Weights must
    be positive so the empty summary ``(0, 0)`` never collides with a
    real one.
    """

    __slots__ = ("weight",)

    def __init__(self, weight: Callable[[Any], int]) -> None:
        #: Maps a key to its current weight; used only by rescans.
        self.weight = weight

    def summarize(self, block: list[Any]) -> tuple[int, int]:
        weights = list(map(self.weight, block))
        mx = max(weights, default=0)
        return mx, weights.count(mx)

    def add(self, summary: tuple[int, int], weight: int) -> tuple[int, int]:
        mx, cnt = summary
        if weight > mx:
            return weight, 1
        if weight == mx:
            return mx, cnt + 1
        return summary

    def discard(self, summary: tuple[int, int],
                weight: int) -> tuple[int, int] | None:
        mx, cnt = summary
        if weight == mx:
            if cnt == 1:
                return None
            return mx, cnt - 1
        return summary


class BlockedList:
    """Sorted collection of unique, mutually comparable keys.

    ``blocks`` and ``mins`` are exposed read-only so callers can run
    pruned scans over the directory (the free-space index's
    ``first_fit`` skips blocks whose max-weight :meth:`summary` cannot
    satisfy a request).  ``sums`` may hold stale ``None`` entries,
    which only :meth:`summary` resolves.  Mutate only through the
    methods.
    """

    __slots__ = ("load", "blocks", "mins", "sums", "augment", "_n")

    def __init__(self, *, load: int = DEFAULT_LOAD,
                 augment: MaxWeightAugmentation | None = None) -> None:
        if load < 2:
            raise CorruptionError("load factor must be at least 2")
        self.load = load
        self.blocks: list[list[Any]] = []
        self.mins: list[Any] = []
        self.sums: list[tuple[int, int] | None] = []
        self.augment = augment
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def __reduce_ex__(self, protocol: Any) -> Any:
        """Pickle with every summary fresh: checkpoint write-back is
        charged to the modelled clock by stored bytes, which must not
        depend on which summaries happen to have been read."""
        for bi in range(len(self.sums)):
            self.summary(bi)
        return super().__reduce_ex__(protocol)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, key: Any, weight: int | None = None) -> None:
        """Add ``key`` (must not be present); O(log n + load)."""
        blocks = self.blocks
        mins = self.mins
        augment = self.augment
        self._n += 1
        if not blocks:
            blocks.append([key])
            mins.append(key)
            if augment is not None:
                self.sums.append(augment.add((0, 0), cast(int, weight)))
            return
        bi = bisect_right(mins, key) - 1
        if bi < 0:
            bi = 0
        block = blocks[bi]
        insort(block, key)
        if block[0] != mins[bi]:
            mins[bi] = block[0]
        if augment is not None:
            summary = self.sums[bi]
            if summary is not None:
                self.sums[bi] = augment.add(summary, cast(int, weight))
        if len(block) >= 2 * self.load:
            self._split(bi)

    def _split(self, bi: int) -> None:
        block = self.blocks[bi]
        half = len(block) // 2
        right = block[half:]
        del block[half:]
        self.blocks.insert(bi + 1, right)
        self.mins.insert(bi + 1, right[0])
        if self.augment is not None:
            self.sums[bi] = None
            self.sums.insert(bi + 1, None)

    def remove(self, key: Any, weight: int | None = None) -> bool:
        """Drop ``key``; False when it was not present."""
        mins = self.mins
        bi = bisect_right(mins, key) - 1
        if bi < 0:
            return False
        block = self.blocks[bi]
        pos = bisect_left(block, key)
        if pos >= len(block) or block[pos] != key:
            return False
        del block[pos]
        self._n -= 1
        if not block:
            del self.blocks[bi]
            del mins[bi]
            if self.augment is not None:
                del self.sums[bi]
            return True
        if pos == 0:
            mins[bi] = block[0]
        augment = self.augment
        if augment is not None:
            summary = self.sums[bi]
            if summary is not None:
                self.sums[bi] = augment.discard(summary, cast(int, weight))
        return True

    def replace(self, old: Any, new: Any, *, old_weight: int | None = None,
                new_weight: int | None = None) -> None:
        """Rewrite ``old`` to ``new`` in place — no memmove, O(log n).

        The caller guarantees the replacement preserves sort order
        (i.e. ``new`` still belongs between ``old``'s neighbours);
        this is the boundary-move fast path behind the free index's
        carves and merges.
        """
        mins = self.mins
        bi = bisect_right(mins, old) - 1
        if bi < 0:
            raise CorruptionError(f"blocked list: key {old!r} not present")
        block = self.blocks[bi]
        pos = bisect_left(block, old)
        if pos >= len(block) or block[pos] != old:
            raise CorruptionError(f"blocked list: key {old!r} not present")
        block[pos] = new
        if pos == 0:
            mins[bi] = new
        augment = self.augment
        if augment is not None:
            summary = self.sums[bi]
            if summary is not None:
                summary = augment.add(summary, cast(int, new_weight))
                self.sums[bi] = augment.discard(summary,
                                                cast(int, old_weight))

    # ------------------------------------------------------------------
    # Point queries
    # ------------------------------------------------------------------
    def summary(self, bi: int) -> tuple[int, int]:
        """Block ``bi``'s augmentation summary, rescanned if stale."""
        summary = self.sums[bi]
        if summary is None:
            summary = cast(MaxWeightAugmentation, self.augment).summarize(
                self.blocks[bi])
            self.sums[bi] = summary
        return summary

    def __contains__(self, key: Any) -> bool:
        bi = bisect_right(self.mins, key) - 1
        if bi < 0:
            return False
        block = self.blocks[bi]
        pos = bisect_left(block, key)
        return pos < len(block) and block[pos] == key

    def pred_le(self, key: Any) -> Any | None:
        """Largest key ``<= key``, or None."""
        bi = bisect_right(self.mins, key) - 1
        if bi < 0:
            return None
        block = self.blocks[bi]
        pos = bisect_right(block, key) - 1
        return block[pos] if pos >= 0 else None

    def pred_lt(self, key: Any) -> Any | None:
        """Largest key ``< key``, or None."""
        bi = bisect_left(self.mins, key) - 1
        if bi < 0:
            return None
        block = self.blocks[bi]
        pos = bisect_left(block, key) - 1
        return block[pos] if pos >= 0 else None

    def succ_gt(self, key: Any) -> Any | None:
        """Smallest key ``> key``, or None."""
        blocks = self.blocks
        if not blocks:
            return None
        bi = bisect_right(self.mins, key) - 1
        if bi < 0:
            return blocks[0][0]
        block = blocks[bi]
        pos = bisect_right(block, key)
        if pos < len(block):
            return block[pos]
        if bi + 1 < len(blocks):
            return blocks[bi + 1][0]
        return None

    def first_ge(self, key: Any) -> Any | None:
        """Smallest key ``>= key``, or None."""
        blocks = self.blocks
        if not blocks:
            return None
        bi = bisect_right(self.mins, key) - 1
        if bi < 0:
            return blocks[0][0]
        block = blocks[bi]
        pos = bisect_left(block, key)
        if pos < len(block):
            return block[pos]
        if bi + 1 < len(blocks):
            return blocks[bi + 1][0]
        return None

    def first(self) -> Any:
        """Smallest key; the list must be non-empty."""
        return self.blocks[0][0]

    def last(self) -> Any:
        """Largest key; the list must be non-empty."""
        return self.blocks[-1][-1]

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Any]:
        for block in self.blocks:
            yield from block

    def iter_desc(self) -> Iterator[Any]:
        for block in reversed(self.blocks):
            yield from reversed(block)

    def iter_from(self, key: Any) -> Iterator[Any]:
        """Keys ``>= key`` in ascending order."""
        blocks = self.blocks
        if not blocks:
            return
        bi = bisect_right(self.mins, key) - 1
        if bi < 0:
            bi, pos = 0, 0
        else:
            pos = bisect_left(blocks[bi], key)
            if pos >= len(blocks[bi]):
                bi, pos = bi + 1, 0
        for b in range(bi, len(blocks)):
            block = blocks[b]
            for i in range(pos if b == bi else 0, len(block)):
                yield block[i]

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def check(self, label: str) -> None:
        """Raise :class:`CorruptionError` on internal inconsistency."""
        if len(self.blocks) != len(self.mins):
            raise CorruptionError(f"{label}: directory sizes disagree")
        if self.augment is not None and len(self.sums) != len(self.blocks):
            raise CorruptionError(f"{label}: summary directory drifted")
        flat: list = []
        for bi, block in enumerate(self.blocks):
            if not block:
                raise CorruptionError(f"{label}: empty block")
            if len(block) >= 2 * self.load:
                raise CorruptionError(f"{label}: oversized block")
            if self.mins[bi] != block[0]:
                raise CorruptionError(f"{label}: stale block minimum")
            if self.augment is not None and self.sums[bi] is not None:
                if self.sums[bi] != self.augment.summarize(block):
                    raise CorruptionError(
                        f"{label}: wrong summary at block {bi}"
                    )
            flat.extend(block)
        if flat != sorted(flat):
            raise CorruptionError(f"{label}: keys are unsorted")
        if len(set(flat)) != len(flat):
            raise CorruptionError(f"{label}: duplicate keys")
        if len(flat) != self._n:
            raise CorruptionError(f"{label}: count drifted")
