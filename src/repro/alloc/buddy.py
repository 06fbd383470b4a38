"""DTSS-style buddy-system allocator.

The paper's Section 3.4 describes the Dartmouth Time-Sharing System
filesystem, which laid out files with the buddy system: every block is a
power-of-two size at a power-of-two-aligned offset, frees merge with the
block's "buddy" when both halves are free.  The hard fragment limits made
it predictable but wasteful for large files — requests round up to the
next power of two (up to 50% internal fragmentation, or a hard cap when
the request exceeds the maximum order).

Exposed for the policy ablation bench: buddy trades internal
fragmentation (wasted bytes inside blocks) for zero external
fragmentation growth, the "trade capacity for predictability" option the
paper's Section 3.2 closes with.
"""

from __future__ import annotations

from repro.alloc.extent import Extent
from repro.errors import AllocationError, ConfigError, CorruptionError


def _next_pow2(value: int) -> int:
    if value <= 0:
        raise ConfigError("size must be positive")
    return 1 << (value - 1).bit_length()


class BuddyAllocator:
    """Binary buddy allocator over ``[0, capacity)``.

    Parameters
    ----------
    capacity:
        Must be a power of two times ``min_block``.
    min_block:
        Smallest allocatable block (the "cluster" size).
    max_block:
        Largest single block; requests above it raise, mirroring DTSS's
        hard limits on large files.  Defaults to the whole volume.
    """

    def __init__(self, capacity: int, *, min_block: int = 4096,
                 max_block: int | None = None) -> None:
        if min_block <= 0 or (min_block & (min_block - 1)) != 0:
            raise ConfigError("min_block must be a power of two")
        if capacity % min_block != 0:
            raise ConfigError("capacity must be a multiple of min_block")
        nblocks = capacity // min_block
        if nblocks & (nblocks - 1) != 0:
            raise ConfigError("capacity / min_block must be a power of two")
        self.capacity = capacity
        self.min_block = min_block
        self.max_block = max_block if max_block is not None else capacity
        if self.max_block < min_block:
            raise ConfigError("max_block below min_block")
        self._max_order = (capacity // min_block).bit_length() - 1
        # order -> set of free block offsets (block size = min_block << order)
        self._free: list[set[int]] = [set() for _ in range(self._max_order + 1)]
        self._free[self._max_order].add(0)
        self._allocated: dict[int, int] = {}  # offset -> order

    def _order_for(self, size: int) -> int:
        block = max(_next_pow2(size), self.min_block)
        if block > self.max_block:
            raise AllocationError(
                f"request of {size} bytes exceeds max block "
                f"{self.max_block} (DTSS-style hard limit)"
            )
        return (block // self.min_block).bit_length() - 1

    def block_size(self, order: int) -> int:
        return self.min_block << order

    def alloc(self, size: int) -> Extent:
        """Allocate one power-of-two block holding ``size`` bytes.

        The returned extent is the *block* (rounded size); callers track
        the requested size themselves — the difference is the internal
        fragmentation this allocator is famous for.
        """
        order = self._order_for(size)
        current = order
        while current <= self._max_order and not self._free[current]:
            current += 1
        if current > self._max_order:
            raise AllocationError(f"no free block of order {order}")
        offset = min(self._free[current])
        self._free[current].discard(offset)
        while current > order:
            current -= 1
            buddy = offset + self.block_size(current)
            self._free[current].add(buddy)
        self._allocated[offset] = order
        return Extent(offset, self.block_size(order))

    def free(self, ext: Extent) -> None:
        """Free a previously allocated block, merging buddies upward."""
        order = self._allocated.pop(ext.start, None)
        if order is None:
            raise CorruptionError(f"{ext} was not allocated by this buddy")
        if self.block_size(order) != ext.length:
            self._allocated[ext.start] = order
            raise CorruptionError(
                f"{ext} length does not match allocated order {order}"
            )
        offset = ext.start
        while order < self._max_order:
            buddy = offset ^ self.block_size(order)
            if buddy not in self._free[order]:
                break
            self._free[order].discard(buddy)
            offset = min(offset, buddy)
            order += 1
        self._free[order].add(offset)

    @property
    def total_free(self) -> int:
        return sum(
            len(blocks) * self.block_size(order)
            for order, blocks in enumerate(self._free)
        )

    def internal_waste(self, requested: int) -> int:
        """Bytes wasted when ``requested`` is rounded to a block."""
        order = self._order_for(requested)
        return self.block_size(order) - requested

    def check_invariants(self) -> None:
        """All free + allocated blocks tile the volume exactly once."""
        seen: list[tuple[int, int]] = []
        for order, blocks in enumerate(self._free):
            size = self.block_size(order)
            for offset in blocks:
                if offset % size != 0:
                    raise CorruptionError(f"misaligned free block {offset}")
                seen.append((offset, size))
        for offset, order in self._allocated.items():
            seen.append((offset, self.block_size(order)))
        seen.sort()
        cursor = 0
        for offset, size in seen:
            if offset != cursor:
                raise CorruptionError(f"gap/overlap at {cursor} vs {offset}")
            cursor = offset + size
        if cursor != self.capacity:
            raise CorruptionError("blocks do not cover the volume")
