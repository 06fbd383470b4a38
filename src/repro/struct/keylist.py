"""Insertion-ordered key sequence: O(1) ``in``, O(block) ``remove``.

Keys sit in blocks of at most :data:`BLOCK` plus a key → block dict:
appends fill the last block, an emptied block is dropped, none are
merged.  It pickles as the key sequence alone — dict and blocks are
rebuilt on load — so the bytes do not depend on removal history or
on :data:`BLOCK`.  Why the scenario engine needs the order kept, and
the traffic the block size is chosen for: docs/architecture.md.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator
from itertools import chain
from typing import Any, Generic, TypeVar

from repro.errors import CorruptionError

#: Block capacity: ``remove`` scans one block, ``seq[rank]`` n / BLOCK
#: blocks; small, as most ranks the scenario engine asks are Zipf picks.
BLOCK = 128

K = TypeVar("K", bound=Hashable)


class KeyList(Generic[K]):
    """Sequence of unique hashable keys in insertion order."""

    __slots__ = ("_blocks", "_where")

    def __init__(self, keys: Iterable[K] = ()) -> None:
        self._blocks: list[list[K]] = []
        self._where: dict[K, list[K]] = {}
        for key in keys:
            self.append(key)

    def append(self, key: K) -> None:
        if key in self._where:
            raise ValueError(f"{key!r} is already in the KeyList")
        if not self._blocks or len(self._blocks[-1]) >= BLOCK:
            self._blocks.append([])
        self._blocks[-1].append(key)
        self._where[key] = self._blocks[-1]

    def remove(self, key: K) -> None:
        block = self._where.pop(key, None)
        if block is None:
            raise ValueError(f"{key!r} is not in the KeyList")
        block.remove(key)
        if not block:
            self._blocks = [b for b in self._blocks if b]

    def __contains__(self, key: object) -> bool:
        return key in self._where

    def __len__(self) -> int:
        return len(self._where)

    def __getitem__(self, rank: int) -> K:
        i = rank + len(self) if rank < 0 else rank
        if i >= 0:
            for block in self._blocks:
                if i < len(block):
                    return block[i]
                i -= len(block)
        raise IndexError(f"KeyList index {rank} out of range")

    def __iter__(self) -> Iterator[K]:
        return chain.from_iterable(self._blocks)

    def __reduce__(self) -> tuple[Any, ...]:
        return KeyList, (list(self),)

    def check(self) -> None:
        """Raise unless the dict and the blocks hold one sequence."""
        sizes = [len(b) for b in self._blocks]
        if not all(0 < s <= BLOCK for s in sizes) or sum(sizes) != len(self):
            raise CorruptionError(
                f"KeyList: block sizes {sizes} for {len(self)} keys")
        if any(self._where.get(k) is not b for b in self._blocks for k in b):
            raise CorruptionError("KeyList: a key is indexed to another block")
