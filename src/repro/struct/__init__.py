"""Shared in-memory data-structure primitives.

The simulation's indexes (free-space map, device segment store) all
need the same thing: a sorted collection with O(log n) search and
mutations that never pay a whole-collection memmove.  The blocked
two-level layout in :mod:`repro.struct.blockedlist` is that shared
answer; see its module docstring for the invariants and the
augmentation contract.  :mod:`repro.struct.keylist` is its unsorted
sibling: the scenario engine's insertion-ordered live-key sequence.
"""

from repro.struct.blockedlist import BlockedList, MaxWeightAugmentation
from repro.struct.keylist import KeyList

__all__ = ["BlockedList", "KeyList", "MaxWeightAugmentation"]
