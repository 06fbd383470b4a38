"""The :class:`Extent` value type: a half-open byte range on a volume.

Extents are layout *state*: free-space indexes hold them, a file's run
list is a list of them, and allocators hand them out.  An object's
layout is *reported* as plain ``(start, length)`` spans in logical
order (:func:`as_spans`, each store's ``object_extents``), which is
also what device requests carry and what :func:`fragment_count` counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.units import Span


@dataclass(frozen=True, order=True, slots=True, init=False)
class Extent:
    """A contiguous byte range ``[start, start + length)``.

    Ordering is by ``(start, length)``, which sorts address-ordered lists
    the way allocators need.  Slotted: extents are minted on every
    allocation, split, and coalesce, so they carry no per-instance
    ``__dict__``.
    """

    start: int
    length: int

    # Validation and the two slot writes in one frame: the generated
    # ``__init__`` called ``__post_init__`` as a second one per extent.
    # The writes go straight to the slot descriptors, past the frozen
    # ``__setattr__``.
    def __init__(self, start: int, length: int) -> None:
        if start < 0:
            raise ConfigError(f"extent start must be >= 0, got {start}")
        if length <= 0:
            raise ConfigError(f"extent length must be > 0, got {length}")
        _set_start(self, start)
        _set_length(self, length)

    # The frozen-slots dataclass hooks, spelt out: the generated pair
    # walks ``fields()`` per extent, and checkpoints pickle tens of
    # thousands.  Same state, so the same pickled bytes.
    def __getstate__(self) -> list[int]:
        return [self.start, self.length]

    def __setstate__(self, state: list[int]) -> None:
        _set_start(self, state[0])
        _set_length(self, state[1])

    @property
    def end(self) -> int:
        """Exclusive end offset."""
        return self.start + self.length

    def overlaps(self, other: Extent) -> bool:
        return self.start < other.end and other.start < self.end


_set_start = vars(Extent)["start"].__set__
_set_length = vars(Extent)["length"].__set__


def as_spans(extents: list[Extent]) -> list[Span]:
    """The ``(start, length)`` spans of a run list, order preserved."""
    return [(ext.start, ext.length) for ext in extents]


def fragment_count(spans: list[Span]) -> int:
    """An object's fragment count: the maximal runs its touching or
    overlapping spans form, grouped in physical (start) order.  A
    contiguous object has one fragment (Figure 2's caption).

    >>> fragment_count([(0, 10), (10, 5), (20, 5)])
    2
    """
    count = 0
    end = -1
    for start, length in sorted(spans):
        if start > end:
            count += 1
        end = max(end, start + length)
    return count


def total_length(extents: list[Extent]) -> int:
    """Sum of extent lengths (does not check for overlap)."""
    return sum(e.length for e in extents)
