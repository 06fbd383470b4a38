"""The :class:`Extent` value type: a half-open byte range on a volume.

Extents are the layout currency — free-space indexes hold them, files
and BLOBs map to lists of them, and the fragmentation analyzer counts
maximal runs of them.  Device requests carry plain ``(start, length)``
spans instead (see :mod:`repro.disk.device`).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from repro.errors import ConfigError


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

    def contains(self, offset: int) -> bool:
        return self.start <= offset < self.end

    def contains_extent(self, other: Extent) -> bool:
        return self.start <= other.start and other.end <= self.end

    def overlaps(self, other: Extent) -> bool:
        return self.start < other.end and other.start < self.end

    def adjacent_to(self, other: Extent) -> bool:
        """True when the two extents touch without overlapping."""
        return self.end == other.start or other.end == self.start

    def merge(self, other: Extent) -> Extent:
        """Union of two adjacent or overlapping extents."""
        if not (self.overlaps(other) or self.adjacent_to(other)):
            raise ConfigError(f"cannot merge disjoint extents {self}, {other}")
        start = min(self.start, other.start)
        end = max(self.end, other.end)
        return Extent(start, end - start)

    def split_at(self, offset: int) -> tuple[Extent, Extent]:
        """Split into two pieces at an interior absolute ``offset``."""
        if not (self.start < offset < self.end):
            raise ConfigError(f"split offset {offset} not inside {self}")
        return (Extent(self.start, offset - self.start),
                Extent(offset, self.end - offset))

    def take_front(self, length: int) -> tuple[Extent, Extent | None]:
        """Carve ``length`` bytes off the front; returns (taken, remainder)."""
        if length <= 0 or length > self.length:
            raise ConfigError(f"cannot take {length} bytes from {self}")
        taken = Extent(self.start, length)
        if length == self.length:
            return taken, None
        return taken, Extent(self.start + length, self.length - length)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Extent({self.start}, +{self.length})"


_set_start = vars(Extent)["start"].__set__
_set_length = vars(Extent)["length"].__set__
_start_of = attrgetter("start")


def fragment_count(extents: list[Extent]) -> int:
    """An object's fragment count: the maximal runs its touching or
    overlapping extents form, grouped in physical (start) order.  A
    contiguous object has one fragment (Figure 2's caption).

    >>> fragment_count([Extent(0, 10), Extent(10, 5), Extent(20, 5)])
    2
    """
    count = 0
    end = -1
    for ext in sorted(extents, key=_start_of):
        if ext.start > end:
            count += 1
        end = max(end, ext.end)
    return count


def total_length(extents: list[Extent]) -> int:
    """Sum of extent lengths (does not check for overlap)."""
    return sum(e.length for e in extents)
