"""NTFS-style run-cache allocator.

Section 2 of the paper describes the NTFS allocation path (from the NTFS
development team): *"NTFS allocates space for file stream data from a
run-based lookup cache.  Runs of contiguous free clusters are ordered in
decreasing size and volume offset.  NTFS attempts to satisfy a new space
allocation from the outer band.  If that fails, large extents within the
free space cache are used.  If that fails, the file is fragmented."*

:class:`NtfsRunCache` implements exactly that discipline over a
:class:`~repro.alloc.freelist.FreeExtentIndex`:

1. **Outer band** — the lowest-offset cached run inside the outer band
   that satisfies the request (outer cylinders are the fast band; NTFS's
   banded strategy targets them).
2. **Large cached runs** — the largest cached run that satisfies the
   request (cache is ordered by decreasing size).
3. **Fragment** — consume cached runs largest-first until the request is
   satisfied.

The cache holds only the ``cache_size`` largest runs; small free runs are
invisible to allocation until the big runs are consumed, which is why an
aged NTFS volume keeps carving big holes while small holes wait to merge
with neighbours — the mechanism behind the fragmentation asymptote of
Figure 2.
"""

from __future__ import annotations

from operator import itemgetter

from repro.alloc.extent import Extent
from repro.alloc.freelist import FreeExtentIndex
from repro.errors import AllocationError, ConfigError


class NtfsRunCache:
    """Banded, decreasing-size run selection over a free-extent index.

    Parameters
    ----------
    index:
        The free-space truth.  The cache re-derives its view lazily, so
        callers may also free/allocate through other paths.
    outer_band_fraction:
        Fraction of the volume (from offset 0) treated as the preferred
        outer band.
    cache_size:
        Number of largest runs visible to the allocator, modelling the
        bounded in-memory cache.
    """

    def __init__(self, index: FreeExtentIndex, *,
                 outer_band_fraction: float = 0.125,
                 cache_size: int = 64) -> None:
        if not 0.0 < outer_band_fraction <= 1.0:
            raise ConfigError("outer_band_fraction must be in (0, 1]")
        if cache_size < 1:
            raise ConfigError("cache_size must be >= 1")
        self.index = index
        self.outer_band_limit = int(index.capacity * outer_band_fraction)
        self.cache_size = cache_size

    # ------------------------------------------------------------------
    def choose(self, size: int) -> Extent | None:
        """Pick the run a contiguous ``size``-byte request carves from.

        Returns None when no cached run fits (the caller then fragments).
        Does not mutate the index.  Selection order per the paper's
        description: outer-band runs first (lowest offset), then the
        largest cached run (ties to the lower offset).  This sits on
        the aging hot path, once per allocation: the cached view is one
        slice of ``(length, start)`` pairs and the only Extent minted is
        the one returned.
        """
        if size <= 0:
            raise ConfigError("allocation size must be positive")
        # Size-descending (length, start) pairs, ties on descending
        # start, already cut at the first run too short for ``size``.
        cached = self.index.largest_runs(self.cache_size, size)
        if not cached:
            return None
        length, start = min(cached, key=itemgetter(1))
        if start >= self.outer_band_limit:
            # No band candidate: the head's length, and among the runs
            # tying for it the last one (lowest start).
            length = cached[0][0]
            for tied, lower in cached:
                if tied != length:
                    break
                start = lower
        return Extent(start, length)

    def allocate(self, size: int) -> list[Extent]:
        """Allocate ``size`` bytes, fragmenting only when no run fits.

        Returns the allocated pieces in the order they hold the data.
        """
        if size <= 0:
            raise ConfigError("allocation size must be positive")
        if self.index.total_free < size:
            raise AllocationError(
                f"volume full: need {size}, have {self.index.total_free}"
            )
        pieces: list[Extent] = []
        remaining = size
        while remaining > 0:
            run = self.choose(remaining)
            if run is not None:
                taken = Extent(run.start, remaining)
                self.index.remove(taken)
                pieces.append(taken)
                break
            # Fragment: consume the largest visible run and retry.  The
            # cache is size-descending, so its head is the index's
            # largest run.
            largest = self.index.largest()
            if largest is None:
                for piece in pieces:
                    self.index.add(piece)
                raise AllocationError("no free runs while space remains")
            self.index.remove(largest)
            pieces.append(largest)
            remaining -= largest.length
        return pieces

    def try_extend(self, at_offset: int, size: int, *,
                   stickiness: float = 0.75) -> Extent | None:
        """Best-effort contiguous extension at ``at_offset``.

        NTFS "aggressively attempts to allocate contiguous space when
        sequential appends are detected" (paper Section 5.4) — but with
        no guarantee: each write request is a fresh allocation decision
        against the size-ordered cache, so a growing file keeps its spot
        only while the run it is eating remains competitively large.

        We model that as hysteresis: extension succeeds while the
        adjacent free run still satisfies the whole request **and** is
        at least ``stickiness`` × the largest cached run.  Once the run
        erodes below that, the allocator's ordering pulls the next
        request to the current cache head and the file fragments.
        ``stickiness`` is the model's main fragmentation knob:

        * 1.0 ≈ strict cache order (pathological ping-pong between
          equal-size runs — fragments every request),
        * 0.0 ≈ guaranteed extension (files never fragment while their
          hole lasts, which contradicts the paper's measurements).

        Runs starting in the outer band are always sticky: the band
        rule prefers the *lowest-offset* band run, and the remainder of
        the run being filled is by construction the lowest fitting one.

        Returns the extent taken (possibly shorter than ``size``) or
        None.
        """
        if not 0.0 <= stickiness <= 1.0:
            raise ConfigError("stickiness must be in [0, 1]")
        run = self.index.run_starting_at(at_offset)
        if run is None:
            return None
        if run.start >= self.outer_band_limit and run.length < size:
            return None
        if run.start >= self.outer_band_limit and stickiness > 0.0:
            # Never empty: ``run`` itself is in the index.
            head_length = self.index.largest_runs(1)[0][0]
            if run.length < stickiness * head_length:
                return None
        taken = Extent(run.start, min(size, run.length))
        self.index.remove(taken)
        return taken
