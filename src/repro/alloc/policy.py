"""Allocation policies over a :class:`FreeExtentIndex`.

These are the textbook policies the paper's theory section discusses
(first fit's near-optimal worst case, best fit, worst fit) plus next fit.
The filesystem and database substrates use their own specialised
allocators (:mod:`repro.alloc.runcache`, :mod:`repro.db.gam`); the plain
policies exist for ablation A1 (``paperfig.py --only ablation_policies``,
described in benchmarks/README.md), which asks how
much of the two systems' divergence is explained by policy alone.
"""

from __future__ import annotations

from typing import Protocol

from repro.alloc.extent import Extent
from repro.alloc.freelist import FreeExtentIndex
from repro.errors import AllocationError, ConfigError


class AllocationPolicy(Protocol):
    """Chooses the free run a request should be carved from."""

    name: str

    def choose(self, index: FreeExtentIndex, size: int) -> Extent | None:
        """Return a free run with ``length >= size``, or None if there is
        no single run that fits.  The caller carves from the run's front.
        """
        ...  # pragma: no cover - protocol


class FirstFit:
    """Lowest-address run that fits.

    Robson's bound in the paper (Section 3.2): first fit is nearly optimal
    in the worst case, using at most ``M log2 n`` bytes.
    """

    name = "first_fit"

    def choose(self, index: FreeExtentIndex, size: int) -> Extent | None:
        return index.first_fit(size)


class BestFit:
    """Smallest run that fits; minimizes leftover slack per allocation."""

    name = "best_fit"

    def choose(self, index: FreeExtentIndex, size: int) -> Extent | None:
        return index.best_fit(size)


class WorstFit:
    """Largest run; keeps remainders large at the cost of eroding big runs."""

    name = "worst_fit"

    def choose(self, index: FreeExtentIndex, size: int) -> Extent | None:
        return index.worst_fit(size)


class NextFit:
    """First fit resuming from a roving cursor (classic malloc variant)."""

    name = "next_fit"

    def __init__(self) -> None:
        self._cursor = 0

    def choose(self, index: FreeExtentIndex, size: int) -> Extent | None:
        found = index.next_fit(size, self._cursor)
        if found is not None:
            self._cursor = found.start + size
            if self._cursor >= index.capacity:
                self._cursor = 0
        return found


_POLICIES = {
    "first_fit": FirstFit,
    "best_fit": BestFit,
    "worst_fit": WorstFit,
    "next_fit": NextFit,
}


def make_policy(name: str) -> AllocationPolicy:
    """Instantiate a policy by name (for CLI/bench parameterization)."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise ConfigError(
            f"unknown policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None


def policy_names() -> list[str]:
    return sorted(_POLICIES)


def allocate_contiguous(index: FreeExtentIndex, size: int,
                        policy: AllocationPolicy) -> Extent:
    """Allocate one contiguous extent of ``size`` bytes via ``policy``.

    Raises :class:`AllocationError` when no single run fits, mirroring the
    "never fragment a file" discipline of the theoretical work.
    """
    if size <= 0:
        raise ConfigError("allocation size must be positive")
    run = policy.choose(index, size)
    if run is None:
        raise AllocationError(
            f"no contiguous run of {size} bytes (largest is "
            f"{index.largest().length if index.largest() else 0})"
        )
    return index.carve_front(run.start, size)


def allocate_fragmented(index: FreeExtentIndex, size: int,
                        policy: AllocationPolicy) -> list[Extent]:
    """Allocate ``size`` bytes, splitting across runs when necessary.

    Pieces are chosen by repeatedly applying ``policy``; when no run holds
    the whole remainder, the largest run is consumed and the policy is
    retried on what is left — the generic "fragment the file" fallback.
    """
    if size <= 0:
        raise ConfigError("allocation size must be positive")
    if index.total_free < size:
        raise AllocationError(
            f"volume full: need {size}, have {index.total_free} free"
        )
    pieces: list[Extent] = []
    remaining = size
    while remaining > 0:
        run = policy.choose(index, remaining)
        if run is not None:
            pieces.append(index.carve_front(run.start, remaining))
            break
        run = index.largest()
        if run is None:
            # total_free said there was space; losing it mid-loop means
            # a concurrent mutation, which the simulator never does.
            for piece in pieces:
                index.add(piece)
            raise AllocationError("free space exhausted mid-allocation")
        pieces.append(index.carve_front(run.start, run.length))
        remaining -= run.length
    return pieces
