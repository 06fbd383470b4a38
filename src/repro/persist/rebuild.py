"""Rebuild the free index from extent maps, and cross-check snapshots.

The file table's extent maps are the authoritative record of what is
allocated; the free index is derived state.  :func:`rebuild_free_index`
recomputes that derivation from first principles — everything is free
except what some extent map (or reserved region, or in-flight free)
claims — which gives recovery a second, independent answer to compare a
restored snapshot against.  :func:`cross_check` is that comparison:
run-for-run equality, because the engines are placement-identical and
a single diverging run means torn or partial state.

The rebuild itself doubles as a torn-state detector: reconstructing
over a double-counted or overlapping extent raises
:class:`~repro.errors.CorruptionError` from the engine's own overlap
checks, which :func:`rebuild_fs_free_index` re-frames as a
:class:`~repro.errors.SnapshotError`.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any

from repro.alloc.extent import Extent
from repro.alloc.freelist import FreeExtentIndex, make_free_index
from repro.alloc.naive import NaiveFreeExtentIndex
from repro.errors import CorruptionError, SnapshotError
from repro.persist.snapshot import index_kind_of

_FreeIndex = FreeExtentIndex | NaiveFreeExtentIndex


def rebuild_free_index(capacity: int, *,
                       allocated: Iterable[Extent],
                       unavailable: Iterable[Extent] = (),
                       kind: str = "tiered") -> _FreeIndex:
    """Reconstruct a free index from what is *not* free.

    ``allocated`` are live data extents (from extent maps);
    ``unavailable`` is everything else that must not be allocatable:
    reserved metadata regions, journal frees awaiting their commit, and
    orphaned space from lost deletes.  Overlaps between any two inputs
    raise :class:`CorruptionError` — the caller's maps diverged.
    """
    index = make_free_index(capacity, kind=kind, initially_free=True)
    for ext in allocated:
        index.remove(ext)
    for ext in unavailable:
        index.remove(ext)
    return index


def rebuild_fs_free_index(fs: Any) -> _FreeIndex:
    """Rebuild a :class:`~repro.fs.filesystem.SimFilesystem`'s free index.

    Sources: the file table's extent maps (allocated), the metadata
    regions below ``data_start``, background metadata nibbles
    (allocated space with no file record), the journal's pending and
    replayable frees, and any orphaned extents from earlier recoveries.
    A rebuild that trips over overlapping inputs raises
    :class:`SnapshotError` — the live state is torn.
    """
    journal = fs.journal
    unavailable = [Extent(0, fs.data_start)]
    unavailable += fs.metadata_traffic.outstanding_extents
    unavailable += journal.pending_frees
    unavailable += journal.replayable_frees
    unavailable += fs.orphaned_extents
    try:
        return rebuild_free_index(
            fs.capacity,
            allocated=(ext for record in fs.table for ext in record.extents),
            unavailable=unavailable,
            kind=index_kind_of(fs.free_index),
        )
    except CorruptionError as exc:
        raise SnapshotError(
            f"free index cannot be rebuilt from extent maps: {exc}"
        ) from exc


def cross_check(expected: _FreeIndex, actual: _FreeIndex, *,
                label: str = "free index") -> None:
    """Raise :class:`SnapshotError` unless two indexes agree exactly.

    Compares capacity, the full address-ordered run list, and the O(1)
    accounting (``total_free``, ``largest``) so a drifted incremental
    counter is caught even when the run lists happen to match.
    """
    if expected.capacity != actual.capacity:
        raise SnapshotError(
            f"{label}: capacity {actual.capacity} != "
            f"expected {expected.capacity}"
        )
    expected_runs = list(expected)
    actual_runs = list(actual)
    if expected_runs != actual_runs:
        for i, (want, got) in enumerate(zip(expected_runs, actual_runs)):
            if want != got:
                raise SnapshotError(
                    f"{label}: run {i} is {got}, expected {want}"
                )
        raise SnapshotError(
            f"{label}: {len(actual_runs)} runs, expected "
            f"{len(expected_runs)}"
        )
    if expected.total_free != actual.total_free:
        raise SnapshotError(
            f"{label}: total_free {actual.total_free} != "
            f"expected {expected.total_free}"
        )
    if expected.largest() != actual.largest():
        raise SnapshotError(
            f"{label}: largest {actual.largest()} != "
            f"expected {expected.largest()}"
        )
