"""The free index's retired boundary-move path (test-side only).

``FreeExtentIndex`` moves a run boundary in one pass per tier: the
address tier is searched once per read (``BlockedList.neighbours``) and
once per write (``replace``, which only reweights when the start does
not move), a run that keeps its size bucket moves inside it with one
``BlockedList.move``, and the blocked list does the max-weight
arithmetic inline.  The functions here are that path as it was before:
``add`` asked ``pred_le`` and ``succ_gt`` separately, ``_resize``
always rewrote the address entry and deleted and reinserted the size
pair through ``_b_delete``/``_b_insert``, and every summary update went
through ``MaxWeightAugmentation.add``/``discard``.

They act on plain ``FreeExtentIndex``/``BlockedList`` instances, so a
twin driven through them pickles to comparable bytes.
``test_freelist_oracle.py`` holds the shipped path to them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Any

from repro.alloc.extent import Extent
from repro.alloc.freelist import FreeExtentIndex
from repro.errors import CorruptionError
from repro.struct.blockedlist import BlockedList


# ----------------------------------------------------------------------
# MaxWeightAugmentation's O(1) hooks
# ----------------------------------------------------------------------
def aug_add(summary: tuple[int, int], weight: int) -> tuple[int, int]:
    mx, cnt = summary
    if weight > mx:
        return weight, 1
    if weight == mx:
        return mx, cnt + 1
    return summary


def aug_discard(summary: tuple[int, int],
                weight: int) -> tuple[int, int] | None:
    mx, cnt = summary
    if weight == mx:
        if cnt == 1:
            return None
        return mx, cnt - 1
    return summary


# ----------------------------------------------------------------------
# BlockedList mutations through the hooks
# ----------------------------------------------------------------------
def bl_insert(bl: BlockedList, key: Any, weight: int | None = None) -> None:
    blocks = bl.blocks
    mins = bl.mins
    augment = bl.augment
    bl._n += 1
    if not blocks:
        blocks.append([key])
        mins.append(key)
        if augment is not None:
            bl.sums.append(aug_add((0, 0), weight))
        return
    bi = bisect_right(mins, key) - 1
    if bi < 0:
        bi = 0
    block = blocks[bi]
    insort(block, key)
    if block[0] != mins[bi]:
        mins[bi] = block[0]
    if augment is not None:
        summary = bl.sums[bi]
        if summary is not None:
            bl.sums[bi] = aug_add(summary, weight)
    if len(block) >= 2 * bl.load:
        bl._split(bi)


def bl_remove(bl: BlockedList, key: Any, weight: int | None = None) -> bool:
    mins = bl.mins
    bi = bisect_right(mins, key) - 1
    if bi < 0:
        return False
    block = bl.blocks[bi]
    pos = bisect_left(block, key)
    if pos >= len(block) or block[pos] != key:
        return False
    del block[pos]
    bl._n -= 1
    if not block:
        del bl.blocks[bi]
        del mins[bi]
        if bl.augment is not None:
            del bl.sums[bi]
        return True
    if pos == 0:
        mins[bi] = block[0]
    if bl.augment is not None:
        summary = bl.sums[bi]
        if summary is not None:
            bl.sums[bi] = aug_discard(summary, weight)
    return True


def bl_replace(bl: BlockedList, old: Any, new: Any, *,
               old_weight: int | None = None,
               new_weight: int | None = None) -> None:
    mins = bl.mins
    bi = bisect_right(mins, old) - 1
    if bi < 0:
        raise CorruptionError(f"blocked list: key {old!r} not present")
    block = bl.blocks[bi]
    pos = bisect_left(block, old)
    if pos >= len(block) or block[pos] != old:
        raise CorruptionError(f"blocked list: key {old!r} not present")
    block[pos] = new
    if pos == 0:
        mins[bi] = new
    if bl.augment is not None:
        summary = bl.sums[bi]
        if summary is not None:
            summary = aug_add(summary, new_weight)
            bl.sums[bi] = aug_discard(summary, old_weight)


def bl_succ_gt(bl: BlockedList, key: Any) -> Any | None:
    blocks = bl.blocks
    if not blocks:
        return None
    bi = bisect_right(bl.mins, key) - 1
    if bi < 0:
        return blocks[0][0]
    block = blocks[bi]
    pos = bisect_right(block, key)
    if pos < len(block):
        return block[pos]
    if bi + 1 < len(blocks):
        return blocks[bi + 1][0]
    return None


# ----------------------------------------------------------------------
# FreeExtentIndex's bookkeeping and mutations
# ----------------------------------------------------------------------
def _b_insert(ix: FreeExtentIndex, start: int, length: int) -> None:
    b = length.bit_length()
    if b > ix._btop:
        ix._btop = b
    bl_insert(ix._buckets[b], (length, start))


def _b_delete(ix: FreeExtentIndex, start: int, length: int) -> None:
    if not bl_remove(ix._buckets[length.bit_length()], (length, start)):
        raise CorruptionError(f"size view out of sync at {start}")


def _insert(ix: FreeExtentIndex, start: int, length: int) -> None:
    ix._len_by_start[start] = length
    bl_insert(ix._addr, start, weight=length)
    _b_insert(ix, start, length)
    ix._total_free += length


def _delete(ix: FreeExtentIndex, start: int) -> int:
    length = ix._len_by_start.pop(start)
    if not bl_remove(ix._addr, start, weight=length):
        raise CorruptionError(f"free index views out of sync at {start}")
    _b_delete(ix, start, length)
    ix._total_free -= length
    return length


def _resize(ix: FreeExtentIndex, old_start: int, new_start: int,
            new_len: int) -> None:
    lens = ix._len_by_start
    old_len = lens.pop(old_start)
    lens[new_start] = new_len
    bl_replace(ix._addr, old_start, new_start,
               old_weight=old_len, new_weight=new_len)
    _b_delete(ix, old_start, old_len)
    _b_insert(ix, new_start, new_len)
    ix._total_free += new_len - old_len


def add(ix: FreeExtentIndex, ext: Extent) -> None:
    """``FreeExtentIndex.add``."""
    start, end = ext.start, ext.end
    if end > ix.capacity:
        raise CorruptionError(f"{ext} extends past capacity {ix.capacity}")
    lens = ix._len_by_start
    pred = ix._addr.pred_le(start)
    if pred is not None and pred + lens[pred] > start:
        raise CorruptionError(
            f"double free: {ext} overlaps free run at {pred}")
    succ = bl_succ_gt(ix._addr, start)
    if succ is not None and succ < end:
        raise CorruptionError(
            f"double free: {ext} overlaps free run at {succ}")
    merge_left = pred is not None and pred + lens[pred] == start
    succ_len = lens.get(end)
    if merge_left and succ_len is not None:
        _delete(ix, end)
        _resize(ix, pred, pred, end + succ_len - pred)
    elif merge_left:
        _resize(ix, pred, pred, end - pred)
    elif succ_len is not None:
        _resize(ix, end, start, end + succ_len - start)
    else:
        _insert(ix, start, end - start)


def remove(ix: FreeExtentIndex, ext: Extent) -> None:
    """``FreeExtentIndex.remove``."""
    estart, eend = ext.start, ext.end
    lens = ix._len_by_start
    rstart = ix._addr.pred_le(estart)
    if rstart is None:
        raise CorruptionError(f"{ext} is not free")
    rlen = lens[rstart]
    rend = rstart + rlen
    if estart < rstart or eend > rend:
        raise CorruptionError(
            f"{ext} is not inside free run {Extent(rstart, rlen)}")
    if rstart < estart:
        if eend < rend:
            _delete(ix, rstart)
            _insert(ix, rstart, estart - rstart)
            _insert(ix, eend, rend - eend)
        else:
            _resize(ix, rstart, rstart, estart - rstart)
    elif eend < rend:
        _resize(ix, rstart, eend, rend - eend)
    else:
        _delete(ix, rstart)


def carve_front(ix: FreeExtentIndex, start: int, nbytes: int) -> Extent:
    """``FreeExtentIndex.carve_front``."""
    taken = Extent(start, nbytes)
    rlen = ix._len_by_start.get(start, 0)
    if nbytes > rlen:
        raise CorruptionError(f"{taken} is not the front of a free run")
    if nbytes < rlen:
        _resize(ix, start, start + nbytes, rlen - nbytes)
    else:
        _delete(ix, start)
    return taken
