"""Tests for the shared blocked sorted-list primitive.

The model checks drive a tiny-load :class:`BlockedList` (so splits and
block deletions happen constantly) against a plain sorted list and a
dict of weights, asserting every query agrees and ``check`` stays
clean.  The freelist and segment store are rebased on this primitive,
so these tests are the first line of defence for both.
"""

import bisect
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptionError
from repro.struct.blockedlist import BlockedList, MaxWeightAugmentation


def model_pred_le(model, key):
    pos = bisect.bisect_right(model, key) - 1
    return model[pos] if pos >= 0 else None


def model_pred_lt(model, key):
    pos = bisect.bisect_left(model, key) - 1
    return model[pos] if pos >= 0 else None


def model_succ_gt(model, key):
    pos = bisect.bisect_right(model, key)
    return model[pos] if pos < len(model) else None


def model_first_ge(model, key):
    pos = bisect.bisect_left(model, key)
    return model[pos] if pos < len(model) else None


class TestBasics:
    def test_insert_iter_len(self):
        bl = BlockedList(load=4)
        for key in [5, 1, 9, 3, 7]:
            bl.insert(key)
        assert list(bl) == [1, 3, 5, 7, 9]
        assert list(bl.iter_desc()) == [9, 7, 5, 3, 1]
        assert len(bl) == 5
        assert bl.first() == 1
        assert bl.last() == 9
        bl.check("basics")

    def test_remove(self):
        bl = BlockedList(load=4)
        for key in range(10):
            bl.insert(key)
        assert bl.remove(4)
        assert not bl.remove(4)
        assert not bl.remove(-1)
        assert list(bl) == [0, 1, 2, 3, 5, 6, 7, 8, 9]
        bl.check("remove")

    def test_contains(self):
        bl = BlockedList(load=2)
        for key in [2, 4, 6]:
            bl.insert(key)
        assert 4 in bl
        assert 3 not in bl
        assert 7 not in bl

    def test_replace_preserving_order(self):
        bl = BlockedList(load=2)
        for key in [10, 20, 30, 40]:
            bl.insert(key)
        bl.replace(20, 25)
        assert list(bl) == [10, 25, 30, 40]
        bl.check("replace")

    def test_replace_missing_key_raises(self):
        bl = BlockedList(load=2)
        bl.insert(1)
        with pytest.raises(CorruptionError):
            bl.replace(2, 3)
        empty = BlockedList(load=2)
        with pytest.raises(CorruptionError):
            empty.replace(0, 1)

    def test_splits_bound_block_size(self):
        bl = BlockedList(load=2)
        for key in range(100):
            bl.insert(key)
        assert all(len(block) < 4 for block in bl.blocks)
        assert len(bl.blocks) > 10
        bl.check("split")

    def test_iter_from(self):
        bl = BlockedList(load=2)
        for key in range(0, 20, 2):
            bl.insert(key)
        assert list(bl.iter_from(7)) == [8, 10, 12, 14, 16, 18]
        assert list(bl.iter_from(8)) == [8, 10, 12, 14, 16, 18]
        assert list(bl.iter_from(19)) == []
        assert list(bl.iter_from(-5)) == list(bl)
        assert list(BlockedList().iter_from(0)) == []

    def test_tuple_keys(self):
        """The size tier stores (length, start) pairs — ordering is lex."""
        bl = BlockedList(load=2)
        for pair in [(4, 100), (4, 50), (2, 300), (8, 0)]:
            bl.insert(pair)
        assert bl.first_ge((4, -1)) == (4, 50)
        assert bl.first_ge((5, -1)) == (8, 0)
        assert bl.last() == (8, 0)
        bl.check("tuples")

    def test_bad_load_rejected(self):
        with pytest.raises(CorruptionError):
            BlockedList(load=1)


def _max_weight(bl):
    return max(bl.summary(bi)[0] for bi in range(len(bl.blocks)))


class TestAugmentation:
    def test_max_tracked_through_churn(self):
        weights = {}
        bl = BlockedList(load=2, augment=MaxWeightAugmentation(weights.get))
        for key, w in [(0, 5), (10, 9), (20, 9), (30, 1)]:
            weights[key] = w
            bl.insert(key, weight=w)
        assert _max_weight(bl) == 9
        bl.check("aug")
        # Removing one of the tied maxima decrements the count.
        bl.remove(10, weight=9)
        del weights[10]
        bl.check("aug")
        assert _max_weight(bl) == 9
        # Removing the last maximum leaves the entry stale; the next
        # read rescans to the next max.
        bl.remove(20, weight=9)
        del weights[20]
        assert None in bl.sums
        bl.check("aug")
        assert _max_weight(bl) == 5
        assert None not in bl.sums

    def test_replace_updates_summary(self):
        weights = {}
        bl = BlockedList(load=4, augment=MaxWeightAugmentation(weights.get))
        for key, w in [(0, 3), (10, 7)]:
            weights[key] = w
            bl.insert(key, weight=w)
        del weights[10]
        weights[12] = 2
        bl.replace(10, 12, old_weight=7, new_weight=2)
        bl.check("aug-replace")
        assert bl.summary(0) == (3, 1)


class _PickledAsIs(BlockedList):
    """Pickles without the refresh, as a writer unaware of it would."""

    __slots__ = ()
    __reduce_ex__ = object.__reduce_ex__


class TestLazySummaries:
    """A summary that cannot be updated in O(1) goes stale (``None``)
    instead of being rescanned; ``summary(bi)`` refreshes on demand."""

    @staticmethod
    def _counted(weights):
        """An augmentation whose ``summarize`` calls are counted."""
        calls = []

        class Counting(MaxWeightAugmentation):
            def summarize(self, block):
                calls.append(len(block))
                return super().summarize(block)

        return Counting(weights.__getitem__), calls

    def test_mutations_never_rescan(self):
        weights = {key: 1 + key % 7 for key in range(0, 400, 2)}
        augment, calls = self._counted(weights)
        bl = BlockedList(load=4, augment=augment)
        for key, w in weights.items():
            bl.insert(key, weight=w)              # splits included
        for key in range(0, 400, 6):              # maxima included
            bl.remove(key, weight=weights.pop(key))
        for key in list(weights)[::5]:            # boundary moves
            w = weights.pop(key)
            weights[key + 1] = 1 + w % 3
            bl.replace(key, key + 1, old_weight=w,
                       new_weight=weights[key + 1])
        assert calls == []
        assert None in bl.sums
        bl.check("lazy")                          # accepts the stale ones

    def test_summary_refreshes_once(self):
        weights = {0: 3, 10: 7, 20: 5}
        augment, calls = self._counted(weights)
        bl = BlockedList(load=8, augment=augment)
        for key, w in weights.items():
            bl.insert(key, weight=w)
        bl.remove(10, weight=weights.pop(10))
        assert bl.sums == [None]
        assert bl.summary(0) == (5, 1)
        assert bl.sums == [(5, 1)]
        assert bl.summary(0) == (5, 1)
        assert calls == [2]

    def test_stale_entry_stays_stale_under_mutation(self):
        weights = {0: 3, 10: 7}
        bl = BlockedList(load=8,
                         augment=MaxWeightAugmentation(weights.__getitem__))
        for key, w in weights.items():
            bl.insert(key, weight=w)
        bl.remove(10, weight=weights.pop(10))
        weights[20] = 9
        bl.insert(20, weight=9)                   # would be the new max
        weights[21] = 2
        del weights[20]
        bl.replace(20, 21, old_weight=9, new_weight=2)
        assert bl.sums == [None]
        assert bl.summary(0) == (3, 1)

    def test_pickle_does_not_depend_on_which_summaries_were_read(self):
        """Stored checkpoint bytes are charged to the modelled clock, so
        a stale list must pickle exactly like a fully read one."""
        def build():
            weights = {key: 1 + key % 5 for key in range(40)}
            bl = BlockedList(load=4,
                             augment=MaxWeightAugmentation(weights.get))
            for key, w in weights.items():
                bl.insert(key, weight=w)
            return bl

        stale, read = build(), build()
        assert None in stale.sums                 # split halves
        for bi in range(len(read.blocks)):
            read.summary(bi)
        data = pickle.dumps(stale)
        assert data == pickle.dumps(read)
        clone = pickle.loads(data)
        assert clone.sums == read.sums
        assert list(clone) == list(read)
        clone.check("pickled")

    def test_stale_entries_survive_unpickling(self):
        """A pickle that does hold ``None`` entries loads and heals."""
        weights = {0: 3, 10: 7, 20: 5}
        bl = _PickledAsIs(load=8, augment=MaxWeightAugmentation(weights.get))
        for key, w in weights.items():
            bl.insert(key, weight=w)
        bl.remove(10, weight=weights.pop(10))
        clone = pickle.loads(pickle.dumps(bl))
        assert clone.sums == bl.sums == [None]
        clone.check("stale pickle")
        assert clone.summary(0) == (5, 1)

    def test_check_catches_wrong_fresh_summary(self):
        weights = {0: 3, 10: 7}
        bl = BlockedList(load=8,
                         augment=MaxWeightAugmentation(weights.__getitem__))
        for key, w in weights.items():
            bl.insert(key, weight=w)
        bl.sums[0] = (7, 2)
        with pytest.raises(CorruptionError, match="wrong summary"):
            bl.check("corrupt")

    def test_summarize_matches_the_loop_it_replaced(self):
        def loop(weight, block):
            mx = cnt = 0
            for key in block:
                w = weight(key)
                if w > mx:
                    mx, cnt = w, 1
                elif w == mx:
                    cnt += 1
            return mx, cnt

        weights = {key: 1 + (key * 7919) % 13 for key in range(64)}
        augment = MaxWeightAugmentation(weights.__getitem__)
        for stop in (0, 1, 2, 13, 64):
            block = list(range(stop))
            assert augment.summarize(block) == \
                loop(weights.__getitem__, block)


@st.composite
def operations(draw):
    return draw(st.lists(
        st.tuples(
            st.sampled_from(["insert", "remove", "pred_le", "pred_lt",
                             "succ_gt", "first_ge"]),
            st.integers(min_value=0, max_value=200),
        ),
        max_size=120,
    ))


@given(operations(), st.integers(min_value=2, max_value=8))
@settings(max_examples=150, deadline=None)
def test_blockedlist_matches_sorted_list_model(ops, load):
    bl = BlockedList(load=load)
    model: list[int] = []
    for op, key in ops:
        if op == "insert":
            if key not in model:
                bl.insert(key)
                bisect.insort(model, key)
        elif op == "remove":
            assert bl.remove(key) == (key in model)
            if key in model:
                model.remove(key)
        elif op == "pred_le":
            assert bl.pred_le(key) == model_pred_le(model, key)
        elif op == "pred_lt":
            assert bl.pred_lt(key) == model_pred_lt(model, key)
        elif op == "succ_gt":
            assert bl.succ_gt(key) == model_succ_gt(model, key)
        elif op == "first_ge":
            assert bl.first_ge(key) == model_first_ge(model, key)
        bl.check("model")
        assert list(bl) == model
        assert len(bl) == len(model)
    assert list(bl.iter_desc()) == model[::-1]
    if model:
        mid = model[len(model) // 2]
        assert list(bl.iter_from(mid)) == model[len(model) // 2:]


@given(st.lists(
    st.tuples(st.integers(min_value=0, max_value=100),
              st.integers(min_value=1, max_value=50)),
    max_size=80,
))
@settings(max_examples=100, deadline=None)
def test_augmented_summaries_always_fresh(pairs):
    """Insert/remove churn never leaves a wrong summary: every entry is
    stale (``None``) or exact, and reading it gives the exact one."""
    weights: dict[int, int] = {}
    bl = BlockedList(load=3, augment=MaxWeightAugmentation(weights.get))
    for key, w in pairs:
        if key in weights:
            bl.remove(key, weight=weights.pop(key))
        else:
            weights[key] = w
            bl.insert(key, weight=w)
        bl.check("aug-model")  # check() recomputes and compares summaries
    for bi, block in enumerate(bl.blocks):
        assert bl.summary(bi) == bl.augment.summarize(block)
