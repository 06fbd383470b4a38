"""Tests for the Exodus-style LOB B-tree.

The shipped tree grows only by ``append_run``; ``TestInsert`` exercises
the retired general insert, kept as the test oracle
``dboracle.general_insert``, on the same trees.
"""

import itertools

import pytest

from dboracle import general_insert

from repro.db.btree import LobTree
from repro.errors import ConfigError


def make_tree(fanout=4):
    """Small fanout so splits happen early; tracked node pages."""
    counter = itertools.count(1000)
    freed: list[int] = []
    tree = LobTree(
        fanout=fanout,
        alloc_node_page=lambda: next(counter),
        free_node_page=freed.append,
    )
    return tree, freed


class TestAppend:
    def test_empty(self):
        tree, _ = make_tree()
        assert tree.total_pages == 0
        assert tree.all_runs() == []

    def test_single_run(self):
        tree, _ = make_tree()
        tree.append_run(10, 5)
        assert tree.total_pages == 5
        assert tree.all_runs() == [(10, 5)]

    def test_consecutive_appends_merge(self):
        tree, _ = make_tree()
        tree.append_run(10, 5)
        tree.append_run(15, 3)
        assert tree.all_runs() == [(10, 8)]

    def test_discontiguous_appends_stay_separate(self):
        tree, _ = make_tree()
        tree.append_run(10, 5)
        tree.append_run(100, 3)
        assert tree.all_runs() == [(10, 5), (100, 3)]

    def test_many_appends_split_nodes(self):
        tree, _ = make_tree(fanout=4)
        for i in range(50):
            tree.append_run(i * 10, 1)  # never merge (gaps)
        assert tree.total_pages == 50
        assert tree.depth() >= 2
        tree.check_invariants()
        assert tree.all_runs() == [(i * 10, 1) for i in range(50)]


class TestLookup:
    def test_runs_in_range(self):
        tree, _ = make_tree()
        tree.append_run(100, 10)
        tree.append_run(500, 10)
        assert tree.runs_in_range(5, 10) == [(105, 5), (500, 5)]
        assert tree.runs_in_range(0, 20) == [(100, 10), (500, 10)]
        assert tree.runs_in_range(3, 0) == []

    def test_runs_in_range_bounds(self):
        tree, _ = make_tree()
        tree.append_run(0, 5)
        with pytest.raises(ConfigError):
            tree.runs_in_range(0, 6)

    def test_runs_in_range_deep_tree(self):
        tree, _ = make_tree(fanout=4)
        for i in range(100):
            tree.append_run(i * 10, 2)
        assert tree.depth() >= 3
        for i in range(100):
            assert tree.runs_in_range(i * 2, 1) == [(i * 10, 1)]
            assert tree.runs_in_range(i * 2 + 1, 1) == [(i * 10 + 1, 1)]
        assert tree.runs_in_range(1, 4) == [(1, 1), (10, 2), (20, 1)]


class TestInsert:
    def test_insert_at_front(self):
        tree, _ = make_tree()
        tree.append_run(100, 5)
        general_insert(tree, 0, 500, 2)
        assert tree.all_runs() == [(500, 2), (100, 5)]
        assert tree.runs_in_range(0, 1) == [(500, 1)]

    def test_insert_mid_run_splits(self):
        tree, _ = make_tree()
        tree.append_run(100, 10)
        general_insert(tree, 4, 900, 2)
        assert tree.all_runs() == [(100, 4), (900, 2), (104, 6)]
        assert tree.total_pages == 12

    def test_exodus_property_no_data_movement(self):
        # Inserting mid-object shifts logical positions without moving
        # any physical page — the Section 2 contrast with filesystems.
        tree, _ = make_tree()
        tree.append_run(100, 10)
        before = set()
        for run_start, count in tree.all_runs():
            before.update(range(run_start, run_start + count))
        general_insert(tree, 5, 900, 1)
        after = set()
        for run_start, count in tree.all_runs():
            after.update(range(run_start, run_start + count))
        assert before <= after

    def test_insert_merges_when_physically_adjacent(self):
        tree, _ = make_tree()
        tree.append_run(100, 4)
        tree.append_run(200, 4)
        general_insert(tree, 4, 104, 2)  # physically continues the first run
        assert tree.all_runs() == [(100, 6), (200, 4)]

    def test_insert_position_validation(self):
        tree, _ = make_tree()
        tree.append_run(0, 5)
        with pytest.raises(ConfigError):
            general_insert(tree, 6, 100, 1)
        with pytest.raises(ConfigError):
            general_insert(tree, 0, 100, 0)


class TestDelete:
    def test_destroy_frees_all_node_pages(self):
        tree, freed = make_tree(fanout=4)
        for i in range(30):
            tree.append_run(i * 10, 1)
        allocated = set(tree.node_pages())
        tree.destroy()
        assert allocated <= set(freed)

    def test_destroy_leaks_nothing_on_empty_tree(self):
        tree, freed = make_tree()
        root_pages = set(tree.node_pages())
        tree.destroy()
        assert root_pages <= set(freed)


class TestNodePages:
    def test_node_pages_grow_with_tree(self):
        tree, _ = make_tree(fanout=4)
        assert len(tree.node_pages()) == 1  # just the root leaf
        for i in range(20):
            tree.append_run(i * 10, 1)
        assert len(tree.node_pages()) > 1

    def test_in_memory_mode(self):
        tree = LobTree(fanout=8)
        tree.append_run(0, 4)
        assert tree.node_pages() == [-1]

    def test_fanout_validation(self):
        with pytest.raises(ConfigError):
            LobTree(fanout=2)


class TestCountCache:
    def test_appends_do_not_recount_the_leaves(self, monkeypatch):
        """The object's page count is kept, not re-summed per append
        (a 10 MB BLOB is 160 appends into one leaf) — in a one-leaf tree
        and in one six levels deep alike."""
        from repro.db import btree

        recounts = []
        real = btree._Node.total_pages
        monkeypatch.setattr(
            btree._Node, "total_pages",
            lambda node: recounts.append(node) or real(node))
        trees = []
        for fanout in (128, 4):
            tree, _ = make_tree(fanout=fanout)
            for i in range(100):
                tree.append_run(i * 10, 3)
            assert tree.total_pages == 300
            trees.append(tree)
        assert recounts == []
        assert [tree.depth() for tree in trees] == [1, 6]
        monkeypatch.undo()
        for tree in trees:
            tree.check_invariants()
            assert tree.all_runs() == [(i * 10, 3) for i in range(100)]

    def test_count_follows_every_mutation(self):
        tree, _ = make_tree()
        for i in range(20):
            tree.append_run(i * 10, 2)
            assert tree.total_pages == 2 * (i + 1)
        tree.append_run(192, 5)  # merges into the last run
        assert tree.total_pages == 45
        tree.check_invariants()
        assert len(tree.destroy()) == 20
        assert tree.total_pages == 0

    def test_check_invariants_recounts(self):
        from repro.errors import CorruptionError

        tree, _ = make_tree()
        tree.append_run(0, 4)
        tree._count += 1
        with pytest.raises(CorruptionError, match="page count"):
            tree.check_invariants()
