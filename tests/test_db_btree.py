"""Tests for the Exodus-style LOB B-tree."""

import itertools

import pytest

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
    def test_page_at(self):
        tree, _ = make_tree()
        tree.append_run(100, 10)
        tree.append_run(500, 10)
        assert tree.page_at(0) == 100
        assert tree.page_at(9) == 109
        assert tree.page_at(10) == 500
        assert tree.page_at(19) == 509

    def test_page_at_bounds(self):
        tree, _ = make_tree()
        tree.append_run(0, 5)
        with pytest.raises(ConfigError):
            tree.page_at(5)
        with pytest.raises(ConfigError):
            tree.page_at(-1)

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

    def test_page_at_deep_tree(self):
        tree, _ = make_tree(fanout=4)
        for i in range(100):
            tree.append_run(i * 10, 2)
        for i in range(100):
            assert tree.page_at(i * 2) == i * 10
            assert tree.page_at(i * 2 + 1) == i * 10 + 1


class TestInsert:
    def test_insert_at_front(self):
        tree, _ = make_tree()
        tree.append_run(100, 5)
        tree.insert_run(0, 500, 2)
        assert tree.all_runs() == [(500, 2), (100, 5)]
        assert tree.page_at(0) == 500

    def test_insert_mid_run_splits(self):
        tree, _ = make_tree()
        tree.append_run(100, 10)
        tree.insert_run(4, 900, 2)
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
        tree.insert_run(5, 900, 1)
        after = set()
        for run_start, count in tree.all_runs():
            after.update(range(run_start, run_start + count))
        assert before <= after

    def test_insert_merges_when_physically_adjacent(self):
        tree, _ = make_tree()
        tree.append_run(100, 4)
        tree.append_run(200, 4)
        tree.insert_run(4, 104, 2)  # physically continues the first run
        assert tree.all_runs() == [(100, 6), (200, 4)]

    def test_insert_position_validation(self):
        tree, _ = make_tree()
        tree.append_run(0, 5)
        with pytest.raises(ConfigError):
            tree.insert_run(6, 100, 1)
        with pytest.raises(ConfigError):
            tree.insert_run(0, 100, 0)


class TestDelete:
    def test_delete_range_returns_physical_runs(self):
        tree, _ = make_tree()
        tree.append_run(100, 10)
        removed = tree.delete_range(2, 4)
        assert removed == [(102, 4)]
        assert tree.all_runs() == [(100, 2), (106, 4)]
        assert tree.total_pages == 6

    def test_delete_across_runs(self):
        tree, _ = make_tree()
        tree.append_run(100, 5)
        tree.append_run(300, 5)
        removed = tree.delete_range(3, 4)
        assert removed == [(103, 2), (300, 2)]
        assert tree.all_runs() == [(100, 3), (302, 3)]

    def test_delete_everything(self):
        tree, _ = make_tree()
        tree.append_run(100, 5)
        assert tree.delete_range(0, 5) == [(100, 5)]
        assert tree.total_pages == 0

    def test_clear_keeps_tree_usable(self):
        tree, _ = make_tree()
        tree.append_run(100, 5)
        assert tree.clear() == [(100, 5)]
        tree.append_run(200, 3)
        assert tree.all_runs() == [(200, 3)]

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


class TestStress:
    def test_random_insert_delete_against_reference(self):
        """The tree must agree with a plain list model through an
        arbitrary operation sequence."""
        import random

        rng = random.Random(9)
        tree, _ = make_tree(fanout=4)
        model: list[int] = []
        next_page = 0
        for _ in range(300):
            op = rng.random()
            if op < 0.55 or not model:
                count = rng.randint(1, 6)
                pos = rng.randint(0, len(model))
                tree.insert_run(pos, next_page, count)
                model[pos:pos] = range(next_page, next_page + count)
                next_page += count + 3  # gap prevents accidental merges
            else:
                start = rng.randint(0, len(model) - 1)
                count = rng.randint(1, min(5, len(model) - start))
                removed = tree.delete_range(start, count)
                flat = [
                    page
                    for run_start, run_count in removed
                    for page in range(run_start, run_start + run_count)
                ]
                assert flat == model[start:start + count]
                del model[start:start + count]
            tree.check_invariants()
            assert tree.total_pages == len(model)
        reconstructed = [
            page
            for run_start, run_count in tree.all_runs()
            for page in range(run_start, run_start + run_count)
        ]
        assert reconstructed == model


class TestCountCache:
    def test_appends_do_not_recount_the_leaves(self, monkeypatch):
        """The object's page count is kept, not re-summed per append
        (a 10 MB BLOB is 160 appends into one leaf), and an append walks
        the rightmost spine, never the general insert — in a one-leaf
        tree and in one six levels deep alike."""
        from repro.db import btree

        recounts = []
        real = btree._Node.total_pages
        monkeypatch.setattr(
            btree._Node, "total_pages",
            lambda node: recounts.append(node) or real(node))
        for name in ("_insert", "_leaf_insert"):
            monkeypatch.setattr(
                btree.LobTree, name,
                lambda *args, name=name: pytest.fail(f"append took {name}"))
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
        tree.insert_run(7, 500, 5)
        assert tree.total_pages == 45
        tree.delete_range(3, 11)
        assert tree.total_pages == 34
        tree.check_invariants()
        tree.clear()
        assert tree.total_pages == 0
        tree.append_run(0, 4)
        assert tree.destroy() == [(0, 4)]
        assert tree.total_pages == 0

    def test_check_invariants_recounts(self):
        from repro.errors import CorruptionError

        tree, _ = make_tree()
        tree.append_run(0, 4)
        tree._count += 1
        with pytest.raises(CorruptionError, match="page count"):
            tree.check_invariants()
