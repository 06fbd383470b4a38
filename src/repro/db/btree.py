"""Exodus-style large-object B-tree (the LOB tree).

SQL Server stores large out-of-row values the way the Exodus storage
manager did (Carey et al., VLDB 1986): a B-tree keyed by *byte position*
whose leaves point at data pages.  Exodus uses the position keys for
range inserts and deletes *within* an object; the paper's workload is
whole-object put, safe-write replace and delete, so here a tree only
ever grows at its logical end and dies whole.

:class:`LobTree` is a counted B+-tree: leaves hold *runs* of physically
consecutive pages ``(start_page, count)`` and interior nodes hold
children.  Only the whole-object count is cached (kept on every append:
bounds checks are O(1)).  Interior nodes and leaves occupy real pages
(allocated through a caller-supplied allocator), so the tree's own
pages interleave with data pages on disk exactly as in SQL Server — an
interleaving source the analyzer sees.

Complexity notes: ``append_run`` walks the rightmost spine, O(depth)
with node splits (the BLOB chunk loop calls it once per page run, and
asks :meth:`LobTree.leaf_room` how many runs fit before a split);
``runs_in_range`` and ``all_runs`` walk the leaves, O(runs).  Runs are
the object's fragment count — hundreds at most.
The general insert at any position is kept as a test reference,
``tests/dboracle.py::general_insert``, which ``append_run`` must match
node for node.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from repro.db.page import Run, extend_runs
from repro.disk.device import slice_spans
from repro.errors import ConfigError, CorruptionError


class _Node:
    __slots__ = ("leaf", "runs", "children", "page_no")

    def __init__(self, *, leaf: bool, page_no: int) -> None:
        self.leaf = leaf
        self.page_no = page_no
        self.runs: list[Run] = []        # leaf payload
        self.children: list[_Node] = []  # interior payload

    def total_pages(self) -> int:
        if self.leaf:
            return sum(count for _, count in self.runs)
        return sum(child.total_pages() for child in self.children)


class LobTree:
    """Counted B+-tree mapping logical page positions to physical runs.

    Parameters
    ----------
    fanout:
        Maximum runs per leaf and children per interior node.
    alloc_node_page / free_node_page:
        Callbacks giving each node a physical page (and returning it on
        node death).  Pass None to keep the tree purely in memory.
    """

    def __init__(self, *, fanout: int = 32,
                 alloc_node_page: Callable[[], int] | None = None,
                 free_node_page: Callable[[int], None] | None = None) -> None:
        if fanout < 4:
            raise ConfigError("fanout must be >= 4")
        self.fanout = fanout
        self._alloc_page = alloc_node_page or (lambda: -1)
        self._free_page = free_node_page or (lambda page_no: None)
        self._root = self._new_node(leaf=True)
        self._count = 0

    # ------------------------------------------------------------------
    # Node lifecycle
    # ------------------------------------------------------------------
    def _new_node(self, *, leaf: bool) -> _Node:
        return _Node(leaf=leaf, page_no=self._alloc_page())

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def total_pages(self) -> int:
        return self._count

    def all_runs(self) -> list[Run]:
        """Every run in logical order."""
        return list(self._iter_runs(self._root))

    def _iter_runs(self, node: _Node) -> Iterator[Run]:
        if node.leaf:
            yield from node.runs
        else:
            for child in node.children:
                yield from self._iter_runs(child)

    def runs_in_range(self, start: int, count: int) -> list[Run]:
        """Physical runs covering logical pages ``[start, start+count)``.

        Raises when the range extends past the object.
        """
        if start < 0 or count < 0 or start + count > self.total_pages:
            raise ConfigError(
                f"range [{start}, {start + count}) outside object of "
                f"{self.total_pages} pages"
            )
        return slice_spans(self._iter_runs(self._root), start, count)

    def node_pages(self) -> list[int]:
        """Physical pages occupied by the tree's own nodes."""
        pages: list[int] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            pages.append(node.page_no)
            if not node.leaf:
                stack.extend(node.children)
        return pages

    def leaf_room(self) -> int:
        """Runs the rightmost leaf takes before an append splits it."""
        return self.fanout - len(self._rightmost_leaf().runs)

    def depth(self) -> int:
        depth = 1
        node = self._root
        while not node.leaf:
            depth += 1
            node = node.children[0]
        return depth

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def append_run(self, start: int, count: int) -> None:
        """Add pages at the logical end, down the rightmost spine: merge
        into the last run when physically consecutive, then split full
        nodes bottom up (a split root grows the tree by one level)."""
        if count <= 0:
            raise ConfigError("count must be positive")
        if start < 0:
            raise ConfigError("start must be >= 0")
        self._count += count
        node, spine = self._root, []
        while not node.leaf:
            spine.append(node)
            node = node.children[-1]
        extend_runs(node.runs, start, count)
        if len(node.runs) <= self.fanout:
            return
        split = self._split_leaf(node)
        while spine:
            node = spine.pop()
            node.children.append(split)
            if len(node.children) <= self.fanout:
                return
            split = self._split_interior(node)
        self._grow_root(split)

    def _rightmost_leaf(self) -> _Node:
        node = self._root
        while not node.leaf:
            node = node.children[-1]
        return node

    def _grow_root(self, split: _Node) -> None:
        old_root = self._root
        self._root = self._new_node(leaf=False)
        self._root.children = [old_root, split]

    def _split_leaf(self, node: _Node) -> _Node:
        sibling = self._new_node(leaf=True)
        half = len(node.runs) // 2
        sibling.runs = node.runs[half:]
        node.runs = node.runs[:half]
        return sibling

    def _split_interior(self, node: _Node) -> _Node:
        sibling = self._new_node(leaf=False)
        half = len(node.children) // 2
        sibling.children = node.children[half:]
        node.children = node.children[:half]
        return sibling

    def destroy(self) -> list[Run]:
        """Tear the tree down completely, freeing every node page.

        Returns the data runs the leaves pointed at.  The tree must not
        be used afterwards.
        """
        runs = self.all_runs()
        self._drop_all(self._root)
        self._root = _Node(leaf=True, page_no=-1)  # inert sentinel
        self._count = 0
        return runs

    def _drop_all(self, node: _Node) -> None:
        if not node.leaf:
            for child in node.children:
                self._drop_all(child)
        self._free_page(node.page_no)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Structure checks used by property tests."""
        self._check_node(self._root, is_root=True)
        if self._count != self._root.total_pages():
            raise CorruptionError("cached page count disagrees with leaves")

    def _check_node(self, node: _Node, *, is_root: bool) -> int:
        if node.leaf:
            for idx, (start, count) in enumerate(node.runs):
                if count <= 0 or start < 0:
                    raise CorruptionError(f"bad run ({start}, {count})")
            if len(node.runs) > self.fanout:
                raise CorruptionError("leaf overflow")
            return 1
        if not node.children:
            raise CorruptionError("empty interior node")
        if len(node.children) > self.fanout:
            raise CorruptionError("interior overflow")
        depths = {
            self._check_node(child, is_root=False)
            for child in node.children
        }
        if len(depths) != 1:
            raise CorruptionError("leaves at unequal depth")
        return depths.pop() + 1
