"""Exodus-style large-object B-tree (the LOB tree).

SQL Server stores large out-of-row values the way the Exodus storage
manager did (Carey et al., VLDB 1986): a B-tree keyed by *byte position*
whose leaves point at data pages.  This gives O(log n) random access into
a huge object and efficient insertion/deletion of ranges *within* the
object — the capability the paper's Section 2 contrasts with
rewrite-the-tail filesystems.

:class:`LobTree` is a counted B+-tree: leaves hold *runs* of physically
consecutive pages ``(start_page, count)``, interior nodes hold children,
and position lookups descend by subtracting subtree page counts rather
than comparing stored keys.  Only the whole-object count is cached
(kept on every insert and delete: bounds checks are O(1)); a subtree's
count is recounted from its leaves on descent.  Interior nodes and
leaves occupy real pages (allocated through a caller-supplied
allocator), so the tree's own pages interleave with data pages on disk
exactly as in SQL Server — an interleaving source the analyzer sees.

Complexity notes: ``append_run`` walks the rightmost spine, O(depth)
with node splits.  ``insert_run``/``page_at`` recount every child they
pass, so with interior nodes they are O(n) in *runs*, as is
``delete_range`` (extract and rebuild).  Runs are the object's fragment
count — hundreds at most — so we trade speed we do not need for
structural simplicity we can test exhaustively.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from repro.db.page import Run, extend_runs
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

    def _drop_node(self, node: _Node) -> None:
        self._free_page(node.page_no)

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
        if count == 0:
            return []
        out: list[Run] = []
        remaining = count
        skip = start
        for run_start, run_count in self._iter_runs(self._root):
            if skip >= run_count:
                skip -= run_count
                continue
            take = min(run_count - skip, remaining)
            out.append((run_start + skip, take))
            remaining -= take
            skip = 0
            if remaining == 0:
                break
        return out

    def page_at(self, position: int) -> int:
        """Physical page holding logical page ``position`` (O(runs))."""
        if not 0 <= position < self.total_pages:
            raise ConfigError(f"position {position} outside object")
        node = self._root
        while not node.leaf:
            for child in node.children:
                pages = child.total_pages()
                if position < pages:
                    node = child
                    break
                position -= pages
            else:
                raise CorruptionError("count descent fell off the tree")
        for run_start, run_count in node.runs:
            if position < run_count:
                return run_start + position
            position -= run_count
        raise CorruptionError("leaf counts disagree with descent")

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
        """``insert_run(total_pages, ...)`` down the rightmost spine only:
        the same merge, splits and node-page allocation order."""
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

    def insert_run(self, position: int, start: int, count: int) -> None:
        """Insert pages so they begin at logical page ``position``.

        The Exodus operation: bytes after ``position`` shift right
        without any data page being rewritten.
        """
        if count <= 0:
            raise ConfigError("count must be positive")
        if start < 0:
            raise ConfigError("start must be >= 0")
        if not 0 <= position <= self.total_pages:
            raise ConfigError(
                f"position {position} outside object of "
                f"{self.total_pages} pages"
            )
        self._count += count
        split = self._insert(self._root, position, (start, count))
        if split is not None:
            self._grow_root(split)

    def _grow_root(self, split: _Node) -> None:
        old_root = self._root
        self._root = self._new_node(leaf=False)
        self._root.children = [old_root, split]

    def _insert(self, node: _Node, position: int, run: Run) -> _Node | None:
        """Recursive insert; returns a new right sibling when ``node`` split."""
        if node.leaf:
            self._leaf_insert(node, position, run)
        else:
            for idx, child in enumerate(node.children):
                pages = child.total_pages()
                # <= lets appends descend into the last child.
                if position <= pages and not (
                    position == pages and idx + 1 < len(node.children)
                ):
                    split = self._insert(child, position, run)
                    if split is not None:
                        node.children.insert(idx + 1, split)
                    break
                position -= pages
            else:
                raise CorruptionError("insert descent fell off the tree")
        if node.leaf and len(node.runs) > self.fanout:
            return self._split_leaf(node)
        if not node.leaf and len(node.children) > self.fanout:
            return self._split_interior(node)
        return None

    def _leaf_insert(self, node: _Node, position: int, run: Run) -> None:
        start, count = run
        # Find the run containing `position`, splitting it if interior.
        for idx, (run_start, run_count) in enumerate(node.runs):
            if position == 0:
                break
            if position < run_count:
                node.runs[idx: idx + 1] = [
                    (run_start, position),
                    (run_start + position, run_count - position),
                ]
                idx += 1
                break
            position -= run_count
        else:
            idx = len(node.runs)
        # Merge with physical neighbours where possible.
        if idx > 0:
            prev_start, prev_count = node.runs[idx - 1]
            if prev_start + prev_count == start:
                node.runs[idx - 1] = (prev_start, prev_count + count)
                self._try_merge_at(node, idx - 1)
                return
        node.runs.insert(idx, (start, count))
        self._try_merge_at(node, idx)

    @staticmethod
    def _try_merge_at(node: _Node, idx: int) -> None:
        """Merge runs[idx] with runs[idx+1] when physically consecutive."""
        if idx + 1 >= len(node.runs):
            return
        start, count = node.runs[idx]
        nxt_start, nxt_count = node.runs[idx + 1]
        if start + count == nxt_start:
            node.runs[idx: idx + 2] = [(start, count + nxt_count)]

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

    def delete_range(self, start: int, count: int) -> list[Run]:
        """Remove logical pages ``[start, start+count)``.

        Returns the physical runs removed (the caller ghosts them).
        Implemented as extract-and-rebuild: runs number in the tens for
        even the paper's most fragmented objects.
        """
        if count == 0:
            return []
        removed_runs = self.runs_in_range(start, count)
        keep_before = self.runs_in_range(0, start)
        tail_start = start + count
        keep_after = self.runs_in_range(
            tail_start, self.total_pages - tail_start
        )
        self._rebuild(keep_before + keep_after)
        return removed_runs

    def clear(self) -> list[Run]:
        """Remove everything; returns all physical runs.

        The tree stays usable (a fresh empty root is built).  Use
        :meth:`destroy` when the object is going away for good —
        ``clear`` would leak the new root's page.
        """
        runs = self.all_runs()
        self._rebuild([])
        return runs

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

    def _rebuild(self, runs: list[Run]) -> None:
        self._drop_all(self._root)
        self._root = self._new_node(leaf=True)
        self._count = 0
        merged: list[Run] = []
        for start, count in runs:
            extend_runs(merged, start, count)
        # Bulk load: build leaves left to right via ordinary appends.
        for start, count in merged:
            self.append_run(start, count)

    def _drop_all(self, node: _Node) -> None:
        if not node.leaf:
            for child in node.children:
                self._drop_all(child)
        self._drop_node(node)

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
