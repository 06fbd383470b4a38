"""Span tracer for the whole-run benchmark: per-layer self time from outside.

Host timers may not live in ``src/`` (reprolint RPL102), so the layer
split is measured by patching each layer's **public** entry points at
class/module level for the duration of one traced pass and restoring
them afterwards.  The tracer keeps a call stack: a span's *self* time is
its duration minus the part its child spans cover, so private helpers
are charged to the nearest enclosing public entry and the self times of
all spans partition the traced time exactly (recursion included — an
inner call's time is a child of the outer one, never counted twice).

The struct/alloc boundaries see millions of calls per run, so spans are
aggregated in place per ``(layer, function)``; individual spans are kept
only where asked (``keep=True``: the data ops of the object stores), and
only the outermost of nested kept spans — a sharded store's ``put`` is
kept, the leaf ``put`` it fans out to is not.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: Index of each field in an aggregate record.
CALLS, SELF_S, INCL_S, ITEMS = 0, 1, 2, 3


class Tracer:
    """Aggregating span recorder plus the patch/restore bookkeeping."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: ``(layer, function) -> [calls, self_s, inclusive_s, items]``;
        #: ``items`` counts what an iterator entry point yielded.
        self.records: dict[tuple[str, str], list] = {}
        #: Kept spans: ``(function, start, end)``, outermost only.
        self.spans: list[tuple[str, float, float]] = []
        # One child-time accumulator per open span.
        self._stack: list[float] = []
        self._keep_depth = 0
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _record(self, layer: str, name: str) -> list:
        return self.records.setdefault((layer, name), [0, 0.0, 0.0, 0])

    def wrap(self, func: Callable, layer: str, name: str, *,
             keep: bool = False,
             observe: Callable[[tuple, dict, Any], None] | None = None
             ) -> Callable:
        """``func`` with every call recorded as a span of ``layer``.

        ``observe(args, kwargs, result)`` runs after a call that
        returned, outside its span — for counts that live in an
        argument or the result (requests per batch, bytes stored).
        """
        rec = self._record(layer, name)
        stack = self._stack
        clock = self.clock

        if not keep and observe is None:
            @functools.wraps(func)
            def traced(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                try:
                    return func(*args, **kwargs)
                finally:
                    spent = clock() - start
                    rec[CALLS] += 1
                    rec[SELF_S] += spent - stack.pop()
                    rec[INCL_S] += spent
                    if stack:
                        stack[-1] += spent
            return traced

        spans = self.spans

        @functools.wraps(func)
        def traced_slow(*args, **kwargs):
            outermost = keep and self._keep_depth == 0
            if keep:
                self._keep_depth += 1
            stack.append(0.0)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                spent = end - start
                rec[CALLS] += 1
                rec[SELF_S] += spent - stack.pop()
                rec[INCL_S] += spent
                if stack:
                    stack[-1] += spent
                if keep:
                    self._keep_depth -= 1
                    if outermost:
                        spans.append((name, start, end))
            if observe is not None:
                observe(args, kwargs, result)
            return result
        return traced_slow

    def wrap_iter(self, func: Callable, layer: str, name: str) -> Callable:
        """Wrap an iterator-returning entry point.

        Each ``next()`` on the result is a span of ``layer`` (the
        producer runs there, whoever consumes), and yielded items are
        counted.  The consumer may abandon the iterator early; nothing
        is open across a ``yield``.
        """
        rec = self._record(layer, name)
        stack = self._stack
        clock = self.clock

        @functools.wraps(func)
        def traced_iter(*args, **kwargs):
            advance = iter(func(*args, **kwargs)).__next__
            rec[CALLS] += 1
            while True:
                stack.append(0.0)
                start = clock()
                try:
                    item = advance()
                except StopIteration:
                    return
                finally:
                    spent = clock() - start
                    rec[SELF_S] += spent - stack.pop()
                    rec[INCL_S] += spent
                    if stack:
                        stack[-1] += spent
                rec[ITEMS] += 1
                yield item
        return traced_iter

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch_method(self, cls: type, attr: str, layer: str, *,
                     kind: str = "call", keep: bool = False,
                     observe: Callable | None = None) -> None:
        """Replace ``cls.attr`` (a plain function defined on ``cls``)."""
        original = cls.__dict__[attr]
        if not isinstance(original, types.FunctionType):
            raise TypeError(f"{cls.__name__}.{attr} is not a plain method")
        name = f"{cls.__name__}.{attr}"
        if kind == "iter":
            wrapper = self.wrap_iter(original, layer, name)
        else:
            wrapper = self.wrap(original, layer, name, keep=keep,
                                observe=observe)
        self._set(cls, attr, original, wrapper)

    def patch_function(self, module: types.ModuleType, attr: str,
                       layer: str, *, prefix: str = "repro") -> None:
        """Replace a module-level function everywhere it was imported.

        ``from x import f`` copies the reference into the importing
        module, so every loaded ``prefix`` module whose ``attr`` *is*
        the original gets the wrapper.
        """
        original = getattr(module, attr)
        wrapper = self.wrap(original, layer, attr)
        for modname in sorted(sys.modules):
            if modname != prefix and not modname.startswith(prefix + "."):
                continue
            mod = sys.modules[modname]
            if mod is not None and vars(mod).get(attr) is original:
                self._set(mod, attr, original, wrapper)

    def patch_value(self, owner: Any, attr: str, value: Any) -> None:
        """Replace an arbitrary attribute (e.g. a module reference)."""
        self._set(owner, attr, getattr(owner, attr), value)

    def _set(self, owner: Any, attr: str, original: Any, new: Any) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, new)

    def restore(self) -> None:
        """Put every patched attribute back (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, plan: Callable[["Tracer"], None]) -> Iterator["Tracer"]:
        """Apply ``plan(self)`` for the block; always restore."""
        try:
            plan(self)
            yield self
        finally:
            self.restore()

    # ------------------------------------------------------------------
    # Reading results
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero the aggregates and drop kept spans.  Call between spans
        only (the stack is empty at the driver's phase boundaries)."""
        for rec in self.records.values():
            rec[:] = [0, 0.0, 0.0, 0]
        self.spans.clear()

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """``layer -> {"calls", "self_s"}`` summed over its functions."""
        out: dict[str, dict[str, float]] = {}
        for (layer, _name), rec in sorted(self.records.items()):
            agg = out.setdefault(layer, {"calls": 0, "self_s": 0.0})
            agg["calls"] += rec[CALLS]
            agg["self_s"] += rec[SELF_S]
        return out

    def get(self, layer: str, name: str) -> list:
        """One function's record (zeros when it was never patched)."""
        return self.records.get((layer, name), [0, 0.0, 0.0, 0])


# ----------------------------------------------------------------------
# This repository's layers
# ----------------------------------------------------------------------
#: Every public plain method the class itself defines.
PUBLIC = "*"

#: The ObjectStore protocol (repro.backends.base).
STORE_PROTOCOL = (
    "put", "get", "overwrite", "delete", "exists", "meta", "keys",
    "read_many", "object_extents", "devices", "free_bytes", "store_stats",
)
#: Protocol methods that move object data: one top-level call = one op.
STORE_DATA_OPS = ("put", "get", "overwrite", "delete", "read_many")

_SCHEDULER_METHODS = ("record_round", "record_stall", "start_window",
                      "end_window")

#: ``(layer, module, class, methods, iterator methods)``.
CLASS_ENTRY_POINTS = (
    ("struct", "repro.struct.blockedlist", "BlockedList", PUBLIC,
     ("iter_desc", "iter_from")),
    ("struct", "repro.struct.blockedlist", "MaxWeightAugmentation",
     ("summarize",), ()),
    ("alloc", "repro.alloc.freelist", "FreeExtentIndex", PUBLIC,
     ("runs_by_size_desc",)),
    ("alloc", "repro.alloc.runcache", "NtfsRunCache",
     ("choose", "allocate", "try_extend"), ()),
    ("disk", "repro.disk.device", "BlockDevice",
     ("submit", "submit_policy", "read_extents", "write_extents", "read",
      "write", "charge_sequential_write", "flush"), ()),
    ("disk.events", "repro.disk.schedule", "ShardScheduler",
     _SCHEDULER_METHODS, ()),
    ("disk.events", "repro.disk.events", "EventScheduler",
     _SCHEDULER_METHODS + ("drain", "set_arrival"), ()),
    ("disk.events", "repro.disk.events", "LatencyHistogram",
     ("record", "percentile"), ()),
    ("fs", "repro.fs.filesystem", "SimFilesystem", PUBLIC, ()),
    ("db", "repro.db.database", "SimDatabase",
     ("put_blob", "get_blob", "replace_blob", "delete_blob", "commit",
      "checkpoint"), ()),
    ("db", "repro.db.blobstore", "BlobStore", ("put", "get", "delete"), ()),
    ("backends", "repro.backends.file_backend", "FileBackend",
     STORE_PROTOCOL, ()),
    ("backends", "repro.backends.blob_backend", "BlobBackend",
     STORE_PROTOCOL, ()),
    ("backends", "repro.backends.lfs_backend", "LfsBackend",
     STORE_PROTOCOL, ()),
    ("backends", "repro.backends.gfs_backend", "GfsChunkBackend",
     STORE_PROTOCOL, ()),
    ("backends.sharded", "repro.backends.sharded", "ShardedStore",
     STORE_PROTOCOL + ("rebuild", "rebalance", "background_write"), ()),
    ("scenario", "repro.scenario.engine", "TenantState", ("pick_key",), ()),
    ("persist", "repro.persist.checkpoint", "CheckpointManager",
     ("save", "load", "load_latest"), ()),
)

#: ``(layer, module, functions)``.
FUNCTION_ENTRY_POINTS = (
    ("alloc", "repro.alloc.policy",
     ("allocate_contiguous", "allocate_fragmented")),
    ("scenario", "repro.scenario.engine",
     ("scenario_bulk_load", "scenario_step", "scenario_to_age")),
    ("core", "repro.core.workload",
     ("bulk_load", "churn_step", "churn_to_age", "read_sweep")),
    ("core", "repro.core.throughput", ("measure_read_throughput",)),
    ("core", "repro.core.fragmentation", ("fragment_report",)),
    ("persist", "repro.persist.snapshot",
     ("encode_free_index", "decode_free_index", "encode_journal",
      "verify_journal")),
    ("persist", "repro.persist.rebuild",
     ("cross_check", "rebuild_fs_free_index")),
    ("persist", "repro.persist.delta", ("encode_delta", "apply_delta")),
)

#: Layers in reporting order.
LAYERS = ("struct", "alloc", "disk", "disk.events", "fs", "db", "backends",
          "backends.sharded", "scenario", "core", "persist")


def public_methods(cls: type) -> list[str]:
    """Names of the plain, non-underscore methods ``cls`` defines."""
    return [name for name, value in vars(cls).items()
            if isinstance(value, types.FunctionType)
            and not name.startswith("_")]


def instrument(tracer: Tracer, counters: dict[str, int]) -> None:
    """Patch every layer entry point of the ``repro`` package.

    ``counters`` receives the counts that live in arguments or results
    rather than in the call count: ``disk.requests`` (requests over all
    submitted batches) and ``persist.stored_bytes`` /
    ``persist.full_bytes`` (checkpoint payload as written / as it would
    be without deltas).
    """
    # Import the driver first: it pulls in every layer, so the
    # ``from x import f`` copies patch_function looks for all exist.
    experiment = importlib.import_module("repro.core.experiment")
    counters.update({"disk.requests": 0, "persist.stored_bytes": 0,
                     "persist.full_bytes": 0})

    def count_requests(args: tuple, _kwargs: dict, _result: Any) -> None:
        counters["disk.requests"] += len(args[1])

    def count_saved(_args: tuple, _kwargs: dict, saved: Any) -> None:
        for info in saved.files.values():
            counters["persist.stored_bytes"] += info["bytes"]
            counters["persist.full_bytes"] += info.get("content_bytes",
                                                       info["bytes"])

    observers = {("BlockDevice", "submit"): count_requests,
                 ("CheckpointManager", "save"): count_saved}
    for layer, modname, clsname, methods, iters in CLASS_ENTRY_POINTS:
        cls = getattr(importlib.import_module(modname), clsname)
        names = public_methods(cls) if methods == PUBLIC else methods
        is_store = methods[:len(STORE_PROTOCOL)] == STORE_PROTOCOL
        for attr in names:
            tracer.patch_method(
                cls, attr, layer,
                kind="iter" if attr in iters else "call",
                keep=is_store and attr in STORE_DATA_OPS,
                observe=observers.get((clsname, attr)))
    for layer, modname, functions in FUNCTION_ENTRY_POINTS:
        module = importlib.import_module(modname)
        for attr in functions:
            tracer.patch_function(module, attr, layer)
    # The driver pickles through its own ``pickle`` reference; swap in a
    # stand-in whose dumps/loads are spans of the persist layer.
    real = experiment.pickle
    tracer.patch_value(experiment, "pickle", types.SimpleNamespace(
        dumps=tracer.wrap(real.dumps, "persist", "pickle.dumps"),
        loads=tracer.wrap(real.loads, "persist", "pickle.loads"),
    ))
