"""RPL1xx: determinism rules.

The simulator's headline contract is bit-exactness: resume ≡
uninterrupted run, closed arrivals ≡ ``round_makespan``, same seed ≡
same bytes.  These rules ban the ambient-nondeterminism entry points
(wall clock, OS entropy, the global ``random`` module, unordered
iteration) from the code paths where order and entropy are part of
the contract.

All name matching goes through the file's import-alias table
(:meth:`FileContext.dotted`): ``self._rng.random()`` never fires
because ``self._rng`` is not an imported name.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.reprolint.engine import FileContext, Finding, rule

#: Ambient wall-clock / entropy sources: never acceptable anywhere in
#: the repo — simulated time comes from the cost model, entropy from
#: seeded RNGs.
_BANNED_EVERYWHERE = {
    "time.time", "time.time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "os.urandom",
    "uuid.uuid1", "uuid.uuid4",
    "random.SystemRandom",
}

#: Host timers: fine in benchmarks (they measure the host), banned in
#: the simulator proper (RULE_SCOPES limits this rule to ``src/*``).
_HOST_TIMERS = {
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "time.sleep",
}

#: ``random`` attributes that do *not* touch the shared global RNG.
_GLOBAL_RNG_SAFE = {
    "random.Random", "random.SystemRandom", "random.seed",
    "random.getstate", "random.setstate",
}


def _resolved_loads(ctx: FileContext) -> Iterator[tuple[ast.AST, str]]:
    """Yield ``(node, dotted_name)`` for every resolvable value read."""
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.Attribute, ast.Name)) and \
                isinstance(node.ctx, ast.Load):
            name = ctx.dotted(node)
            if name is not None:
                yield node, name


@rule("RPL101", "wall-clock-entropy",
      hint="simulated time lives in the cost model; entropy comes from "
           "repro.rng seeds")
def check_wall_clock(ctx: FileContext) -> Iterator[Finding]:
    """Ban wall-clock and OS-entropy sources repo-wide."""
    for node, name in _resolved_loads(ctx):
        if name in _BANNED_EVERYWHERE or name.startswith("secrets."):
            yield Finding(ctx.path, node.lineno, "RPL101",
                          f"nondeterministic source `{name}`")


@rule("RPL102", "host-timer", include=("src/*",),
      hint="simulation code must charge simulated time, not read the "
           "host clock")
def check_host_timer(ctx: FileContext) -> Iterator[Finding]:
    """Ban host timers inside the simulator (benchmarks may time the host)."""
    for node, name in _resolved_loads(ctx):
        if name in _HOST_TIMERS:
            yield Finding(ctx.path, node.lineno, "RPL102",
                          f"host timer `{name}` in simulation code")


@rule("RPL103", "rng-construction",
      include=("src/*",), exclude=("src/repro/rng.py",),
      hint="construct RNGs via repro.rng.make_rng / substream so every "
           "stream is seeded and labelled")
def check_rng_construction(ctx: FileContext) -> Iterator[Finding]:
    """Only repro/rng.py may touch the ``random`` module inside src/."""
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = ctx.dotted(node.func)
        if name is not None and name.startswith("random."):
            yield Finding(ctx.path, node.lineno, "RPL103",
                          f"direct `{name}(...)` call outside repro.rng")


@rule("RPL104", "unseeded-randomness",
      include=("benchmarks/*", "tests/*"),
      hint="seed explicitly: `random.Random(seed)`; never the shared "
           "module-level RNG")
def check_unseeded(ctx: FileContext) -> Iterator[Finding]:
    """Benchmarks/tests must not lean on the global or unseeded RNG."""
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = ctx.dotted(node.func)
        if name is None or not name.startswith("random."):
            continue
        if name == "random.Random" and not node.args and not node.keywords:
            yield Finding(ctx.path, node.lineno, "RPL104",
                          "`random.Random()` without a seed")
        elif name == "random.seed" and not node.args:
            yield Finding(ctx.path, node.lineno, "RPL104",
                          "`random.seed()` without a seed reseeds from "
                          "OS entropy")
        elif name not in _GLOBAL_RNG_SAFE:
            yield Finding(ctx.path, node.lineno, "RPL104",
                          f"`{name}(...)` uses the shared module-level "
                          "RNG")


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset"))


@rule("RPL105", "set-iteration",
      hint="iterate `sorted(...)` of the set, or keep a list for order")
def check_set_iteration(ctx: FileContext) -> Iterator[Finding]:
    """Flag direct iteration over set displays/constructors."""
    for node in ast.walk(ctx.tree):
        iters: list[ast.expr] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iters.extend(gen.iter for gen in node.generators)
        for it in iters:
            if _is_set_expr(it):
                yield Finding(ctx.path, it.lineno, "RPL105",
                              "iteration over a set is unordered")


def _is_values_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "values"
            and not node.args and not node.keywords)


def _values_iter(node: ast.expr) -> bool:
    """True when an iterable expression is ``<x>.values()`` (or a
    genexp/comprehension drawing from one)."""
    if _is_values_call(node):
        return True
    if isinstance(node, (ast.GeneratorExp, ast.ListComp)):
        return any(_is_values_call(gen.iter) for gen in node.generators)
    return False


@rule("RPL106", "values-accumulation",
      include=("src/repro/alloc/*", "src/repro/backends/*"),
      hint="iterate `sorted(d)` keys (or another explicit order) so the "
           "reduction order is part of the contract")
def check_values_accumulation(ctx: FileContext) -> Iterator[Finding]:
    """Flag reductions over ``dict.values()`` in accounting modules.

    Insertion order is deterministic *today*, but it is an accident of
    mutation history; the bit-exactness contract wants reductions in an
    order the reader can state.  ``sorted(...)`` wrappers are exempt
    because they impose one.
    """
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Name) and \
                node.func.id == "sum" and node.args:
            if _values_iter(node.args[0]):
                yield Finding(ctx.path, node.lineno, "RPL106",
                              f"`{node.func.id}(...)` over `.values()` "
                              "has no stated order")
        elif isinstance(node, ast.Call) and \
                ctx.dotted(node.func) == "math.fsum" and node.args:
            if _values_iter(node.args[0]):
                yield Finding(ctx.path, node.lineno, "RPL106",
                              "`math.fsum(...)` over `.values()` has no "
                              "stated order")
        elif isinstance(node, (ast.For, ast.AsyncFor)) and \
                _is_values_call(node.iter):
            if any(isinstance(sub, ast.AugAssign)
                   for stmt in node.body for sub in ast.walk(stmt)):
                yield Finding(ctx.path, node.iter.lineno, "RPL106",
                              "accumulation loop over `.values()` has "
                              "no stated order")


def _is_builtin_hash(ctx: FileContext, func: ast.expr) -> bool:
    if isinstance(func, ast.Name) and func.id == "hash":
        return func.id not in ctx.aliases
    return ctx.dotted(func) == "builtins.hash"


@rule("RPL107", "builtin-hash", include=("src/*",),
      hint="str/bytes hashes follow PYTHONHASHSEED; derive a stable key "
           "with `zlib.crc32(str(key).encode(\"utf-8\"))`")
def check_builtin_hash(ctx: FileContext) -> Iterator[Finding]:
    """Ban builtin ``hash()`` calls in the simulator (``__hash__`` bodies
    are exempt: they only key dicts and sets)."""
    def calls(node: ast.AST) -> Iterator[ast.Call]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and child.name == "__hash__":
                continue
            if isinstance(child, ast.Call) and \
                    _is_builtin_hash(ctx, child.func):
                yield child
            yield from calls(child)

    for node in calls(ctx.tree):
        yield Finding(ctx.path, node.lineno, "RPL107",
                      "builtin `hash()` varies with the hash seed")
