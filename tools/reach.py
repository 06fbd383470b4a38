#!/usr/bin/env python
"""Which ``src/repro`` functions the run paths enter: a report, not a gate.

    python tools/reach.py

Runs every run path of the reproduction in a fresh child process
(``PYTHONHASHSEED=0``, ``PYTHONPATH=src``) under a global
``sys.settrace`` hook that records each code object a call enters and
returns ``None``, so no line is ever traced.  The run paths:

* ``paperfig`` — ``benchmarks/paperfig.py``, every figure;
* ``examples/NAME`` — every ``examples/*.py``;
* ``cli/N`` — the ``repro`` invocations of CI's CLI step that run to
  completion (:data:`CLI_ARGV`; ``tests/test_reach.py`` checks that
  each is in ``.github/workflows/ci.yml``);
* ``e2e/NAME`` — the four whole-run workloads of
  ``benchmarks/e2e/bench_e2e.py`` at their default seed, fed to
  ``e2e_child.py`` as that bench feeds them, plus the uninterrupted run
  of a workload that is killed and resumed.

It then lists every named function of ``src/repro`` (every function
code object found by walking each module's compiled ``co_consts``;
class bodies, lambdas and comprehensions aside) that no path entered.  A function whose body is
only ``...`` (after an optional docstring) is a declaration — a
``Protocol`` member or an overload — and is not listed.

The list is compared with ``tools/reach.json``, which maps each
function no path is meant to reach (``module.qualname``) to a one-line
reason whose first word, before ``:``, is its category.  The report
prints the paths run, the count entered, the listed entries by
category, and every entry that is *new* (unreached, not listed) or
*stale* (listed, but reached or gone).  It always exits 0.  The whole
set takes 6–9 minutes on one core, most of it the traced
``paperfig``.
"""

from __future__ import annotations

import argparse
import ast
import atexit
import inspect
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
LISTED_PATH = ROOT / "tools" / "reach.json"
E2E = ROOT / "benchmarks" / "e2e"

#: The ``repro`` argv lists of CI's "Backend registry self-check +
#: scenario run through the CLI" step, in its order, each of which
#: exits 0.  The step's refusal checks (``index_kind=naive`` and two
#: bad fault profiles, each of which must exit 2) are left out: they
#: enter no function these do not.
CLI_ARGV: tuple[tuple[str, ...], ...] = (
    ("backends",),
    ("run", "--volume", "48M", "--scenario", "cdn_churn:tenants=3",
     "--ages", "0,1", "--reads", "4"),
    ("run", "--store",
     "filesystem:shards=4,replicas=2,faults=loss:shard=1:at_age=1;"
     "transient:rate=5e-2:ops=read",
     "--rebuild-ages", "1", "--object-size", "1M", "--volume", "128M",
     "--ages", "0,1,2", "--reads", "8"),
    ("run", "--store", "lfs:shards=2,faults=transient:rate=5e-2:ops=read",
     "--object-size", "256K", "--volume", "32M", "--ages", "0,1",
     "--reads", "1"),
    ("run", "--store",
     "gfs:shards=2,chunk_size=1M,faults=transient:rate=5e-2:ops=read",
     "--object-size", "256K", "--volume", "32M", "--ages", "0,1",
     "--reads", "1"),
    *(("run", "--store", store, "--volume", "32M", "--object-size", "256K",
       "--ages", "0,1", "--reads", "4")
      for store in ("filesystem:batch=8,reorder=clook",
                    "database:batch=8,reorder=clook",
                    "gfs:chunk_size=1M,batch=8,reorder=clook",
                    "lfs:batch=8,reorder=clook,faults=slow:factor=2",
                    "database:shards=2,faults=slow:factor=2")),
    ("run", "--store", "gfs:gc_dead_fraction=0.9,chunk_size=1M", "--volume",
     "32M", "--object-size", "256K", "--occupancy", "0.5", "--ages", "0,1,2"),
    ("compare", "--volume", "32M", "--object-size", "256K", "--ages", "0,1",
     "--reads", "4", "--json", "{tmp}/cmp.json"),
)
#: CI's next line after ``compare``: every curve it wrote reloads
#: through ``RunResult.from_dict`` to the dict it was saved from.
RELOAD_COMPARE = (
    "-c", "import json, sys; from repro.core.results import RunResult; "
    "curves = json.load(open(sys.argv[1])); assert curves and all("
    "RunResult.from_dict(c).to_dict() == c for c in curves.values())",
    "{tmp}/cmp.json")


# ----------------------------------------------------------------------
# Named functions, from the compiled source
# ----------------------------------------------------------------------
def _declaration_lines(tree: ast.Module) -> set[int]:
    """First lines (decorators included) of functions whose body is ``...``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            body = body[1:]
        if body and all(isinstance(stmt, ast.Expr)
                        and isinstance(stmt.value, ast.Constant)
                        and stmt.value.value is Ellipsis for stmt in body):
            lines.add(min([node.lineno]
                          + [d.lineno for d in node.decorator_list]))
    return lines


def _code_objects(code: CodeType):
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield const
            yield from _code_objects(const)


def named_functions(package: Path = PACKAGE) -> dict[tuple[str, int], str]:
    """``(file, first line) -> module.qualname`` of every named function."""
    found: dict[tuple[str, int], str] = {}
    for path in sorted(package.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        declared = _declaration_lines(ast.parse(source))
        parts = path.relative_to(package.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        for code in _code_objects(compile(source, str(path), "exec")):
            # A class body is a code object too, but not a function.
            if code.co_flags & inspect.CO_OPTIMIZED and \
                    not code.co_name.startswith("<") and \
                    code.co_firstlineno not in declared:
                found[(str(path), code.co_firstlineno)] = \
                    f"{module}.{code.co_qualname}"
    return found


# ----------------------------------------------------------------------
# The traced child
# ----------------------------------------------------------------------
def _child(out: str, target: list[str]) -> None:
    """Run ``target`` (``-m MODULE args``, ``-c CODE args`` or ``SCRIPT
    args``) traced, as ``python`` would run it."""
    import runpy

    entered: set[CodeType] = set()
    add = entered.add

    def hook(frame, event, arg):
        add(frame.f_code)

    def dump() -> None:
        sys.settrace(None)
        prefix = str(PACKAGE) + os.sep
        Path(out).write_text(json.dumps(sorted(
            [code.co_filename, code.co_firstlineno] for code in entered
            if code.co_filename.startswith(prefix))))

    atexit.register(dump)
    flag = target[0]
    sys.argv = [flag, *target[2:]] if flag in ("-m", "-c") else list(target)
    sys.path[0] = (os.getcwd() if flag in ("-m", "-c")
                   else str(Path(flag).resolve().parent))
    sys.settrace(hook)
    if flag == "-m":
        runpy.run_module(target[1], run_name="__main__", alter_sys=True)
    elif flag == "-c":
        exec(compile(target[1], "<string>", "exec"), {"__name__": "__main__"})
    else:
        runpy.run_path(flag, run_name="__main__")


@dataclass
class RunPath:
    """One run path: its steps run in turn, each in a traced child.

    ``{tmp}`` in a step or in ``stdin`` (fed to the first step) names a
    directory the steps share and nothing else sees.
    """

    name: str
    steps: list[list[str]]
    stdin: str | None = None
    #: Set by :func:`trace`: the last non-zero step exit, else 0, and
    #: that step's last line of stderr.
    returncode: int | None = None
    error: str = ""
    seconds: float = 0.0
    entered: set[tuple[str, int]] = field(default_factory=set)


def trace(path: RunPath) -> RunPath:
    """Run one path's steps in traced children; fills what they entered."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "entered.json"
        work = Path(tmp) / "work"
        work.mkdir()
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(SRC))
        stdin = path.stdin and path.stdin.replace("{tmp}", str(work))
        path.returncode = 0
        start = time.perf_counter()
        for step in path.steps:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--child",
                 str(out), "--",
                 *(arg.replace("{tmp}", str(work)) for arg in step)],
                input=stdin, cwd=ROOT, env=env, text=True,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                check=False)
            stdin = None
            if proc.returncode:
                path.returncode = proc.returncode
                path.error = (proc.stderr.strip().splitlines() or [""])[-1]
            if out.exists():
                path.entered |= {(f, line) for f, line in json.loads(
                    out.read_text())}
                out.unlink()
        path.seconds = time.perf_counter() - start
    return path


def _e2e_paths() -> list[RunPath]:
    sys.path.insert(0, str(E2E))
    try:
        import bench_e2e
    finally:
        sys.path.remove(str(E2E))
    child = str(E2E / "e2e_child.py")
    paths = []
    for name, workload in bench_e2e.WORKLOADS.items():
        config = workload.make_config(bench_e2e.DEFAULT_SEED, 1)
        runs = {name: config}
        if bench_e2e.uninterrupted(config) is not config:
            runs[f"{name}/uninterrupted"] = bench_e2e.uninterrupted(config)
        for label, cfg in runs.items():
            # ``{tmp}``: a fresh directory per run (see :func:`trace`).
            job = {"config": cfg, "traced": False, "work_dir": "{tmp}",
                   "planned_ops": None}
            paths.append(RunPath(f"e2e/{label}", [[child]],
                                 stdin=json.dumps(job)))
    return paths


def run_paths() -> list[RunPath]:
    paths = [RunPath("paperfig",
                     [[str(ROOT / "benchmarks" / "paperfig.py")]])]
    paths += [RunPath(f"examples/{script.stem}", [[str(script)]])
              for script in sorted((ROOT / "examples").glob("*.py"))]
    for i, argv in enumerate(CLI_ARGV):
        steps = [["-m", "repro", *argv]]
        if argv[0] == "compare":
            steps.append(list(RELOAD_COMPARE))
        paths.append(RunPath(f"cli/{i}", steps))
    return paths + _e2e_paths()


# ----------------------------------------------------------------------
# The report
# ----------------------------------------------------------------------
def load_listed() -> dict[str, str]:
    return json.loads(LISTED_PATH.read_text(encoding="utf-8"))


def category(reason: str) -> str:
    head, colon, _ = reason.partition(":")
    return head.strip() if colon else "uncategorised"


def report(paths: list[RunPath]) -> str:
    functions = named_functions()
    entered: set[tuple[str, int]] = set()
    for path in paths:
        entered |= path.entered
    unreached = {name for key, name in functions.items()
                 if key not in entered}
    listed = load_listed()
    lines = [f"{'path':<40} {'exit':>4} {'s':>7} {'entered':>8}"]
    for path in paths:
        lines.append(f"{path.name:<40} {path.returncode:>4} "
                     f"{path.seconds:>7.1f} "
                     f"{len(path.entered & functions.keys()):>8}"
                     + (f"  {path.error}" if path.error else ""))
    lines.append("")
    lines.append(f"{len(functions) - len(unreached)} of {len(functions)} "
                 f"named functions entered; {len(unreached)} not")
    lines.append("tools/reach.json lists "
                 f"{len(listed)}: " + ", ".join(
                     f"{cat} {n}" for cat, n in sorted(Counter(
                         category(r) for r in listed.values()).items())))
    new = sorted(unreached - listed.keys())
    stale = sorted(listed.keys() - unreached)
    lines.append("")
    lines.append(f"new (unreached, not listed): {len(new)}")
    lines += [f"  {name}" for name in new]
    lines.append(f"stale (listed, but reached or gone): {len(stale)}")
    lines += [f"  {name}" for name in stale]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        _child(argv[1], argv[3:])
        return 0
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(
        argv)
    paths = run_paths()
    for path in paths:
        print(f"tracing {path.name} ...", file=sys.stderr, flush=True)
        trace(path)
    print(report(paths))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
