"""``examples/*.py`` and the package quickstart: each runs to completion.

The scripts are the only callers of ``Defragmenter`` and
``rebuild_database`` outside the unit tests: no figure, ``repro`` CLI
run or e2e workload reaches those, so only these scripts show they
still work, and nothing else executes them.
"""

import doctest
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_exits_zero(script):
    proc = subprocess.run(
        [sys.executable, str(script)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_package_docstring_quickstart_runs():
    """The ``repro`` docstring's quickstart is the first code a reader
    sees; running it keeps it from naming an API that is gone."""
    import repro

    failed, attempted = doctest.testmod(repro)
    assert attempted and not failed
