"""``tools/reach.py``: the traced runner and the committed reasons."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import reach  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def test_traced_cli_run_enters_cmd_run_and_not_the_rebuild():
    path = reach.trace(reach.RunPath("cli/run", [[
        "-m", "repro", "run", "--volume", "32M", "--ages", "0",
        "--reads", "1"]]))
    assert path.returncode == 0, path.error
    names = {name for key, name in reach.named_functions().items()
             if key in path.entered}
    assert "repro.cli.cmd_run" in names
    assert "repro.core.defrag.rebuild_database" not in names


def test_every_listed_function_exists_and_has_a_reason():
    functions = set(reach.named_functions().values())
    listed = reach.load_listed()
    assert listed
    for name, reason in listed.items():
        assert name in functions, f"{name} names no function in src/repro"
        assert reason.strip(), f"{name} has no reason"
        assert reach.category(reason) != "uncategorised", name


def test_the_cli_paths_are_the_ones_ci_runs():
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    ci = ci.replace("'", "").replace('"', "")
    for argv in reach.CLI_ARGV:
        line = " ".join(["python", "-m", "repro", *argv])
        assert line.replace("{tmp}", "/tmp") in ci, line
    reload = " ".join(["python", *reach.RELOAD_COMPARE])
    assert reload.replace("{tmp}", "/tmp") in ci, reload
