"""The linter lints: fixture snippets per rule, suppression hygiene,
and the driver's path handling.

Each rule gets a minimal bad example that must fire and an idiomatic
good example that must stay quiet; the driver tests build a scratch
tree and route a project finding through its file's suppressions.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT) not in sys.path:
    sys.path.insert(0, str(_ROOT))

from tools.reprolint import all_rules, lint_source, run_lint  # noqa: E402
from tools.reprolint import config  # noqa: E402
from tools.reprolint.__main__ import main as reprolint_main  # noqa: E402


def codes(findings) -> list[str]:
    return [f.code for f in findings]


def fire(source: str, relpath: str, code: str) -> list:
    found = lint_source(source, relpath, scopes=config.RULE_SCOPES,
                        codes=(code,))
    return [f for f in found if f.code == code]


# ----------------------------------------------------------------------
# Determinism rules
# ----------------------------------------------------------------------
class TestDeterminismRules:
    def test_rpl101_fires_on_wall_clock(self):
        bad = "import time\nstamp = time.time()\n"
        assert codes(fire(bad, "src/repro/x.py", "RPL101")) == ["RPL101"]

    def test_rpl101_fires_on_from_import(self):
        bad = "from os import urandom\nnoise = urandom(8)\n"
        assert codes(fire(bad, "benchmarks/b.py", "RPL101")) == ["RPL101"]

    def test_rpl101_quiet_on_unrelated_attr(self):
        good = "class T:\n    def time(self):\n        return 0\n" \
               "t = T().time()\n"
        assert fire(good, "src/repro/x.py", "RPL101") == []

    def test_rpl102_fires_in_src_only(self):
        bad = "import time\nt0 = time.perf_counter()\n"
        assert codes(fire(bad, "src/repro/x.py", "RPL102")) == ["RPL102"]
        assert fire(bad, "benchmarks/bench.py", "RPL102") == []

    def test_rpl103_fires_on_rng_construction(self):
        bad = "import random\nrng = random.Random(7)\n"
        assert codes(fire(bad, "src/repro/x.py", "RPL103")) == ["RPL103"]

    def test_rpl103_exempts_rng_module_and_methods(self):
        bad = "import random\nrng = random.Random(7)\n"
        assert fire(bad, "src/repro/rng.py", "RPL103") == []
        # Method calls on an instance never resolve to the module.
        good = "def draw(rng):\n    return rng.random()\n"
        assert fire(good, "src/repro/x.py", "RPL103") == []

    def test_rpl103_annotation_only_import_is_fine(self):
        good = "from random import Random\n" \
               "def f(rng: Random) -> float:\n    return rng.random()\n"
        assert fire(good, "src/repro/x.py", "RPL103") == []

    def test_rpl104_unseeded_and_global_rng(self):
        assert codes(fire("import random\nr = random.Random()\n",
                          "tests/t.py", "RPL104")) == ["RPL104"]
        assert codes(fire("import random\nx = random.randint(0, 9)\n",
                          "benchmarks/b.py", "RPL104")) == ["RPL104"]
        assert fire("import random\nr = random.Random(42)\n",
                    "tests/t.py", "RPL104") == []

    def test_rpl105_set_iteration(self):
        bad = "for x in {1, 2, 3}:\n    print(x)\n"
        assert codes(fire(bad, "src/repro/x.py", "RPL105")) == ["RPL105"]
        bad2 = "out = [k for k in set(items)]\n"
        assert codes(fire(bad2, "tests/t.py", "RPL105")) == ["RPL105"]
        good = "for x in sorted({1, 2, 3}):\n    print(x)\n"
        assert fire(good, "src/repro/x.py", "RPL105") == []

    def test_rpl106_values_accumulation(self):
        bad = "total = sum(d.values())\n"
        assert codes(fire(bad, "src/repro/alloc/x.py",
                          "RPL106")) == ["RPL106"]
        bad2 = "total = sum(v.size for v in d.values())\n"
        assert codes(fire(bad2, "src/repro/backends/x.py",
                          "RPL106")) == ["RPL106"]
        good = "total = sum(d[k] for k in sorted(d))\n"
        assert fire(good, "src/repro/alloc/x.py", "RPL106") == []
        # Out of the accounting scope: quiet.
        assert fire(bad, "src/repro/core/x.py", "RPL106") == []

    def test_rpl107_fires_on_builtin_hash_in_src(self):
        bad = "leaf = pages[hash(key) % len(pages)]\n"
        assert codes(fire(bad, "src/repro/db/x.py", "RPL107")) == ["RPL107"]
        bad2 = "import builtins\nh = builtins.hash(x)\n"
        assert codes(fire(bad2, "src/repro/x.py", "RPL107")) == ["RPL107"]
        # A nested __hash__-free function still counts.
        bad3 = "def f(x):\n    return hash(x)\n"
        assert codes(fire(bad3, "src/repro/x.py", "RPL107")) == ["RPL107"]

    def test_rpl107_quiet_on_dunder_hash_and_drivers(self):
        good = ("class K:\n"
                "    def __hash__(self):\n"
                "        return hash((self.a, self.b))\n")
        assert fire(good, "src/repro/x.py", "RPL107") == []
        # A method of that name on some object is not the builtin.
        assert fire("h = obj.hash(x)\n", "src/repro/x.py", "RPL107") == []
        bad = "h = hash(x)\n"
        assert fire(bad, "benchmarks/bench.py", "RPL107") == []
        assert fire(bad, "tests/t.py", "RPL107") == []


# ----------------------------------------------------------------------
# Hygiene rules
# ----------------------------------------------------------------------
class TestHygieneRules:
    def test_rpl401_mutable_default(self):
        bad = "def f(xs=[]):\n    return xs\n"
        assert codes(fire(bad, "src/repro/x.py", "RPL401")) == ["RPL401"]
        good = "def f(xs=None):\n    return xs or []\n"
        assert fire(good, "src/repro/x.py", "RPL401") == []

    def test_rpl402_dataclass_needs_slots(self):
        bad = ("from dataclasses import dataclass\n"
               "@dataclass\nclass Hot:\n    x: int = 0\n")
        assert codes(fire(bad, "src/repro/disk/x.py",
                          "RPL402")) == ["RPL402"]
        good = ("from dataclasses import dataclass\n"
                "@dataclass(slots=True)\nclass Hot:\n    x: int = 0\n")
        assert fire(good, "src/repro/disk/x.py", "RPL402") == []
        # Cold paths are not in scope.
        assert fire(bad, "src/repro/core/x.py", "RPL402") == []

    def test_rpl402_struct_plain_class_needs_dunder_slots(self):
        bad = "class Node:\n    def __init__(self):\n        self.x = 0\n"
        assert codes(fire(bad, "src/repro/struct/x.py",
                          "RPL402")) == ["RPL402"]
        good = ("class Node:\n    __slots__ = ('x',)\n"
                "    def __init__(self):\n        self.x = 0\n")
        assert fire(good, "src/repro/struct/x.py", "RPL402") == []


# ----------------------------------------------------------------------
# Suppression hygiene (the RPL0xx meta rules)
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_reasoned_suppression_silences(self):
        src = "import time\nt = time.time()  " \
              "# reprolint: ok RPL101 (fixture)\n"
        assert fire(src, "src/repro/x.py", "RPL101") == []

    def test_suppression_without_reason_is_an_error(self):
        src = "import time\nt = time.time()  # reprolint: ok RPL101\n"
        found = lint_source(src, "src/repro/x.py",
                            scopes=config.RULE_SCOPES)
        assert "RPL002" in codes(found)
        # And the underlying finding survives.
        assert "RPL101" in codes(found)

    def test_unknown_code_is_an_error(self):
        src = "x = 1  # reprolint: ok RPL999 (no such rule)\n"
        found = lint_source(src, "src/x.py", scopes=config.RULE_SCOPES)
        assert codes(found) == ["RPL003"]

    def test_meta_rules_not_suppressible(self):
        src = "x = 1  # reprolint: ok RPL004 (suppress the checker)\n"
        found = lint_source(src, "src/x.py", scopes=config.RULE_SCOPES)
        assert codes(found) == ["RPL003"]

    def test_unused_suppression_is_an_error(self):
        src = "x = 1  # reprolint: ok RPL101 (nothing here)\n"
        found = lint_source(src, "src/x.py", scopes=config.RULE_SCOPES)
        assert codes(found) == ["RPL004"]

    def test_malformed_pragma_is_an_error(self):
        src = "x = 1  # reprolint: sure whatever\n"
        found = lint_source(src, "src/x.py", scopes=config.RULE_SCOPES)
        assert codes(found) == ["RPL001"]

    def test_file_wide_suppression(self):
        src = ("# reprolint: file ok RPL105 (fixture file)\n"
               "for x in {1, 2}:\n    print(x)\n"
               "for y in {3, 4}:\n    print(y)\n")
        assert fire(src, "src/repro/x.py", "RPL105") == []


# ----------------------------------------------------------------------
# Driver behaviour: suppression routing and path validation
# ----------------------------------------------------------------------
@pytest.fixture
def scratch(tmp_path):
    """A mini repo holding the contract module RPL304 reads."""
    (tmp_path / "src/repro").mkdir(parents=True)
    (tmp_path / "src/repro/errors.py").write_text(
        'class DeviceError(Exception):\n    """Raised by a device."""\n')
    return tmp_path


STRAY = (
    "from repro.errors import DeviceError\n\n"
    "class Stray(DeviceError):{pragma}\n"
    '    """A device error outside the contract module."""\n'
)


class TestDriver:
    def test_suppression_in_unscanned_file_applies(self, scratch):
        """A project finding anchored outside the scanned paths still
        honours that file's own suppression table."""
        (scratch / "src/other").mkdir()
        (scratch / "src/other/util.py").write_text("x = 1\n")
        (scratch / "src/mini").mkdir()
        stray = scratch / "src/mini/state.py"
        stray.write_text(STRAY.format(pragma=""))
        found = run_lint(["src/other"], root=scratch,
                         scopes=config.RULE_SCOPES)
        assert codes(found) == ["RPL304"]
        stray.write_text(STRAY.format(
            pragma="  # reprolint: ok RPL304 (fixture)"))
        found = run_lint(["src/other"], root=scratch,
                         scopes=config.RULE_SCOPES)
        assert [f.render() for f in found if f.code == "RPL304"] == []
        # Scanning the file itself routes through the same table.
        found = run_lint(["src"], root=scratch,
                         scopes=config.RULE_SCOPES)
        assert [f.render() for f in found if f.code == "RPL304"] == []

    def test_out_of_root_path_is_a_usage_error(self, tmp_path, capsys):
        root = tmp_path / "repo"
        (root / "src").mkdir(parents=True)
        (root / "src/ok.py").write_text("x = 1\n")
        outside = tmp_path / "elsewhere.py"
        outside.write_text("x = 1\n")
        code = reprolint_main([str(outside), "--root", str(root),
                               "--no-project-rules"])
        assert code == 2
        assert "outside the lint root" in capsys.readouterr().err

    def test_missing_path_is_a_usage_error(self, scratch, capsys):
        """A path that names nothing (such as the retired ``manifest``
        subcommand) fails instead of linting zero files clean."""
        assert reprolint_main(["manifest", "--root", str(scratch)]) == 2
        assert "no such file or directory" in capsys.readouterr().err


# ----------------------------------------------------------------------
# The repo itself
# ----------------------------------------------------------------------
class TestRepoIsClean:
    def test_catalogue_documented(self):
        """Every registered code appears in docs/architecture.md."""
        text = (_ROOT / "docs/architecture.md").read_text()
        for code in all_rules():
            assert code in text, f"{code} missing from the catalogue"

    def test_tree_lints_clean(self):
        findings = run_lint(["src", "benchmarks", "tests"], root=_ROOT,
                            scopes=config.RULE_SCOPES)
        assert findings == [], "\n".join(f.render() for f in findings)
