"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"


class TestParser:
    def test_backends_command(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in ("filesystem", "database", "gfs", "lfs"):
            assert name in out

    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([])
        assert exit_info.value.code == 2
        assert "required: command" in capsys.readouterr().err

    def test_list_backends(self, capsys):
        """``backends`` is the one listing: a ``name: description`` line
        per registered backend; there is no ``--list-backends``."""
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        names = [line.split(":", 1)[0] for line in out.splitlines() if line]
        assert len(names) >= 4
        for name in ("filesystem", "database", "gfs", "lfs"):
            assert name in names
        assert "sharded" not in names  # spelt <backend>:shards=N
        with pytest.raises(SystemExit) as exit_info:
            main(["--list-backends"])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("flag, value", [
        ("--shards", "4"), ("--replicas", "2"),
        ("--faults", "loss:shard=1:at_age=2")])
    def test_store_knob_flags_are_spelt_in_the_spec(self, flag, value,
                                                    capsys):
        """One spelling per knob: ``--store ':shards=4,replicas=2,...'``."""
        for command in ("run", "compare"):
            with pytest.raises(SystemExit) as exit_info:
                main([command, flag, value])
            assert exit_info.value.code == 2
            assert f"unrecognized arguments: {flag}" \
                in capsys.readouterr().err

    def test_bad_ages_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--ages", "4,2"])

    def test_bad_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--backend", "oracle"])


class TestRun:
    def test_run_prints_tables(self, capsys):
        code = main([
            "run", "--backend", "filesystem",
            "--object-size", "512K", "--volume", "64M",
            "--occupancy", "0.4", "--ages", "0,1", "--reads", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fragments per object" in out
        assert "Read throughput" in out
        assert "bulk-load write throughput" in out

    def test_run_writes_json(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        main([
            "run", "--backend", "database",
            "--object-size", "256K", "--volume", "64M",
            "--occupancy", "0.4", "--ages", "0", "--reads", "2",
            "--json", str(path),
        ])
        payload = json.loads(path.read_text())
        assert payload["backend"] == "database"
        assert payload["samples"]

    @pytest.mark.parametrize("flags,hinted", [
        (["--size-hints"], True),             # the plain flag, as ever
        (["--size-hints", "--store", "filesystem"], True),  # was False
        (["--store", "filesystem:size_hints=true"], True),  # was False
        ([], False),
        (["--size-hints", "--backend", "database"], False),  # no such knob
    ])
    def test_size_hints_recorded_as_run(self, flags, hinted, tmp_path,
                                        capsys):
        path = tmp_path / "out.json"
        main(["run", "--object-size", "256K", "--volume", "64M",
              "--ages", "0", "--reads", "2", "--json", str(path), *flags])
        config = json.loads(path.read_text())["config"]
        assert config["size_hints"] is hinted
        assert config["store"]["options"].get("size_hints", False) is hinted

    def test_uniform_sizes(self, capsys):
        code = main([
            "run", "--backend", "filesystem", "--uniform",
            "--object-size", "512K", "--volume", "64M",
            "--occupancy", "0.4", "--ages", "0", "--reads", "2",
        ])
        assert code == 0

    def test_scenario_prints_per_tenant_table(self, tmp_path, capsys):
        path = tmp_path / "scn.json"
        code = main([
            "run", "--store", "lfs:shards=2,overlap=true,queue=event",
            "--scenario", "cdn_churn:tenants=3,seed=5",
            "--volume", "48M", "--occupancy", "0.4",
            "--ages", "0,1", "--reads", "4", "--json", str(path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Per-tenant churn latency" in out
        for tenant in ("tenant-0", "tenant-1", "tenant-2"):
            assert tenant in out
        payload = json.loads(path.read_text())
        assert payload["config"]["scenario"]["name"] == "cdn_churn"
        last = payload["samples"][-1]
        assert sum(t["count"] for t in last["tenant_lat"].values()) \
            == last["scenario_lat"]["count"]

    def test_bad_scenario_rejected(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            main([
                "run", "--backend", "filesystem",
                "--scenario", "cdn_churn:shards=4",
                "--volume", "48M", "--ages", "0",
            ])

    def test_non_finite_age_rejected_before_the_run(self, tmp_path):
        """``--ages nan`` used to exit 0 and write bare NaN tokens."""
        from repro.errors import ConfigError
        path = tmp_path / "out.json"
        with pytest.raises(ConfigError, match="ages"):
            main([
                "run", "--backend", "filesystem", "--volume", "48M",
                "--ages", "nan", "--json", str(path),
            ])
        assert not path.exists()


class TestProcessEntry:
    @pytest.mark.parametrize("args, message", [
        (["--store", "nosuch"], "unknown backend 'nosuch'"),
        (["--occupancy", "1.5"], "occupancy must be in (0, 1), got 1.5"),
        (["--volume", "1M"], "volume too small for metadata regions"),
        # A run killed by an injected fault (writes never retry).
        (["--store", "lfs:shards=4,replicas=2,faults=transient:rate=1e-3",
          "--object-size", "256K", "--volume", "128M", "--ages", "0,1,2"],
         "injected transient write error"),
    ])
    def test_a_library_error_is_one_line_and_exit_2(self, args, message):
        """Regression: every ``ReproError`` left ``python -m repro`` as
        a 10-20 frame traceback."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", *args],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"repro: error: {message}")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr


class TestCompare:
    def test_compare_two_backends(self, tmp_path, capsys):
        path = tmp_path / "cmp.json"
        code = main([
            "compare", "--against", "filesystem", "database",
            "--object-size", "512K", "--volume", "64M",
            "--occupancy", "0.4", "--ages", "0,1", "--reads", "2",
            "--json", str(path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "filesystem" in out and "database" in out
        payload = json.loads(path.read_text())
        assert set(payload) == {"filesystem", "database"}

    def test_uniform_compare_rows_have_both_backends(self, capsys):
        # Realised storage ages overshoot the target differently per
        # backend once object sizes vary; tables key on the target age.
        code = main([
            "compare", "--object-size", "512K", "--uniform",
            "--volume", "64M", "--ages", "0,1,2", "--reads", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        table = out.split("Fragments per object")[1].split("\n\n")[0]
        rows = [line.split() for line in table.splitlines()[4:]]
        assert [row[0] for row in rows] == ["0", "1", "2"]
        # age + one value per backend: no blank cell in any row.
        assert all(len(row) == 3 for row in rows)
