"""``tools/sample_profile.py``: the timed-region stack sampler."""

import re
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import sample_profile  # noqa: E402

ROW = re.compile(r"^ *(\d+\.\d)% +(\d+\.\d)%  (\S+)$")


def spin(seconds: float) -> None:
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def test_the_sampler_finds_a_busy_function_and_stops_its_timer():
    sampler = sample_profile.StackSampler()
    handler = signal.getsignal(signal.SIGPROF)
    sampler.start()
    try:
        spin(0.2)
    finally:
        sampler.stop()
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) is handler
    assert sampler.samples > 0 and sampler.cpu_s >= 0.2
    rows = sampler.table(3)
    assert rows[0][2] == "test_sample_profile.py:spin"
    for self_share, incl_share, _ in rows:
        assert 0 < self_share <= incl_share <= 1


def test_the_smoke_run_prints_self_and_inclusive_shares(capsys):
    assert sample_profile.main(["db_large_churn", "--smoke",
                                "--top", "5"]) == 0
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    head, columns, *rows = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"db_large_churn seed=7 samples=\d+ "
                        r"cpu_s=\d+\.\d{3} interval_ms=1", head)
    assert columns.split() == ["self", "incl", "function"]
    assert len(rows) <= 5
    for row in rows:
        self_share, incl_share, name = ROW.match(row).groups()
        assert float(self_share) <= float(incl_share)
        assert "." in name or ":" in name


def test_a_killed_workload_is_sampled_through_its_resume(monkeypatch,
                                                         capsys):
    """``ckpt_delta_resume`` stops after its kill-age checkpoint and a
    resumed runner finishes it; the sampler runs from the first sample
    to the kill and over the whole resumed run, as the benchmark times
    it."""
    from repro.core.experiment import ExperimentRunner

    runs = []
    real_run = ExperimentRunner.run

    def run(self):
        sampling = signal.getitimer(signal.ITIMER_PROF) != (0.0, 0.0)
        runs.append((self.resume, sampling))
        return real_run(self)

    monkeypatch.setattr(ExperimentRunner, "run", run)
    assert sample_profile.main(["ckpt_delta_resume", "--smoke",
                                "--top", "3"]) == 0
    assert runs == [(False, False), (True, True)]
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    head = capsys.readouterr().out.splitlines()[0]
    assert re.fullmatch(r"ckpt_delta_resume seed=7 samples=\d+ "
                        r"cpu_s=\d+\.\d{3} interval_ms=1", head)


def test_seed_lists_read_ranges_and_singles_in_order():
    assert sample_profile.parse_seeds("7-14") == list(range(7, 15))
    assert sample_profile.parse_seeds("9,7,11-12") == [9, 7, 11, 12]
    for bad in ("", "7-", "x", "9-7", "7,,8"):
        try:
            sample_profile.parse_seeds(bad)
        except ValueError:
            continue
        raise AssertionError(f"{bad!r} was accepted")


def test_seeds_pool_every_run_into_one_table(monkeypatch, capsys):
    """``--seeds`` runs each seed into one sampler: the table's shares
    are over the pooled samples, and the CPU seconds add up."""
    runs = []

    def fake_profile(workload, *, seed, smoke, sampler=None):
        runs.append((workload, seed, smoke))
        sampler.start()
        spin(0.05)
        sampler.stop()
        # Seed 8 adds samples of its own, so the pool is not one run.
        sampler.samples += seed
        sampler.self_counts[spin.__code__] += seed
        sampler.incl_counts[spin.__code__] += seed
        return sampler

    monkeypatch.setattr(sample_profile, "profile", fake_profile)
    assert sample_profile.main(["db_large_churn", "--seeds", "7-8",
                                "--smoke", "--top", "1"]) == 0
    assert runs == [("db_large_churn", 7, True), ("db_large_churn", 8, True)]
    head, _, row = capsys.readouterr().out.splitlines()
    match = re.fullmatch(r"db_large_churn seeds=7-8 samples=(\d+) "
                         r"cpu_s=(\d+\.\d{3}) interval_ms=1", head)
    assert int(match[1]) >= 15 and float(match[2]) >= 0.1
    assert ROW.match(row)[3] == "test_sample_profile.py:spin"
