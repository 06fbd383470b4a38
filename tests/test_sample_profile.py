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
