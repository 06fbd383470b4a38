"""Integration tests: the paper's qualitative claims at miniature scale.

These run the real experiment driver end to end on small volumes and
assert the *shapes* the paper reports.  The full-scale versions live in
benchmarks/; these miniatures guard the mechanisms against regressions
on every test run.
"""

import pytest

from repro.analysis.compare import (
    check_keeps_growing,
    check_levels_off,
    check_monotonic_increase,
)
from repro.backends.spec import StoreSpec
from repro.core.experiment import ExperimentConfig, run_experiment
from repro.core.workload import ConstantSize, UniformSize
from repro.units import KB, MB

AGES = (0.0, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0)


def run(backend, *, sizes, volume, occupancy, ages=AGES, seed=7,
        **options):
    cfg = ExperimentConfig(
        store=StoreSpec(backend, volume_bytes=volume, options=options),
        sizes=sizes, occupancy=occupancy, ages=ages, reads_per_sample=8,
        seed=seed,
    )
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def fs_large():
    return run("filesystem", sizes=ConstantSize(4 * MB),
               volume=512 * MB, occupancy=0.5)


@pytest.fixture(scope="module")
def db_large():
    return run("database", sizes=ConstantSize(4 * MB),
               volume=512 * MB, occupancy=0.5)


class TestFigure2Shapes:
    """Large-object fragmentation: DB grows ~linearly, FS levels off."""

    def test_both_start_contiguous(self, fs_large, db_large):
        assert fs_large.sample_at(0.0).fragments_per_object == 1.0
        assert db_large.sample_at(0.0).fragments_per_object == 1.0

    def test_db_fragments_faster_than_fs(self, fs_large, db_large):
        fs_final = fs_large.sample_at(10.0).fragments_per_object
        db_final = db_large.sample_at(10.0).fragments_per_object
        assert db_final > 2.0 * fs_final

    def test_db_keeps_growing(self, db_large):
        series = [(s.age, s.fragments_per_object) for s in db_large.samples]
        assert check_keeps_growing("db", series).passed

    def test_db_growth_monotone(self, db_large):
        series = [(s.age, s.fragments_per_object) for s in db_large.samples]
        assert check_monotonic_increase("db", series).passed

    def test_fs_levels_off(self, fs_large):
        series = [(s.age, s.fragments_per_object) for s in fs_large.samples]
        assert check_levels_off("fs", series,
                                max_late_growth=0.55).passed


class TestFigure3Shape:
    """Small objects converge to ~1 fragment / 64 KB for both systems."""

    @pytest.mark.parametrize("backend,low,high", [
        ("filesystem", 2.0, 5.5),
        ("database", 2.5, 6.5),
    ])
    def test_converges_near_four(self, backend, low, high):
        result = run(backend, sizes=ConstantSize(256 * KB),
                     volume=256 * MB, occupancy=0.97,
                     ages=(0.0, 4.0, 8.0, 10.0))
        final = result.sample_at(10.0).fragments_per_object
        assert low <= final <= high


class TestFigure1And4Shapes:
    """Read/write throughput: clean-system DB advantage, aging flips it."""

    @pytest.fixture(scope="class")
    def runs(self):
        out = {}
        for backend in ("filesystem", "database"):
            out[backend] = run(backend, sizes=ConstantSize(512 * KB),
                               volume=256 * MB, occupancy=0.9,
                               ages=(0.0, 2.0, 4.0), seed=11)
        return out

    def test_clean_db_reads_faster(self, runs):
        db0 = runs["database"].sample_at(0.0).read_mbps
        fs0 = runs["filesystem"].sample_at(0.0).read_mbps
        assert db0 > fs0

    def test_db_reads_degrade_with_age(self, runs):
        db = runs["database"]
        assert db.sample_at(4.0).read_mbps < \
            0.75 * db.sample_at(0.0).read_mbps

    def test_fs_reads_stay_stable(self, runs):
        # FS reads degrade far more slowly than the database's (which
        # lose >25% by age four); allow mild decline.
        fs = runs["filesystem"]
        assert fs.sample_at(4.0).read_mbps > \
            0.6 * fs.sample_at(0.0).read_mbps

    def test_break_even_flips_by_age_four(self, runs):
        # Figure 1: by age four, 512 KB objects read faster from files.
        db4 = runs["database"].sample_at(4.0).read_mbps
        fs4 = runs["filesystem"].sample_at(4.0).read_mbps
        assert fs4 > db4

    def test_bulk_load_db_writes_faster(self, runs):
        # Figure 4 / Section 5.2: DB bulk-load writes beat the FS.
        assert runs["database"].bulk_load_write_mbps > \
            1.3 * runs["filesystem"].bulk_load_write_mbps

    def test_db_writes_degrade_after_bulk_load(self, runs):
        db = runs["database"]
        assert db.sample_at(4.0).write_mbps < \
            0.6 * db.bulk_load_write_mbps


class TestFigure5Shape:
    """Constant-size objects fragment about as much as uniform sizes."""

    @pytest.mark.parametrize("backend", ["filesystem", "database"])
    def test_distribution_does_not_matter_much(self, backend):
        const = run(backend, sizes=ConstantSize(4 * MB),
                    volume=512 * MB, occupancy=0.5,
                    ages=(0.0, 4.0, 8.0))
        uniform = run(backend,
                      sizes=UniformSize.around_mean(4 * MB, spread=0.8),
                      volume=512 * MB, occupancy=0.5,
                      ages=(0.0, 4.0, 8.0))
        c = const.sample_at(8.0).fragments_per_object
        u = uniform.sample_at(8.0).fragments_per_object
        # Same order of magnitude — within ~2.5x of each other.
        assert max(c, u) / max(1e-9, min(c, u)) < 2.5
        # And both genuinely fragment.
        assert c > 1.1 and u > 1.1


class TestSizeHintExtension:
    """The paper's proposed interface eliminates FS fragmentation."""

    def test_size_hints_prevent_fragmentation(self):
        plain = run("filesystem", sizes=ConstantSize(2 * MB),
                    volume=256 * MB, occupancy=0.9,
                    ages=(0.0, 4.0))
        hinted = run("filesystem", sizes=ConstantSize(2 * MB),
                     volume=256 * MB, occupancy=0.9,
                     ages=(0.0, 4.0), size_hints=True)
        assert hinted.sample_at(4.0).fragments_per_object < \
            plain.sample_at(4.0).fragments_per_object
        assert hinted.sample_at(4.0).fragments_per_object < 1.6
