"""Tests for table rendering and shape predicates."""

import pytest

from repro.analysis.compare import (
    check_between,
    check_faster,
    check_keeps_growing,
    check_levels_off,
    check_monotonic_increase,
    crossover_age,
    ratio,
)
from repro.analysis.tables import render_series_table, render_table


class TestTables:
    def test_render_basic(self):
        text = render_table("Title", ["a", "bb"], [[1, 2.5], [10, 0.25]])
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert "a" in lines[2] and "bb" in lines[2]
        assert "2.50" in text and "0.25" in text

    def test_alignment(self):
        text = render_table("t", ["col"], [[1], [100], [10000]])
        rows = text.splitlines()[4:]
        assert len({len(r) for r in rows}) == 1  # same width

    def test_footer(self):
        text = render_table("t", ["a"], [[1]], footer="paper: ~2")
        assert text.endswith("paper: ~2")

    def test_series_table_unions_x(self):
        text = render_series_table(
            "t", "age",
            {"db": [(0, 1.0), (2, 3.0)], "fs": [(0, 1.0), (4, 2.0)]},
        )
        assert "db" in text and "fs" in text
        for x in ("0", "2", "4"):
            assert any(line.strip().startswith(x)
                       for line in text.splitlines())


class TestShapeChecks:
    def test_monotonic_pass(self):
        check = check_monotonic_increase(
            "m", [(0, 1.0), (1, 2.0), (2, 2.0), (3, 2.5)]
        )
        assert check.passed

    def test_monotonic_allows_slack(self):
        check = check_monotonic_increase(
            "m", [(0, 2.0), (1, 1.9)], slack=0.15
        )
        assert check.passed

    def test_monotonic_fails_on_big_dip(self):
        check = check_monotonic_increase(
            "m", [(0, 2.0), (1, 1.0)], slack=0.15
        )
        assert not check.passed

    def test_levels_off_asymptote(self):
        # Rapid early rise, flat tail (NTFS in Figure 2).
        series = [(x, min(5.0, 2.5 * x)) for x in range(11)]
        assert check_levels_off("fs", series).passed

    def test_levels_off_rejects_linear(self):
        series = [(x, float(x)) for x in range(11)]
        assert not check_levels_off("fs", series).passed

    def test_keeps_growing_linear(self):
        # SQL Server in Figure 2: almost linear, no asymptote.
        series = [(x, 3.5 * x + 1) for x in range(11)]
        assert check_keeps_growing("db", series).passed

    def test_keeps_growing_rejects_asymptote(self):
        series = [(x, min(5.0, 2.5 * x)) for x in range(11)]
        assert not check_keeps_growing("db", series).passed

    def test_too_few_points(self):
        assert not check_levels_off("x", [(0, 1.0)]).passed
        assert not check_keeps_growing("x", [(0, 1.0)]).passed

    def test_crossover(self):
        db = [(0.0, 10.0), (2.0, 8.0), (4.0, 5.0)]
        fs = [(0.0, 6.0), (2.0, 6.0), (4.0, 6.0)]
        assert crossover_age(db, fs) == 4.0
        assert crossover_age(fs, [(0.0, 1.0), (4.0, 1.0)]) is None

    def test_ratio(self):
        series = [(0.0, 10.0), (4.0, 5.0)]
        assert ratio(series, 4.0) == pytest.approx(0.5)

    def test_between(self):
        assert check_between("b", 4.2, 3.0, 5.0).passed
        assert not check_between("b", 6.0, 3.0, 5.0).passed

    def test_faster(self):
        assert check_faster("f", 17.7, 10.1, min_ratio=1.5).passed
        assert not check_faster("f", 10.0, 10.0, min_ratio=1.5).passed

    def test_str_form(self):
        check = check_between("level", 4.0, 3.0, 5.0)
        assert "PASS" in str(check)
        assert "level" in str(check)

    def test_checks_carry_the_numbers_their_text_is_built_from(self):
        faster = check_faster("f", 17.7, 10.1, min_ratio=1.5, paper="1.75x")
        assert faster.value == pytest.approx(1.7525, abs=1e-4)
        assert faster.bound == 1.5
        assert str(faster) == \
            "[PASS] f: ratio 1.75 (needs >= 1.50) [paper: 1.75x]"
        between = check_between("b", 4.2, 3.0, 5.0)
        assert (between.value, between.bound, between.paper) \
            == (4.2, (3.0, 5.0), None)
        linear = [(x, float(x)) for x in range(11)]
        assert check_keeps_growing("db", linear).value \
            == check_levels_off("fs", linear).value == 0.5
        dip = check_monotonic_increase("m", [(0, 2.0), (1, 1.0)])
        assert (dip.value, dip.bound) == (0.5, 0.85)
        assert check_faster("f", 1.0, 0.0).value == float("inf")
        assert check_levels_off("x", [(0, 1.0)]).value is None

    def test_a_series_that_never_rises(self):
        flat = [(float(x), 2.0) for x in range(5)]
        assert check_levels_off("fs", flat).value == 0.0
        never = check_keeps_growing("db", flat)
        assert not never.passed and never.value == 0.0
