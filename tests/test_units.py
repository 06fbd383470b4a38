"""Tests for size parsing, formatting, and integer helpers."""

import pytest

from repro.units import (
    EXTENT_SIZE,
    GB,
    KB,
    MB,
    PAGE_SIZE,
    PAGES_PER_EXTENT,
    ceil_div,
    fmt_size,
    left_sum,
    parse_size,
    round_up,
)


class TestConstants:
    def test_binary_units(self):
        assert KB == 1024
        assert MB == 1024 * KB
        assert GB == 1024 * MB

    def test_sql_server_extent_geometry(self):
        # The 64 KB extent of 8 KB pages is load-bearing for Figure 3's
        # "one fragment per 64KB" convergence.
        assert PAGE_SIZE == 8 * KB
        assert PAGES_PER_EXTENT == 8
        assert EXTENT_SIZE == 64 * KB


class TestParseSize:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("256K", 256 * KB),
            ("256KB", 256 * KB),
            ("256kb", 256 * KB),
            ("10M", 10 * MB),
            ("10MB", 10 * MB),
            ("1.5MB", int(1.5 * MB)),
            ("40GB", 40 * GB),
            ("512", 512),
            ("512B", 512),
            ("1TiB", 1024 * GB),
        ],
    )
    def test_accepts_common_forms(self, text, expected):
        assert parse_size(text) == expected

    def test_int_passthrough(self):
        assert parse_size(4096) == 4096

    def test_whitespace_tolerated(self):
        assert parse_size("  10 MB  ") == 10 * MB

    @pytest.mark.parametrize("bad", ["", "ten", "10X", "MB", "-5K"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_size(bad)


class TestFmtSize:
    @pytest.mark.parametrize(
        "nbytes,expected",
        [
            (256 * KB, "256K"),
            (10 * MB, "10M"),
            (40 * GB, "40G"),
            (512, "512B"),
            (int(1.5 * MB), "1.5M"),
        ],
    )
    def test_round_trip_labels(self, nbytes, expected):
        assert fmt_size(nbytes) == expected

    def test_negative(self):
        assert fmt_size(-10 * MB) == "-10M"

    def test_parse_fmt_round_trip(self):
        for value in (1, KB, 256 * KB, 10 * MB, 40 * GB):
            assert parse_size(fmt_size(value)) == value


class TestIntegerHelpers:
    def test_ceil_div_exact(self):
        assert ceil_div(64, 8) == 8

    def test_ceil_div_rounds_up(self):
        assert ceil_div(65, 8) == 9

    def test_ceil_div_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            ceil_div(1, 0)

    def test_round_up(self):
        assert round_up(100, 64) == 128
        assert round_up(128, 64) == 128
        assert round_up(1, 4096) == 4096


class TestLeftSum:
    def test_is_a_plain_left_fold_on_any_interpreter(self):
        # Not compensated (builtin sum() is, from CPython 3.12): each
        # 1.0 is lost to rounding on its own.
        assert left_sum([1e16, 1.0, 1.0]) == 1e16
        assert left_sum(iter([0.1, 0.2, 0.3])) == (0.1 + 0.2) + 0.3
        assert left_sum([]) == 0.0
