"""Tests for seeded RNG substreams and the exception hierarchy."""

import pytest

from repro import errors
from repro.rng import derive_seed, make_rng, substream


class TestRng:
    def test_substream_deterministic(self):
        a = [substream(7, "sizes").random() for _ in range(3)]
        b = [substream(7, "sizes").random() for _ in range(3)]
        assert a == b

    def test_substreams_decorrelated(self):
        assert substream(7, "sizes").random() != \
            substream(7, "ops").random()

    def test_different_seeds_differ(self):
        assert substream(1, "x").random() != substream(2, "x").random()

    def test_make_rng_seeded(self):
        assert make_rng(5).random() == make_rng(5).random()

    def test_derive_seed_is_the_substream_recipe(self):
        # Pinned: moving it moves every stream and per-shard fault seed.
        assert derive_seed(7, "sizes") == 3720969453593647115
        assert substream(7, "sizes").random() == \
            make_rng(derive_seed(7, "sizes")).random()


class TestErrorHierarchy:
    def test_everything_is_repro_error(self):
        for name in ("ConfigError", "StorageFullError", "AllocationError",
                     "FsError", "DbError", "CorruptionError",
                     "ObjectNotFoundError", "CrashPoint"):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)

    def test_allocation_is_storage_full(self):
        assert issubclass(errors.AllocationError, errors.StorageFullError)

    def test_not_found_errors_are_key_errors(self):
        # Callers can use dict-style except KeyError at the boundary.
        for name in ("FileNotFoundFsError", "BlobNotFoundError",
                     "RowNotFoundError", "ObjectNotFoundError"):
            assert issubclass(getattr(errors, name), KeyError)

    def test_catchable_at_boundary(self):
        with pytest.raises(errors.ReproError):
            raise errors.AllocationError("full")
