"""The one spec grammar (:mod:`repro.specgrammar`) and the four specs on it.

Example tests pin the shared rules and the input hardening they bring;
the hypothesis suite holds all four parsers to "a spec or a
``ConfigError``, never another exception" and the three specs that have
a ``text()`` to ``parse(x.text()) == x``.
"""

import dataclasses
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import (StoreSpec, backend_names, build_store,
                            resolve_spec)
from repro.backends import spec as store_spec_module
from repro.backends.spec import _KEYS as STORE_KEYS
from repro.disk.events import ArrivalSpec
from repro.disk.faults import FaultClause, FaultProfile
from repro.errors import ConfigError
from repro.scenario.spec import SCENARIO_PRESETS, ScenarioSpec
from repro.specgrammar import (Key, convert_items, format_items, render,
                               to_bool, to_float, to_int, to_size, tokenize)
from repro.units import MB

PARSERS = {
    "store": StoreSpec.parse,
    "scenario": ScenarioSpec.parse,
    "arrival": ArrivalSpec.parse,
    "faults": FaultProfile.parse,
}


class TestTokenizer:
    def test_head_and_items(self):
        assert tokenize("t", " lfs : a = 1 ,, b=2, ") == \
            ("lfs", {"a": "1", "b": "2"})
        assert tokenize("t", "lfs") == ("lfs", {})
        assert tokenize("t", ":a=1") == ("", {"a": "1"})

    def test_items_split_on_the_first_equals(self):
        head, raw = tokenize(
            "t", "lfs:faults=slow:shard=1:factor=8,arrival=poisson:rate=3")
        assert head == "lfs"
        assert raw == {"faults": "slow:shard=1:factor=8",
                       "arrival": "poisson:rate=3"}

    def test_colon_in_the_separator_set_also_ends_the_head(self):
        assert tokenize("t", "poisson,rate=100:clients=4", ":,") == \
            ("poisson", {"rate": "100", "clients": "4"})
        # ...but a comma does not end a store or scenario head.
        assert tokenize("t", "lfs,a=1")[0] == "lfs,a=1"

    @pytest.mark.parametrize("text", ["x:a", "x:a=", "x:=3", "x:="])
    def test_malformed_items_rejected(self, text):
        with pytest.raises(ConfigError, match="widget"):
            tokenize("widget", text)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="widget sets 'a' twice"):
            tokenize("widget", "x:a=1,b=2,a=3")


class TestConverters:
    def test_values(self):
        assert to_int("12") == 12
        assert to_float("2e3") == 2000.0
        assert to_bool("Yes") is True and to_bool(False) is False
        assert to_size("2M") == 2 * MB and to_size(4096) == 4096

    @pytest.mark.parametrize("convert,bad", [
        (to_int, "1.5"), (to_int, "x"), (to_int, None),
        (to_float, "x"), (to_float, "nan"), (to_float, "inf"),
        (to_float, "-inf"), (to_float, "1e999"), (to_float, float("nan")),
        (to_bool, "maybe"), (to_size, "12 parsecs"), (to_size, True),
        (to_size, "9" * 400),
    ])
    def test_rejections_are_config_errors(self, convert, bad):
        with pytest.raises(ConfigError):
            convert(bad)

    def test_tables_convert_reject_and_render(self):
        table = {"n": Key(to_int), "x": Key(to_float, "{:g}".format)}
        assert convert_items("t", {"x": "0.50", "n": "3"}, table) == \
            {"x": 0.5, "n": 3}
        with pytest.raises(ConfigError, match="unknown t item 'y=1'"):
            convert_items("t", {"y": "1"}, table)
        extra: dict = {}
        assert convert_items("t", {"y": "1", "n": "2"}, table, extra) == \
            {"n": 2}
        assert extra == {"y": "1"}
        with pytest.raises(ConfigError, match="bad t item 'n=two'"):
            convert_items("t", {"n": "two"}, table)
        items = format_items(table, {"x": 0.5, "n": None})
        assert items == [("x", "0.5")]
        assert render("head", items, ",") == "head:x=0.5"
        assert render("head", [], ",") == "head"


class TestHardening:
    """Each of these parsed (or raised the wrong thing) before the four
    grammars shared one tokenizer and one converter set."""

    @pytest.mark.parametrize("kind,text", [
        ("store", "lfs:shards=2,shards=3"),
        ("store", "lfs:segment_size=1M,segment_size=2M"),
        ("scenario", "cdn_churn:skew=1,skew=2"),
        ("arrival", "poisson:rate=3:rate=4"),
        ("faults", "slow:factor=2:factor=3"),
        ("faults", "transient:rate=0.1;loss:shard=1:shard=2"),
    ])
    def test_duplicate_keys_rejected(self, kind, text):
        with pytest.raises(ConfigError, match="twice"):
            PARSERS[kind](text)

    @pytest.mark.parametrize("kind,text", [
        ("store", "lfs:=3"),
        ("scenario", "cdn_churn:=3"),
        ("arrival", "poisson:=3"),
        ("faults", "slow:=3"),
    ])
    def test_empty_key_rejected(self, kind, text):
        with pytest.raises(ConfigError, match="'=3'"):
            PARSERS[kind](text)

    @pytest.mark.parametrize("kind,text,item", [
        ("faults", "slow:factor=nan", "factor=nan"),
        ("faults", "slow:factor=inf", "factor=inf"),
        ("faults", "loss:shard=1:at_age=nan", "at_age=nan"),
        ("faults", "transient:rate=nan", "rate=nan"),
        ("scenario", "cdn_churn:skew=inf", "skew=inf"),
        ("scenario", "cdn_churn:amplitude=nan", "amplitude=nan"),
        ("arrival", "poisson:rate=inf", "rate=inf"),
        ("store", "lfs:rebuild_rate=nan", "rebuild_rate=nan"),
        ("store", "lfs:dispatch_overhead=inf", "dispatch_overhead=inf"),
    ])
    def test_non_finite_floats_rejected(self, kind, text, item):
        with pytest.raises(ConfigError, match=item):
            PARSERS[kind](text)

    def test_non_finite_backend_option_rejected_at_resolve(self):
        with pytest.raises(ConfigError, match="lfs option clean_threshold"):
            resolve_spec(StoreSpec.parse("lfs:clean_threshold=nan"))

    def test_bad_size_is_a_config_error(self):
        with pytest.raises(ConfigError, match="volume=lots"):
            StoreSpec.parse("lfs:volume=lots")


class TestStoreSpecTable:
    """Replaces reprolint RPL302, which pattern-matched an if/elif chain."""

    def test_every_field_is_recorded_and_reachable(self):
        spec = StoreSpec.parse("lfs")
        names = [f.name for f in dataclasses.fields(StoreSpec)]
        assert list(spec.to_dict()) == names
        targets = {entry.field or key for key, entry in STORE_KEYS.items()}
        # The head names the backend; unknown keys land in options.
        assert targets | {"backend", "options"} == set(names)
        # ...and every field is settable as a parse default.
        for f in dataclasses.fields(StoreSpec):
            if f.name != "backend":
                value = getattr(spec, f.name)
                assert getattr(StoreSpec.parse("lfs", **{f.name: value}),
                               f.name) == value

    def test_the_documented_key_list_is_the_table(self):
        """``repro.cli`` points at this list instead of keeping a copy,
        so it must name every key, in table order, and no other."""
        doc = store_spec_module.__doc__
        listed = doc[doc.index("The keys"):doc.index("set spec-level")]
        assert re.findall(r"``(\w+)``", listed) == list(STORE_KEYS)

    def test_text_wins_over_defaults(self):
        spec = StoreSpec.parse("lfs:volume=96M,depth=8", volume_bytes=1,
                               queue_depth=2, shards=3)
        assert (spec.volume_bytes, spec.queue_depth, spec.shards) == \
            (96 * MB, 8, 3)


# ----------------------------------------------------------------------
# Hypothesis: fuzz and round trips
# ----------------------------------------------------------------------
_WORDS = st.sampled_from([
    "lfs", "filesystem", "sharded", "cdn_churn", "video_dvr", "poisson",
    "closed", "transient", "slow", "loss", "volume", "shards", "faults",
    "arrival", "rate", "factor", "shard", "at_age", "ops", "seed", "skew",
    "tenants", "ttl", "amplitude", "period", "clients", "depth", "queue",
    "reorder", "batch", "read", "clook", "event", "true", "nan", "inf",
    "-1", "0", "1", "3", "64", "0.5", "1e-4", "2e3", "1e999", "8M", "",
    " ",
])
_GLUE = st.sampled_from([":", ",", ";", "=", "==", ":=", " "])
_SPECLIKE = st.lists(st.one_of(_WORDS, _GLUE), max_size=14).map("".join)


@pytest.mark.parametrize("kind", sorted(PARSERS))
@given(text=st.one_of(st.text(max_size=40), _SPECLIKE))
@settings(max_examples=300, deadline=None)
def test_parse_returns_a_spec_or_a_config_error(kind, text):
    try:
        PARSERS[kind](text)
    except ConfigError:
        pass


def _short(value: float) -> float:
    """What ``{:g}`` keeps of a float (scenario and arrival text)."""
    return float(f"{value:g}")


_UNIT = st.floats(0.0, 1.0, allow_nan=False)
_SHARD = st.none() | st.integers(0, 63)
_CLAUSES = st.lists(st.one_of(
    st.builds(FaultClause, st.just("transient"), shard=_SHARD, rate=_UNIT,
              ops=st.sampled_from(["read", "write", "all"]),
              seed=st.integers(0, 2 ** 64)),
    st.builds(FaultClause, st.just("slow"), shard=_SHARD,
              factor=st.floats(1e-9, 1e9)),
    st.builds(FaultClause, st.just("loss"), shard=st.integers(0, 63),
              at_age=st.none() | st.floats(0.0, 1e6)),
), min_size=1, max_size=3)


def _one_transient_per_device(clauses) -> bool:
    """No two transient clauses reach one device: not two unscoped, not
    two for one shard, and not an unscoped one beside any other."""
    shards = [c.shard for c in clauses if c.kind == "transient"]
    return len(shards) <= 1 or (None not in shards
                                and len(set(shards)) == len(shards))


@given(_CLAUSES.filter(_one_transient_per_device))
def test_fault_profile_round_trips(clauses):
    profile = FaultProfile(tuple(clauses))
    assert FaultProfile.parse(profile.text()) == profile


@given(_CLAUSES)
def test_fault_profile_refuses_what_parse_refuses(clauses):
    """The constructor and the text path keep one rule: a tuple of
    clauses builds a profile exactly when the clauses' text parses."""
    try:
        parsed = FaultProfile.parse(";".join(c.text() for c in clauses))
    except ConfigError:
        with pytest.raises(ConfigError, match="reach one device"):
            FaultProfile(tuple(clauses))
    else:
        assert FaultProfile(tuple(clauses)) == parsed


_SCOPE = st.sampled_from(["", ":shard=0", ":shard=1", ":shard=3",
                          ":shard=-1"])
_FAULT_TEXT = st.lists(st.one_of(
    st.builds("transient:rate={}{}".format,
              st.sampled_from(["0", "1e-2", "1"]), _SCOPE),
    st.builds("slow:factor={}{}".format, st.sampled_from(["0.5", "2"]),
              _SCOPE),
    st.builds("loss:shard={}{}".format, st.integers(-1, 4),
              st.sampled_from(["", ":at_age=1", ":at_age=-1"])),
), min_size=1, max_size=3).map(";".join)
_STORE_ITEMS = st.fixed_dictionaries({
    "shards": st.integers(1, 4).map(str),
    "overlap": st.sampled_from(["true", "false"]),
    "queue": st.sampled_from(["round", "event"]),
}, optional={
    "arrival": st.sampled_from(["closed", "poisson:rate=500",
                                "poisson:rate=80:clients=2:seed=3"]),
    "replicas": st.integers(1, 3).map(str),
    "checkpoint_rate": st.sampled_from(["0", "0.5"]),
    "faults": _FAULT_TEXT,
})


@given(backend=st.sampled_from(backend_names()), items=_STORE_ITEMS)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_a_store_spec_that_parses_builds(backend, items):
    """Every spec rule is checked when the spec is built: a text is
    refused by ``StoreSpec.parse`` or its store builds."""
    assert set(items) <= set(STORE_KEYS)
    text = render(backend, items.items(), ",")
    try:
        spec = StoreSpec.parse(text, volume_bytes=256 * MB)
    except ConfigError:
        return
    build_store(resolve_spec(spec))


@given(st.one_of(
    st.just(ArrivalSpec()),
    st.builds(ArrivalSpec, st.just("poisson"),
              rate=st.floats(1e-6, 1e9).map(_short),
              clients=st.integers(0, 10 ** 6), seed=st.integers(0, 2 ** 64)),
))
def test_arrival_spec_round_trips(spec):
    assert ArrivalSpec.parse(spec.text()) == spec


@given(name=st.sampled_from(sorted(SCENARIO_PRESETS)),
       given_keys=st.fixed_dictionaries({}, optional={
           "tenants": st.integers(1, 64),
           "skew": st.floats(0.0, 4.0).map(_short),
           "seed": st.integers(0, 2 ** 32),
           "ttl": st.integers(1, 10 ** 6),
           "amplitude": st.floats(0.0, 0.99).map(_short),
           "period": st.integers(1, 10 ** 6),
       }))
def test_scenario_spec_round_trips(name, given_keys):
    text = render(name, ((k, f"{v:g}" if isinstance(v, float) else str(v))
                         for k, v in given_keys.items()), ",")
    spec = ScenarioSpec.parse(text)
    assert ScenarioSpec.parse(spec.text()) == spec
    assert spec.text() == render(name, sorted(spec.params), ",")
