"""Tests for cadinterop.common.namemap."""

import pytest
from hypothesis import given, strategies as st

from cadinterop.common.namemap import (
    NameCollisionError,
    NameMap,
    hierarchical_join,
    truncating_transform,
)

identifiers = st.from_regex(r"[a-z_][a-z_0-9]{0,15}", fullmatch=True)


class TestNameMap:
    def test_identity_by_default(self):
        nm = NameMap()
        assert nm.map("clk") == "clk"
        assert nm.renames == []

    def test_stable_repeat_mapping(self):
        nm = NameMap(truncating_transform(8))
        assert nm.map("cntr_reset1") == nm.map("cntr_reset1")

    def test_paper_truncation_example(self):
        """cntr_reset1 and cntr_reset2 both prefer cntr_res (aliasing)."""
        nm = NameMap(truncating_transform(8))
        first = nm.map("cntr_reset1")
        second = nm.map("cntr_reset2")
        assert first == "cntr_res"
        assert second == "cntr_res_2"
        assert nm.unmap("cntr_res_2") == "cntr_reset2"

    def test_non_uniquify_raises_like_buggy_tools_should(self):
        nm = NameMap(truncating_transform(8), uniquify=False)
        nm.map("cntr_reset1")
        with pytest.raises(NameCollisionError):
            nm.map("cntr_reset2")

    def test_unmap_recovers_source(self):
        nm = NameMap(truncating_transform(4))
        target = nm.map("longname")
        assert nm.unmap(target) == "longname"

    def test_unmap_unknown_raises(self):
        with pytest.raises(KeyError):
            NameMap().unmap("ghost")

    def test_force_consistent(self):
        nm = NameMap()
        nm.force("in", "in_sig")
        nm.force("in", "in_sig")  # idempotent
        assert nm.target_of("in") == "in_sig"
        assert nm.source_of("in_sig") == "in"

    def test_force_conflicting_source(self):
        nm = NameMap()
        nm.force("in", "in_sig")
        with pytest.raises(NameCollisionError):
            nm.force("in", "other")

    def test_force_taken_target(self):
        nm = NameMap()
        nm.force("a", "x")
        with pytest.raises(NameCollisionError):
            nm.force("b", "x")

    def test_renames_record_reason(self):
        nm = NameMap(lambda n: n.upper())
        nm.map("clk", reason="uppercase convention")
        assert nm.renames[0].reason == "uppercase convention"

    def test_uniquify_counter_skips_taken(self):
        nm = NameMap(truncating_transform(1))
        assert nm.map("ab") == "a"
        assert nm.map("ac") == "a_2"
        assert nm.map("ad") == "a_3"

    @given(st.lists(identifiers, unique=True, max_size=30))
    def test_targets_always_unique_and_invertible(self, names):
        nm = NameMap(truncating_transform(4))
        targets = [nm.map(n) for n in names]
        assert len(set(targets)) == len(names)
        for name, target in zip(names, targets):
            assert nm.unmap(target) == name

    @given(st.lists(identifiers, unique=True, max_size=30))
    def test_len_and_iter(self, names):
        nm = NameMap()
        for n in names:
            nm.map(n)
        assert len(nm) == len(names)
        assert dict(iter(nm)) == {n: n for n in names}


class TestHelpers:
    def test_hierarchical_join(self):
        assert hierarchical_join(("top", "u1", "ff")) == "top_u1_ff"
        assert hierarchical_join(("top", "u1"), separator=".") == "top.u1"

    def test_truncating_transform_validates(self):
        with pytest.raises(ValueError):
            truncating_transform(0)
