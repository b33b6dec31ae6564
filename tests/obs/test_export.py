"""Exporters: JSONL roundtrip, tree/stats renderers, schema validation."""

import json

import pytest

from cadinterop.obs import (
    TRACE_FORMAT,
    LineageRecorder,
    MetricsRegistry,
    Tracer,
    iter_records,
    read_trace,
    render_stats,
    render_tree,
    span_stats,
    validate_trace,
    write_trace,
)
from cadinterop.obs import export
from cadinterop.obs.trace import sanitize_attrs
from cadinterop.obs.validate import main as validate_main


def sample_trace():
    tracer = Tracer(trace_id="cafe0123")
    with tracer.span("root", corpus=2):
        with tracer.span("child-a"):
            pass
        with tracer.span("child-b"):
            pass
    registry = MetricsRegistry()
    registry.counter("hits").inc(3)
    registry.histogram("lat").observe(0.2)
    return tracer, registry


def hand_span(name, span_id, parent_id, start, seconds):
    return {"name": name, "span_id": span_id, "parent_id": parent_id,
            "start": start, "seconds": seconds, "status": "ok", "attrs": {}}


class TestRoundtrip:
    def test_write_then_read(self, tmp_path):
        tracer, registry = sample_trace()
        path = tmp_path / "trace.jsonl"
        written = write_trace(path, tracer.spans(), registry.snapshot(),
                              trace_id=tracer.trace_id)
        assert written == 1 + 3 + 2  # meta + spans + metrics
        trace = read_trace(path)
        assert trace["meta"]["trace_id"] == "cafe0123"
        assert trace["meta"]["format"] == TRACE_FORMAT
        assert [s["name"] for s in trace["spans"]] == ["root", "child-a", "child-b"]
        assert trace["metrics"]["hits"]["value"] == 3
        assert trace["metrics"]["lat"] == registry.snapshot()["lat"]

    def test_read_rejects_unknown_record(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"record": "mystery"}\n')
        with pytest.raises(ValueError, match="mystery"):
            read_trace(path)

    def test_lineage_records_roundtrip(self, tmp_path):
        tracer, registry = sample_trace()
        recorder = LineageRecorder()
        recorder.record("net", "CLK", "bus-syntax", "transformed",
                        detail="CLK -> clk", design="top", dialect="a->b")
        recorder.record("intent", "region", "pnr:convey", "dropped")
        path = tmp_path / "trace.jsonl"
        written = write_trace(path, tracer.spans(), registry.snapshot(),
                              trace_id=tracer.trace_id,
                              lineage=recorder.records())
        assert written == 1 + 3 + 2 + 2  # meta + spans + lineage + metrics
        trace = read_trace(path)
        assert len(trace["lineage"]) == 2
        first = trace["lineage"][0]
        assert first["object_id"] == "CLK" and first["verb"] == "transformed"
        assert first["design"] == "top" and first["dialect"] == "a->b"


class TestCorruptInput:
    """Satellite: read_trace/validate must fail loudly, not guess."""

    def test_truncated_line_names_the_line(self, tmp_path):
        tracer, registry = sample_trace()
        path = tmp_path / "cut.jsonl"
        write_trace(path, tracer.spans(), registry.snapshot(),
                    trace_id=tracer.trace_id)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # mid-record truncation
        with pytest.raises(ValueError, match=r"line \d+: invalid JSON"):
            read_trace(path)
        with pytest.raises(ValueError, match="truncated"):
            read_trace(path)

    def test_future_format_is_refused(self, tmp_path):
        # Format 1 is no longer read, and format 3 is not known yet: the
        # reader and the validator refuse both with the reader's message.
        assert TRACE_FORMAT == 2
        path = tmp_path / "other.jsonl"
        for version in (1, 3):
            path.write_text(json.dumps({"record": "meta", "format": version,
                                        "trace_id": "x"}) + "\n")
            message = (f"line 1: unsupported trace format {version} "
                       f"(this reader understands 2)")
            with pytest.raises(ValueError) as refused:
                read_trace(path)
            assert str(refused.value) == message
            assert message in validate_trace(path)
        path.write_text(json.dumps({"record": "meta", "format": TRACE_FORMAT,
                                    "trace_id": "x"}) + "\n")
        assert read_trace(path)["meta"]["format"] == TRACE_FORMAT
        assert not any("format" in error for error in validate_trace(path))

    def test_non_object_record_is_refused(self, tmp_path):
        path = tmp_path / "list.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ValueError, match="not an object"):
            read_trace(path)

    def test_records_carry_their_line_and_kind(self, tmp_path):
        path = tmp_path / "lines.jsonl"
        path.write_text(
            json.dumps({"record": "meta", "format": TRACE_FORMAT, "trace_id": "x"})
            + "\n\n"
            + json.dumps({"record": "metric", "name": "hits", "type": "counter",
                          "value": 1})
            + "\n"
        )
        assert list(iter_records(path)) == [
            (1, "meta", {"format": TRACE_FORMAT, "trace_id": "x"}),
            (3, "metric", {"name": "hits", "type": "counter", "value": 1}),
        ]


class TestAttrSanitization:
    """Satellite: span attrs become primitives at finish, not at dump."""

    def test_sanitize_stringifies_non_primitives(self):
        clean = sanitize_attrs({"n": 3, "ok": True, "none": None,
                                "path": {"a": 1}, 4: "key"})
        assert clean["n"] == 3 and clean["ok"] is True and clean["none"] is None
        assert clean["path"] == "{'a': 1}"  # explicit str(), not a dumps fallback
        assert clean["4"] == "key"

    def test_finished_span_attrs_are_primitives(self):
        tracer = Tracer()
        with tracer.span("s", corpus=["a", "b"], size=2):
            pass
        attrs = tracer.spans()[0]["attrs"]
        assert attrs == {"corpus": "['a', 'b']", "size": 2}

    def test_write_trace_no_longer_stringifies_silently(self, tmp_path):
        # A producer bypassing span-finish sanitization must raise, not be
        # papered over by json.dumps(default=str).
        span = {"name": "s", "span_id": "1", "parent_id": None, "start": 1.0,
                "seconds": 0.1, "status": "ok", "attrs": {"bad": {1, 2}}}
        with pytest.raises(TypeError):
            write_trace(tmp_path / "t.jsonl", [span], trace_id="x")

    def test_validator_flags_non_primitive_attrs(self, tmp_path):
        path = tmp_path / "attrs.jsonl"
        path.write_text(
            "\n".join([
                json.dumps({"record": "meta", "format": 2, "trace_id": "x"}),
                json.dumps({"record": "span", "span_id": "s1", "parent_id": None,
                            "name": "root", "start": 1.0, "seconds": 0.1,
                            "status": "ok", "attrs": {"corpus": [1, 2]}}),
            ]) + "\n"
        )
        errors = "\n".join(validate_trace(path))
        assert "attr 'corpus' is not a primitive (list)" in errors
        assert "sanitize at span finish" in errors


class TestRenderers:
    def test_tree_shows_nesting_and_attrs(self):
        tracer, _registry = sample_trace()
        tree = render_tree(tracer.spans())
        assert "3 spans" in tree.splitlines()[0]
        assert "└─ root" in tree and "{corpus=2}" in tree
        assert "├─ child-a" in tree and "└─ child-b" in tree

    def test_tree_promotes_orphans_and_truncates(self, monkeypatch):
        spans = [
            {"name": f"s{i}", "span_id": str(i), "parent_id": "missing",
             "start": float(i), "seconds": 0.0, "status": "ok", "attrs": {}}
            for i in range(5)
        ]
        monkeypatch.setattr(export, "MAX_TREE_SPANS", 3)
        tree = render_tree(spans)
        assert "s0" in tree and "truncated at 3" in tree
        assert render_tree([]) == "(empty trace)"

    def test_error_status_is_flagged(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert "[ERROR]" in render_tree(tracer.spans())

    def test_span_stats_aggregates_by_name(self):
        tracer, registry = sample_trace()
        stats = span_stats(tracer.spans())
        assert stats["root"][0] == 1
        assert set(stats) == {"root", "child-a", "child-b"}
        text = render_stats(tracer.spans(), registry.snapshot())
        assert "root" in text and "hits" in text and "n=1" in text

    def test_self_time_excludes_children_and_shares_sum_to_one(self):
        # root 0-10 s holds a (1-4 s, with g at 2-3 s) and b (5-8 s).
        spans = [
            hand_span("root", "r", None, 0.0, 10.0),
            hand_span("a", "a", "r", 1.0, 3.0),
            hand_span("g", "g", "a", 2.0, 1.0),
            hand_span("b", "b", "r", 5.0, 3.0),
        ]
        stats = span_stats(spans)
        assert stats["root"] == (1, 10.0, 4.0)
        assert stats["a"] == (1, 3.0, 2.0)
        assert stats["g"] == (1, 1.0, 1.0)
        assert stats["b"] == (1, 3.0, 3.0)
        rows = render_stats(spans).splitlines()[1:]
        shares = {row.split()[0]: float(row.split()[-1].rstrip("%")) for row in rows}
        assert shares == {"root": 40.0, "b": 30.0, "a": 20.0, "g": 10.0}
        assert sum(shares.values()) == 100.0

    def test_self_time_counts_overlapping_children_once(self):
        # Parallel workers overlap; a child running past its parent's end
        # (clock skew) is clipped to the parent's interval.
        spans = [
            hand_span("run", "r", None, 0.0, 10.0),
            hand_span("worker", "w1", "r", 1.0, 3.0),
            hand_span("worker", "w2", "r", 3.0, 3.0),
            hand_span("late", "l", "r", 9.0, 3.0),
        ]
        calls, total, own = span_stats(spans)["run"]
        assert (calls, total) == (1, 10.0)
        assert own == 10.0 - 5.0 - 1.0


class TestValidate:
    def write_sample(self, tmp_path):
        tracer, registry = sample_trace()
        path = tmp_path / "trace.jsonl"
        write_trace(path, tracer.spans(), registry.snapshot(),
                    trace_id=tracer.trace_id)
        return path

    def test_clean_trace_validates(self, tmp_path):
        assert validate_trace(self.write_sample(tmp_path)) == []

    def test_missing_file(self, tmp_path):
        errors = validate_trace(tmp_path / "nope.jsonl")
        assert errors and "cannot read" in errors[0]

    def test_corruption_is_detected(self, tmp_path):
        path = self.write_sample(tmp_path)
        lines = path.read_text().splitlines()
        # Corrupt one span: break its parent link and negate its duration.
        record = json.loads(lines[2])
        record["parent_id"] = "does-not-exist"
        record["seconds"] = -1.0
        lines[2] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        errors = validate_trace(path)
        assert any("unresolved parent" in e or "parent" in e for e in errors)
        assert any("negative duration" in e for e in errors)

    def test_structural_violations(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            "\n".join([
                json.dumps({"record": "span", "span_id": "a", "name": "x",
                            "start": 1.0, "seconds": 0.1, "status": "weird"}),
                json.dumps({"record": "span", "span_id": "a", "name": "y",
                            "start": 2.0, "seconds": 0.1, "status": "ok"}),
                json.dumps({"record": "metric", "name": "h", "type": "histogram",
                            "buckets": [1.0], "counts": [1], "sum": 0.5,
                            "count": 1}),
                "not json",
            ]) + "\n"
        )
        errors = "\n".join(validate_trace(path))
        assert "no meta record" in errors
        assert "duplicate span ids" in errors
        assert "status 'weird'" in errors
        assert "buckets+1" in errors or "counts" in errors
        assert "invalid JSON" in errors

    def test_validation_stops_at_the_first_undecodable_line(self, tmp_path):
        path = self.write_sample(tmp_path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2][:10]  # a cut record in the middle of the file
        lines[4] = json.dumps({"record": "span", "span_id": "late"})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as refused:
            read_trace(path)
        errors = validate_trace(path)
        assert str(refused.value) in errors
        assert str(refused.value).startswith("line 3: invalid JSON")
        # The malformed span after the cut is never read.
        assert not any("line 5" in error for error in errors)

    def test_lineage_contract(self, tmp_path):
        path = tmp_path / "lineage.jsonl"
        path.write_text(
            "\n".join([
                json.dumps({"record": "meta", "format": 2, "trace_id": "x"}),
                json.dumps({"record": "span", "span_id": "s1", "parent_id": None,
                            "name": "root", "start": 1.0, "seconds": 0.1,
                            "status": "ok", "attrs": {}}),
                # Good record: linked to s1.
                json.dumps({"record": "lineage", "object_kind": "net",
                            "object_id": "n", "stage": "scaling",
                            "verb": "approximated", "detail": "", "span_id": "s1",
                            "design": None, "dialect": None}),
                # Bad verb, dangling span link, missing object_id.
                json.dumps({"record": "lineage", "object_kind": "net",
                            "object_id": "", "stage": "scaling",
                            "verb": "mangled", "detail": "", "span_id": "ghost",
                            "design": None, "dialect": None}),
            ]) + "\n"
        )
        errors = "\n".join(validate_trace(path))
        assert "lineage verb 'mangled' invalid" in errors
        assert "lineage span_id 'ghost' not in this trace" in errors
        assert "lineage record without a string object_id" in errors
        assert "'s1'" not in errors  # the linked record is clean

    def test_cli_entry_point(self, tmp_path, capsys):
        good = self.write_sample(tmp_path)
        assert validate_main([str(good)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "3 spans" in out
        bad = tmp_path / "empty.jsonl"
        bad.write_text("")
        assert validate_main([str(bad)]) == 1
