"""Lineage recorder: verbs, context, span links, merge, and LossReport."""

import pytest

from cadinterop.obs import (
    LOSS_VERBS,
    NULL_LINEAGE,
    VERBS,
    LineageRecorder,
    LossReport,
    ObsContext,
    Tracer,
    get_lineage,
    installed,
)


class TestRecorder:
    def test_record_fields_and_order(self):
        recorder = LineageRecorder()
        recorder.record("net", "CLK", "bus-syntax", "transformed",
                        detail="CLK -> clk")
        recorder.record("point", "w1", "scaling", "approximated")
        records = recorder.records()
        assert len(recorder) == 2
        assert records[0]["object_kind"] == "net"
        assert records[0]["object_id"] == "CLK"
        assert records[0]["stage"] == "bus-syntax"
        assert records[0]["verb"] == "transformed"
        assert records[0]["detail"] == "CLK -> clk"
        assert records[1]["verb"] == "approximated"

    def test_unknown_verb_rejected(self):
        with pytest.raises(ValueError, match="unknown lineage verb"):
            LineageRecorder().record("net", "x", "stage", "mangled")

    def test_verb_taxonomy_is_closed(self):
        assert VERBS == (
            "preserved", "transformed", "approximated", "dropped", "synthesized"
        )
        assert set(LOSS_VERBS) <= set(VERBS)

    def test_links_to_active_span(self):
        tracer = Tracer()
        recorder = LineageRecorder()
        with installed(ObsContext(tracer, lineage=recorder)):
            with tracer.span("migrate") as span:
                record = recorder.record("net", "n", "scaling", "preserved")
        assert record["span_id"] == span.span_id
        outside = recorder.record("net", "m", "scaling", "preserved")
        assert outside["span_id"] is None

    def test_context_sets_ambient_attribution(self):
        recorder = LineageRecorder()
        with recorder.context(design="d1", dialect="a->b"):
            inherited = recorder.record("net", "n", "s", "preserved")
            with recorder.context(design="d2"):  # dialect inherited
                nested = recorder.record("net", "n", "s", "preserved")
        after = recorder.record("net", "n", "s", "preserved")
        assert (inherited["design"], inherited["dialect"]) == ("d1", "a->b")
        assert (nested["design"], nested["dialect"]) == ("d2", "a->b")
        assert after["design"] is None and after["dialect"] is None

    def test_explicit_kwargs_beat_ambient(self):
        recorder = LineageRecorder()
        with recorder.context(design="ambient", dialect="x->y"):
            record = recorder.record("net", "n", "s", "preserved",
                                     design="explicit")
        assert record["design"] == "explicit"
        assert record["dialect"] == "x->y"

    def test_drain_and_adopt_merge_like_spans(self):
        parent = ObsContext(lineage=LineageRecorder())
        worker = parent.fork()
        worker.lineage.record("net", "a", "s", "preserved")
        worker.lineage.record("net", "b", "s", "dropped")
        shipped = worker.drain()
        assert len(worker.lineage) == 0
        parent.lineage.record("net", "c", "s", "preserved")
        parent.adopt(shipped)
        assert [r["object_id"] for r in parent.lineage.records()] == ["c", "a", "b"]


class TestSingleton:
    def test_disabled_by_default_and_inert(self):
        assert get_lineage() is NULL_LINEAGE
        assert not get_lineage().enabled
        assert NULL_LINEAGE.record("net", "x", "s", "dropped") is None
        with NULL_LINEAGE.context(design="d"):
            pass
        assert NULL_LINEAGE.records() == []
        assert NULL_LINEAGE.drain() == []
        assert len(NULL_LINEAGE) == 0

    def test_enable_disable_roundtrip(self):
        recorder = LineageRecorder()
        with installed(ObsContext(lineage=recorder)):
            assert get_lineage() is recorder
            get_lineage().record("net", "x", "s", "preserved")
        assert len(recorder) == 1
        assert get_lineage() is NULL_LINEAGE


def records_fixture():
    return [
        {"object_kind": "point", "object_id": "w", "stage": "scaling",
         "verb": "approximated", "detail": "", "span_id": "s1",
         "design": "d1", "dialect": "a->b"},
        {"object_kind": "intent", "object_id": "i", "stage": "pnr:convey",
         "verb": "dropped", "detail": "", "span_id": "s2",
         "design": "d1", "dialect": "tool-x"},
        {"object_kind": "net", "object_id": "n", "stage": "bus-syntax",
         "verb": "transformed", "detail": "", "span_id": None,
         "design": "d2", "dialect": "a->b"},
    ]


class TestLossReport:
    def test_counts_and_matrices(self):
        report = LossReport.from_records(records_fixture())
        assert report.total == 3
        assert report.losses == 2
        assert report.by_verb["approximated"] == 1
        assert report.stage_count("pnr:convey", "dropped") == 1
        assert report.stage_count("bus-syntax", "transformed") == 1
        assert report.stage_count("bus-syntax", "dropped") == 0
        assert report.dialects["a->b"]["transformed"] == 1
        assert report.unlinked == 1  # the record without a span_id

    def test_top_lossy_designs_ranked_and_nonzero_only(self):
        report = LossReport.from_records(records_fixture())
        assert report.top_lossy_designs() == [("d1", 2)]

    def test_rejects_unknown_verb(self):
        with pytest.raises(ValueError, match="unknown verb"):
            LossReport.from_records([{"verb": "vanished"}])

    def test_as_dict_and_render(self):
        report = LossReport.from_records(records_fixture())
        data = report.as_dict()
        assert data["total"] == 3 and data["losses"] == 2
        assert data["matrix"]["scaling"]["approximated"] == 1
        text = report.render()
        assert "3 records, 2 losses" in text
        assert "pnr:convey" in text and "a->b" in text
        assert "top lossy designs" in text and "d1" in text
        assert "without a span link" in text
        assert LossReport().render() == "(no lineage records)"
