"""Span tracer: nesting, error capture, worker merge, no-op mode."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from cadinterop.obs import (
    NULL_SPAN,
    NULL_TRACER,
    ObsContext,
    Tracer,
    current_span_id,
    get_tracer,
    installed,
)


class TestNesting:
    def test_parent_ids_follow_lexical_nesting(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                with tracer.span("leaf") as leaf:
                    assert leaf.parent_id == inner.span_id
                assert current_span_id() == inner.span_id
            assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert current_span_id() is None
        names = [s["name"] for s in tracer.spans()]
        assert names == ["outer", "inner", "leaf"]

    def test_siblings_share_a_parent(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == b.parent_id == root.span_id

    def test_a_new_thread_starts_at_the_root(self):
        import threading

        tracer = Tracer()
        opened = []

        def worker():
            with tracer.span("job") as span:
                opened.append(span)

        with tracer.span("root"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert opened[0].parent_id is None

    def test_span_ids_are_unique(self):
        tracer = Tracer()
        for _ in range(50):
            with tracer.span("s"):
                pass
        ids = [s["span_id"] for s in tracer.spans()]
        assert len(set(ids)) == 50


class TestSpanData:
    def test_attrs_and_timing(self):
        tracer = Tracer()
        with tracer.span("work", kind="test") as span:
            span.set(items=3)
        record = tracer.spans()[0]
        assert record["attrs"] == {"kind": "test", "items": 3}
        assert record["seconds"] >= 0
        assert record["start"] > 0
        assert record["status"] == "ok"

    def test_exception_marks_error_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        record = tracer.spans()[0]
        assert record["status"] == "error"
        assert "ValueError: nope" in record["attrs"]["error"]

    def test_drain_empties_the_buffer(self):
        context = ObsContext(Tracer())
        with context.tracer.span("one"):
            pass
        drained = context.drain()
        assert [s["name"] for s in drained["spans"]] == ["one"]
        assert len(context.tracer) == 0
        assert context.drain()["spans"] == []

    def test_adopt_reroots_orphans_only(self):
        parent = ObsContext(Tracer())
        with parent.tracer.span("root") as root:
            pass
        child = parent.fork()  # what a process worker reports into
        assert child.tracer.trace_id == parent.tracer.trace_id
        with child.tracer.span("worker-root"):
            with child.tracer.span("worker-leaf"):
                pass
        parent.adopt(child.drain(), parent_id=root.span_id)
        by_name = {s["name"]: s for s in parent.tracer.spans()}
        assert by_name["worker-root"]["parent_id"] == root.span_id
        leaf = by_name["worker-leaf"]
        assert leaf["parent_id"] == by_name["worker-root"]["span_id"]

    def test_context_pickles_as_an_empty_fork(self):
        # What a process worker's initializer receives.
        context = ObsContext(Tracer("feedbeef"))
        with context.tracer.span("buffered"):
            pass
        shipped = pickle.loads(pickle.dumps(context))
        assert shipped.tracer.trace_id == "feedbeef" and len(shipped.tracer) == 0
        assert not shipped.metrics.enabled and not shipped.lineage.enabled
        assert pickle.loads(pickle.dumps(ObsContext())).tracer is NULL_TRACER

    def test_span_dicts_are_picklable(self):
        context = ObsContext(Tracer())
        with context.tracer.span("w", design="x"):
            pass
        payload = context.drain()
        assert pickle.loads(pickle.dumps(payload)) == payload


class TestGlobalSingleton:
    def test_disabled_by_default(self):
        assert get_tracer() is NULL_TRACER
        assert not get_tracer().enabled

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("anything", attr=1) as span:
            assert span is NULL_SPAN
            span.set(more=2)  # no-op, no error
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.spans() == []
        assert NULL_TRACER.drain() == []
        assert current_span_id() is None

    def test_enable_disable_roundtrip(self):
        tracer = Tracer()
        with installed(ObsContext(tracer)):
            assert get_tracer() is tracer and tracer.enabled
            with get_tracer().span("visible"):
                pass
        assert len(tracer) == 1
        assert get_tracer() is NULL_TRACER

    def test_enable_with_fixed_trace_id(self):
        with installed(ObsContext.enabled("feedbeef")) as context:
            assert get_tracer() is context.tracer
        assert context.tracer.trace_id == "feedbeef"


class TestOneReportingChannel:
    def test_simulation_and_routing_do_not_import_logging(self):
        import cadinterop

        src = str(Path(cadinterop.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        probe = (
            "import sys, cadinterop.hdl.races, cadinterop.hdl.cosim, "
            "cadinterop.pnr.routing, cadinterop.rtl2gds; "
            "assert 'logging' not in sys.modules, 'logging imported'"
        )
        completed = subprocess.run(
            [sys.executable, "-c", probe], env=env,
            capture_output=True, text=True, timeout=60,
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
