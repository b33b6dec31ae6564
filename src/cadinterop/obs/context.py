"""One observability context: the tracer, metrics and lineage of a run.

Every instrumented call site reports into the *current* context through
:func:`get_tracer`, :func:`get_metrics` and :func:`get_lineage` — plain
field reads, cheap enough for the simulator's hot path.  By default all
three are the no-op singletons; ``with installed(ObsContext(...))`` (or
``installed(ObsContext.enabled())``) is the one way to switch any of them
on, for one block.  :func:`install` is its unscoped half, for a process
worker's initializer.

Work that runs elsewhere (a farm run, a process worker) reports into a
:meth:`ObsContext.fork` and hands everything back in one move:
:meth:`ObsContext.drain` packs spans, a metrics snapshot and lineage
records into one picklable payload, and :meth:`ObsContext.adopt` merges
all three — so every executor leaves the caller with the same record.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from cadinterop.obs.lineage import NULL_LINEAGE, LineageRecorder
from cadinterop.obs.metrics import NULL_METRICS, MetricsRegistry
from cadinterop.obs.trace import NULL_TRACER, Tracer


def _empty(trace_id: Optional[str], metrics: bool, lineage: bool) -> "ObsContext":
    return ObsContext(
        Tracer(trace_id) if trace_id else NULL_TRACER,
        MetricsRegistry() if metrics else NULL_METRICS,
        LineageRecorder() if lineage else NULL_LINEAGE,
    )


class ObsContext:
    """The tracer, metrics registry and lineage recorder a run reports into."""

    __slots__ = ("tracer", "metrics", "lineage")

    def __init__(
        self, tracer=NULL_TRACER, metrics=NULL_METRICS, lineage=NULL_LINEAGE
    ) -> None:
        self.tracer = tracer
        self.metrics = metrics
        self.lineage = lineage

    @classmethod
    def enabled(cls, trace_id: Optional[str] = None) -> "ObsContext":
        """A context with all three facilities on."""
        return cls(Tracer(trace_id), MetricsRegistry(), LineageRecorder())

    def _shape(self):
        return (self.tracer.trace_id, self.metrics.enabled, self.lineage.enabled)

    def fork(self) -> "ObsContext":
        """An empty context with the same facilities on and trace id."""
        return _empty(*self._shape())

    def __reduce__(self):
        # Only the shape crosses a pickle boundary: a process worker gets
        # an empty fork, never a copy of what this side has buffered.
        return (_empty, self._shape())

    def drain(self) -> Dict[str, Any]:
        """Remove everything recorded so far, as one picklable payload."""
        return {
            "spans": self.tracer.drain(),
            "metrics": self.metrics.drain(),
            "lineage": self.lineage.drain(),
        }

    def adopt(self, payload: Dict[str, Any], parent_id: Optional[str] = None) -> None:
        """Merge a drained payload; its root spans re-parent to ``parent_id``."""
        self.tracer.adopt(payload["spans"], parent_id)
        self.metrics.merge(payload["metrics"])
        self.lineage.adopt(payload["lineage"])


_CURRENT = ObsContext()


def current_context() -> ObsContext:
    return _CURRENT


def install(context: ObsContext) -> ObsContext:
    """Make ``context`` current; returns the context it replaced."""
    global _CURRENT
    previous, _CURRENT = _CURRENT, context
    return previous


@contextmanager
def installed(context: ObsContext) -> Iterator[ObsContext]:
    """Run a block with ``context`` current, then restore the previous one."""
    previous = install(context)
    try:
        yield context
    finally:
        install(previous)


def get_tracer():
    return _CURRENT.tracer


def get_metrics():
    return _CURRENT.metrics


def get_lineage():
    return _CURRENT.lineage


class StageSpan:
    """The one way to time a pipeline stage: a ``span_name`` span, then on
    exit the current metrics' ``stage.seconds[<stage>]`` histogram and
    ``stage.items[<stage>]`` counter.  Set :attr:`items` inside the block."""

    __slots__ = ("stage", "items", "seconds", "_span", "_t0")

    def __init__(self, stage: str, span_name: str) -> None:
        self.stage = stage
        self.items = 0
        self.seconds = 0.0
        self._span = _CURRENT.tracer.span(span_name)

    def __enter__(self) -> "StageSpan":
        self._span.__enter__()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.seconds = time.perf_counter() - self._t0
        self._span.set(items=self.items)
        self._span.__exit__(exc_type, exc, tb)
        metrics = _CURRENT.metrics
        metrics.histogram(f"stage.seconds[{self.stage}]").observe(self.seconds)
        if self.items:
            metrics.counter(f"stage.items[{self.stage}]").inc(self.items)
        return False
