"""Hierarchical span tracing for the CAD pipelines.

The paper's Section 6 methodology is *analysis of a CAD system in
operation*: task graphs and data/control-flow traces of real tool runs.
This module is the runtime half of that analysis — a tracer that records
what the pipelines actually did, as a tree of timed **spans**:

* a span is one timed operation (``migrate:scaling``, ``farm:run``,
  ``workflow:step``) with attributes, a status, and a parent link;
* the *current* span is tracked through :mod:`contextvars`, so nesting
  works across ``with`` blocks;
* finished spans buffer inside the :class:`Tracer` (a lock guards the
  buffer); process workers run their own tracer and ship span dicts back
  for :meth:`Tracer.adopt`, which re-roots them under the run's span.

Tracing is **off by default** and zero-cost when off: the tracer of the
current :class:`~cadinterop.obs.context.ObsContext` is the
:data:`NULL_TRACER` singleton whose ``span()`` hands back one shared no-op
span — call sites pay a dict build and two method calls, nothing else.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
import uuid
from contextvars import ContextVar
from typing import Any, Dict, Iterable, List, Optional

#: The span id the *next* span in this execution context will parent to.
_CURRENT_ID: ContextVar[Optional[str]] = ContextVar("cadinterop_obs_span", default=None)

_IDS = itertools.count(1)

#: Attribute value types that survive span finish untouched; anything else
#: is stringified *at finish time* so the exported trace never depends on
#: ``json.dumps`` fallbacks silently rewriting attributes on the way out.
_PRIMITIVE_ATTRS = (str, int, float, bool, type(None))


def sanitize_attrs(attrs: Dict[str, Any]) -> Dict[str, Any]:
    """Coerce a span's attributes to JSON primitives (non-str keys and
    non-primitive values become their ``str()`` forms, explicitly)."""
    clean: Dict[str, Any] = {}
    for key, value in attrs.items():
        if not isinstance(key, str):
            key = str(key)
        clean[key] = value if isinstance(value, _PRIMITIVE_ATTRS) else str(value)
    return clean


def _new_span_id() -> str:
    """Process-unique monotonic id (pid-prefixed so pools cannot collide)."""
    return f"{os.getpid():x}-{next(_IDS):x}"


def current_span_id() -> Optional[str]:
    """Id of the innermost open span in this context, or None."""
    return _CURRENT_ID.get()


class Span:
    """One timed operation; a context manager that tracks nesting."""

    __slots__ = (
        "name", "span_id", "parent_id", "start", "seconds", "status",
        "attrs", "_tracer", "_t0", "_token",
    )

    enabled = True

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        parent_id: Optional[str],
        attrs: Dict[str, Any],
    ) -> None:
        self.name = name
        self.span_id = _new_span_id()
        self.parent_id = parent_id
        self.start = 0.0
        self.seconds = 0.0
        self.status = "ok"
        self.attrs = attrs
        self._tracer = tracer
        self._t0 = 0.0
        self._token = None

    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes on the open span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self.start = time.time()
        self._t0 = time.perf_counter()
        self._token = _CURRENT_ID.set(self.span_id)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.seconds = time.perf_counter() - self._t0
        if exc_type is not None:
            self.status = "error"
            self.attrs["error"] = f"{exc_type.__name__}: {exc}"
        if self._token is not None:
            _CURRENT_ID.reset(self._token)
            self._token = None
        self._tracer._finish(self)
        return False

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "seconds": self.seconds,
            "status": self.status,
            "attrs": sanitize_attrs(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id})"


class _NullSpan:
    """The shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()
    enabled = False
    span_id: Optional[str] = None
    parent_id: Optional[str] = None
    name = ""
    seconds = 0.0
    status = "ok"

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects finished spans; thread-safe; mergeable across processes."""

    enabled = True

    def __init__(self, trace_id: Optional[str] = None) -> None:
        self.trace_id = trace_id or uuid.uuid4().hex[:16]
        self._lock = threading.Lock()
        self._finished: List[Dict[str, Any]] = []

    # -- span creation ---------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Span:
        """Open a span (use as a context manager) under the current span."""
        return Span(self, name, _CURRENT_ID.get(), attrs)

    def _finish(self, span: Span) -> None:
        with self._lock:
            self._finished.append(span.as_dict())

    # -- collection ------------------------------------------------------

    def adopt(
        self,
        span_dicts: Iterable[Dict[str, Any]],
        parent_id: Optional[str] = None,
    ) -> None:
        """Merge spans exported by another tracer (e.g. a process worker);
        orphan roots are re-parented under ``parent_id``."""
        with self._lock:
            for record in span_dicts:
                if parent_id is not None and record.get("parent_id") is None:
                    record = dict(record, parent_id=parent_id)
                self._finished.append(record)

    def drain(self) -> List[Dict[str, Any]]:
        """Remove and return every buffered span (workers ship these back)."""
        with self._lock:
            spans, self._finished = self._finished, []
        return spans

    def spans(self) -> List[Dict[str, Any]]:
        """Snapshot of every finished span, ordered by start time."""
        with self._lock:
            spans = list(self._finished)
        return sorted(spans, key=lambda s: s.get("start", 0.0))

    def __len__(self) -> int:
        with self._lock:
            return len(self._finished)


class NullTracer:
    """The do-nothing tracer installed while tracing is disabled."""

    enabled = False
    trace_id: Optional[str] = None

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def adopt(self, span_dicts, parent_id=None) -> None:
        pass

    def drain(self) -> List[Dict[str, Any]]:
        return []

    def spans(self) -> List[Dict[str, Any]]:
        return []

    def __len__(self) -> int:
        return 0


NULL_TRACER = NullTracer()
