"""Span-aware logging: one logger factory for every cadinterop module.

:func:`get_logger` replaces ad-hoc per-module ``logging`` setup.  Every
record carries ``trace_id`` and ``span_id`` fields (``-`` when tracing is
off), so a log line emitted deep inside a migration stage can be joined
against the JSONL trace of the same run.

Configuration happens once, on the ``cadinterop`` root logger: a stderr
handler whose level comes from ``CADINTEROP_LOG`` (default ``WARNING``,
so instrumented modules stay silent in tests and benchmarks).
"""

from __future__ import annotations

import logging
import os

from cadinterop.obs.context import get_tracer
from cadinterop.obs.trace import current_span_id

#: Root of every logger this factory hands out.
ROOT_LOGGER = "cadinterop"

LOG_FORMAT = "%(levelname)s %(name)s [%(trace_id)s/%(span_id)s] %(message)s"

_configured = False


class SpanContextFilter(logging.Filter):
    """Stamps the current trace/span ids onto every record."""

    def filter(self, record: logging.LogRecord) -> bool:
        tracer = get_tracer()
        record.trace_id = tracer.trace_id if tracer.enabled else "-"
        record.span_id = current_span_id() or "-"
        return True


def _ensure_configured() -> None:
    global _configured
    if _configured:
        return
    root = logging.getLogger(ROOT_LOGGER)
    if not root.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter(LOG_FORMAT))
        handler.addFilter(SpanContextFilter())
        root.addHandler(handler)
        root.setLevel(os.environ.get("CADINTEROP_LOG", "WARNING").upper())
    _configured = True


def get_logger(name: str) -> logging.Logger:
    """A ``cadinterop.<name>`` logger whose records carry span context."""
    _ensure_configured()
    if name != ROOT_LOGGER and not name.startswith(ROOT_LOGGER + "."):
        name = f"{ROOT_LOGGER}.{name}"
    logger = logging.getLogger(name)
    # The filter rides on the logger too (not just the root handler), so
    # user-attached handlers and caplog-style captures see span ids.
    if not any(isinstance(f, SpanContextFilter) for f in logger.filters):
        logger.addFilter(SpanContextFilter())
    return logger
