"""Span-aware logging: id stamping, namespacing, one-time configuration."""

import logging

from cadinterop.obs import ObsContext, Tracer, get_logger, get_tracer, installed
from cadinterop.obs.logger import ROOT_LOGGER, SpanContextFilter


class _Capture(logging.Handler):
    def __init__(self):
        super().__init__(level=logging.DEBUG)
        self.records = []

    def emit(self, record):
        self.records.append(record)


def capture(logger):
    handler = _Capture()
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    return handler


class TestGetLogger:
    def test_names_are_rooted_under_cadinterop(self):
        assert get_logger("farm.scheduler").name == "cadinterop.farm.scheduler"
        assert get_logger("cadinterop.x").name == "cadinterop.x"
        assert get_logger(ROOT_LOGGER).name == ROOT_LOGGER

    def test_root_handler_configured_once(self):
        get_logger("a")
        get_logger("b")
        root = logging.getLogger(ROOT_LOGGER)
        assert len(root.handlers) >= 1
        stamped = [h for h in root.handlers
                   if any(isinstance(f, SpanContextFilter) for f in h.filters)]
        assert stamped

    def test_records_carry_dashes_when_tracing_off(self):
        logger = get_logger("test.quiet")
        handler = capture(logger)
        try:
            logger.warning("hello")
        finally:
            logger.removeHandler(handler)
        record = handler.records[0]
        assert record.trace_id == "-" and record.span_id == "-"

    def test_records_carry_live_span_ids(self):
        tracer = Tracer("deadbeef00")
        logger = get_logger("test.traced")
        handler = capture(logger)
        try:
            with installed(ObsContext(tracer)), get_tracer().span("op") as span:
                logger.warning("inside")
        finally:
            logger.removeHandler(handler)
        record = handler.records[0]
        assert record.trace_id == "deadbeef00" == tracer.trace_id
        assert record.span_id == span.span_id

    def test_format_string_renders(self):
        logger = get_logger("test.fmt")
        handler = capture(logger)
        try:
            logger.warning("formatted %d", 7)
        finally:
            logger.removeHandler(handler)
        from cadinterop.obs.logger import LOG_FORMAT

        line = logging.Formatter(LOG_FORMAT).format(handler.records[0])
        assert "formatted 7" in line and "[-/-]" in line
