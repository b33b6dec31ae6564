"""Shared fixtures: every obs test leaves the null default context current."""

import pytest

from cadinterop.obs import (
    NULL_LINEAGE,
    NULL_METRICS,
    NULL_TRACER,
    current_context,
)


@pytest.fixture(autouse=True)
def _leaves_null_default_context():
    default = current_context()
    yield
    context = current_context()
    assert context is default, "a test left another context installed"
    assert (context.tracer, context.metrics, context.lineage) == (
        NULL_TRACER, NULL_METRICS, NULL_LINEAGE
    ), "a test switched on a facility of the default context"
