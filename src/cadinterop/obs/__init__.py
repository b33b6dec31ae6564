"""Unified observability: tracing, metrics, lineage, exporters.

The paper's Section 6 methodology analyzes *a CAD system in operation* —
task graphs and data/control-flow traces of real tool runs.  This package
gives every pipeline in the reproduction one way to report what it did:

* :mod:`~cadinterop.obs.context` — the one current :class:`ObsContext`
  (tracer + metrics + lineage) every call site reports into; everything
  is off until a block runs under ``with installed(ObsContext(...))``; a
  fork of it runs a farm or a process worker, and its drained payload
  merges back in one call; :class:`StageSpan` times pipeline stages into
  spans and ``stage.*`` metrics;
* :mod:`~cadinterop.obs.trace` — hierarchical spans (context managers),
  contextvar nesting, thread-safe buffering, process-worker merge; off by
  default via a no-op singleton tracer;
* :mod:`~cadinterop.obs.metrics` — counters and fixed-bucket histograms
  with mergeable plain-dict snapshots;
* :mod:`~cadinterop.obs.lineage` — per-object provenance records at tool
  boundaries (preserved / transformed / approximated / dropped /
  synthesized) — the one count of them — with a
  :class:`~cadinterop.obs.lineage.LossReport` aggregator behind
  ``cadinterop audit``;
* :mod:`~cadinterop.obs.export` — JSONL trace files (spans, ``metric``
  records and lineage records in one file): the writer, the one record
  reader (``iter_records``) and the schema checks over it, span-tree and
  flat stats renderers;
* :mod:`~cadinterop.obs.validate` — the schema checker's command line
  (``python -m cadinterop.obs.validate``).

The instrumented pipelines are ``schematic.migrate`` (per-stage spans),
``farm`` (scheduler spans, metrics and lineage merged across workers),
``workflow.engine`` (run/step spans, step counters), and ``hdl``
(elaboration/simulation/co-simulation spans, event counters).  Drive them
from the shell via ``cadinterop trace --trace-out FILE <cmd> ...``, then
``cadinterop stats FILE`` and ``cadinterop audit FILE``.
"""

from cadinterop.obs.context import (
    ObsContext,
    StageSpan,
    current_context,
    get_lineage,
    get_metrics,
    get_tracer,
    install,
    installed,
)
from cadinterop.obs.export import (
    TRACE_FORMAT,
    iter_records,
    read_trace,
    render_stats,
    render_tree,
    span_stats,
    validate_trace,
    write_trace,
)
from cadinterop.obs.lineage import (
    LOSS_VERBS,
    NULL_LINEAGE,
    VERBS,
    LineageRecorder,
    LossReport,
    NullLineage,
)
from cadinterop.obs.metrics import (
    DEFAULT_BUCKETS,
    NULL_METRICS,
    Counter,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    render_metrics,
)
from cadinterop.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    current_span_id,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Histogram",
    "LOSS_VERBS",
    "LineageRecorder",
    "LossReport",
    "MetricsRegistry",
    "NULL_LINEAGE",
    "NULL_METRICS",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullLineage",
    "NullMetrics",
    "NullTracer",
    "ObsContext",
    "Span",
    "StageSpan",
    "TRACE_FORMAT",
    "Tracer",
    "VERBS",
    "current_context",
    "current_span_id",
    "get_lineage",
    "get_metrics",
    "get_tracer",
    "install",
    "installed",
    "iter_records",
    "read_trace",
    "render_metrics",
    "render_stats",
    "render_tree",
    "span_stats",
    "validate_trace",
    "write_trace",
]
