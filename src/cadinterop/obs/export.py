"""Exporters for traces and metrics: JSONL file, span tree, stats tables.

One trace file is JSON Lines: a ``meta`` record first, then one ``span``
record per finished span, one ``lineage`` record per provenance event
(format 2), then one ``metric`` record per instrument.  Everything is
primitives, so any log pipeline (or ``cadinterop stats``/``audit``) can
consume it; :mod:`cadinterop.obs.validate` checks the contract.

Format history:

* **1** — meta + span + metric records.
* **2** — adds ``lineage`` records (:mod:`cadinterop.obs.lineage`); span
  attributes are sanitized to primitives at span-finish time, so the
  writer no longer stringifies values on the way out.  Format-1 files
  still read (their ``lineage`` list is simply empty).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Tuple

from cadinterop.obs.metrics import render_metrics

#: Format version stamped into every trace file's meta record.
TRACE_FORMAT = 2

#: Format versions :func:`read_trace` knows how to parse.
READABLE_FORMATS = (1, 2)


def trace_records(
    spans: Iterable[Dict[str, Any]],
    metrics: Optional[Dict[str, Dict[str, Any]]] = None,
    trace_id: Optional[str] = None,
    meta: Optional[Dict[str, Any]] = None,
    lineage: Optional[Iterable[Dict[str, Any]]] = None,
) -> List[Dict[str, Any]]:
    """The record stream a trace file is made of (meta, spans, lineage,
    metrics)."""
    records: List[Dict[str, Any]] = [
        {"record": "meta", "format": TRACE_FORMAT, "trace_id": trace_id or "",
         **(meta or {})}
    ]
    for span in spans:
        records.append({"record": "span", **span})
    for entry in (lineage or ()):
        records.append({"record": "lineage", **entry})
    for name, data in sorted((metrics or {}).items()):
        records.append({"record": "metric", "name": name, **data})
    return records


def write_trace(
    path,
    spans: Iterable[Dict[str, Any]],
    metrics: Optional[Dict[str, Dict[str, Any]]] = None,
    trace_id: Optional[str] = None,
    meta: Optional[Dict[str, Any]] = None,
    lineage: Optional[Iterable[Dict[str, Any]]] = None,
) -> int:
    """Write a JSONL trace file; returns the number of records written.

    Records must already be primitives (spans sanitize their attributes at
    finish time) — a non-serializable value raises instead of being
    silently stringified.
    """
    records = trace_records(spans, metrics, trace_id, meta, lineage)
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")
    return len(records)


def read_trace(path) -> Dict[str, Any]:
    """Parse a JSONL trace file into ``{"meta", "spans", "lineage",
    "metrics"}``.

    Reads every format in :data:`READABLE_FORMATS` (format-1 files simply
    have no lineage records); raises :class:`ValueError` naming the line
    for truncated/corrupt JSON, unknown record types, and meta records
    declaring a format this reader does not know.
    """
    meta: Dict[str, Any] = {}
    spans: List[Dict[str, Any]] = []
    lineage: List[Dict[str, Any]] = []
    metrics: Dict[str, Dict[str, Any]] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"line {number}: invalid JSON ({exc.msg}) — truncated file?"
                ) from exc
            if not isinstance(record, dict):
                raise ValueError(f"line {number}: record is not an object")
            kind = record.pop("record", None)
            if kind == "meta":
                version = record.get("format")
                if version not in READABLE_FORMATS:
                    raise ValueError(
                        f"line {number}: unsupported trace format {version!r} "
                        f"(this reader understands {READABLE_FORMATS})"
                    )
                meta = record
            elif kind == "span":
                spans.append(record)
            elif kind == "lineage":
                lineage.append(record)
            elif kind == "metric":
                metrics[record.pop("name")] = record
            else:
                raise ValueError(f"line {number}: unknown trace record type {kind!r}")
    spans.sort(key=lambda span: span.get("start", 0.0))
    return {"meta": meta, "spans": spans, "lineage": lineage, "metrics": metrics}


# ---------------------------------------------------------------------------
# Human-readable renderers
# ---------------------------------------------------------------------------


def _format_attrs(attrs: Dict[str, Any]) -> str:
    if not attrs:
        return ""
    inner = ", ".join(f"{key}={value}" for key, value in sorted(attrs.items()))
    return "  {" + inner + "}"


def render_tree(spans: List[Dict[str, Any]], max_spans: int = 500) -> str:
    """The trace as an indented tree, children ordered by start time."""
    if not spans:
        return "(empty trace)"
    ordered = sorted(spans, key=lambda span: span.get("start", 0.0))
    known = {span["span_id"] for span in ordered}
    children: Dict[Optional[str], List[Dict[str, Any]]] = {}
    for span in ordered:
        parent = span.get("parent_id")
        if parent not in known:
            parent = None  # orphan (e.g. a truncated file): promote to root
        children.setdefault(parent, []).append(span)

    lines: List[str] = []
    truncated = [False]

    def walk(span: Dict[str, Any], prefix: str, last: bool) -> None:
        if len(lines) >= max_spans:
            truncated[0] = True
            return
        branch = "└─ " if last else "├─ "
        status = "" if span.get("status", "ok") == "ok" else " [ERROR]"
        lines.append(
            f"{prefix}{branch}{span['name']} {span.get('seconds', 0.0) * 1e3:.2f} ms"
            f"{status}{_format_attrs(span.get('attrs') or {})}"
        )
        kids = children.get(span["span_id"], [])
        extend = "   " if last else "│  "
        for index, kid in enumerate(kids):
            walk(kid, prefix + extend, index == len(kids) - 1)

    roots = children.get(None, [])
    total = sum(span.get("seconds", 0.0) for span in roots)
    lines.append(f"trace: {len(ordered)} spans, {total * 1e3:.1f} ms in root spans")
    for index, root in enumerate(roots):
        walk(root, "", index == len(roots) - 1)
    if truncated[0]:
        lines.append(f"... truncated at {max_spans} spans")
    return "\n".join(lines)


def span_stats(
    spans: Iterable[Dict[str, Any]],
) -> Dict[str, Tuple[int, float, float]]:
    """Aggregate spans by name -> (calls, total seconds, self seconds).

    A span's self time is its duration minus the union of the intervals
    its direct children cover: children are clipped to the parent's
    interval, and overlapping children (parallel workers) count once.
    """
    spans = list(spans)
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.get("parent_id") is not None:
            start = span.get("start", 0.0)
            children.setdefault(span["parent_id"], []).append(
                (start, start + span.get("seconds", 0.0))
            )
    stats: Dict[str, Tuple[int, float, float]] = {}
    for span in spans:
        seconds = span.get("seconds", 0.0)
        reach = span.get("start", 0.0)
        end = reach + seconds
        covered = 0.0
        for child_start, child_end in sorted(children.get(span["span_id"], ())):
            child_start, child_end = max(child_start, reach), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        calls, total, own = stats.get(span["name"], (0, 0.0, 0.0))
        stats[span["name"]] = (calls + 1, total + seconds, own + seconds - covered)
    return stats


def render_stats(
    spans: List[Dict[str, Any]],
    metrics: Optional[Dict[str, Dict[str, Any]]] = None,
) -> str:
    """Flat stats: per-span-name aggregates plus the metrics table.

    Rows are ordered by self time, and "share" is the share of the summed
    self time, so nested spans are not counted twice.
    """
    lines = [
        f"{'span':26} {'calls':>6} {'total ms':>10} {'self ms':>10} "
        f"{'mean ms':>9}  share"
    ]
    stats = span_stats(spans)
    grand_self = sum(own for _calls, _total, own in stats.values()) or 1.0
    for name, (calls, total, own) in sorted(stats.items(), key=lambda kv: -kv[1][2]):
        lines.append(
            f"{name:26} {calls:6d} {total * 1e3:10.2f} {own * 1e3:10.2f} "
            f"{total * 1e3 / calls:9.3f}  {own / grand_self:5.1%}"
        )
    if metrics:
        lines.append("")
        lines.append(render_metrics(metrics))
    return "\n".join(lines)
