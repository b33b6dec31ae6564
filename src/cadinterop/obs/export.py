"""The trace file format, its one reader and its schema checks; renderers.

One trace file is JSON Lines: a ``meta`` record first, then one ``span``
record per finished span, one ``lineage`` record per provenance event,
then one ``metric`` record per instrument.  Everything is primitives, so
any log pipeline can consume it.  :func:`write_trace` writes the file and
:func:`iter_records` is the one reader: :func:`read_trace`,
:func:`validate_trace` (``python -m cadinterop.obs.validate``) and
``cadinterop stats``/``audit`` all go through it, so a damaged file is
refused with the same message everywhere.

Format history:

* **1** — meta + span + metric records.  No longer read.
* **2** — adds ``lineage`` records (:mod:`cadinterop.obs.lineage`); span
  attributes are sanitized to primitives at span-finish time, so the
  writer no longer stringifies values on the way out.  The only format
  written or read.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from cadinterop.obs.lineage import VERBS
from cadinterop.obs.metrics import render_metrics
from cadinterop.obs.trace import _PRIMITIVE_ATTRS

#: Format version stamped into every trace file's meta record, and the
#: one version :func:`iter_records` reads.
TRACE_FORMAT = 2

RECORD_KINDS = ("meta", "span", "lineage", "metric")
VALID_STATUS = ("ok", "error")
VALID_METRIC_TYPES = ("counter", "histogram")


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
    records: List[Dict[str, Any]] = [
        {"record": "meta", "format": TRACE_FORMAT, "trace_id": trace_id or "",
         **(meta or {})}
    ]
    records.extend({"record": "span", **span} for span in spans)
    records.extend({"record": "lineage", **entry} for entry in (lineage or ()))
    records.extend(
        {"record": "metric", "name": name, **data}
        for name, data in sorted((metrics or {}).items())
    )
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")
    return len(records)


def iter_records(path) -> Iterator[Tuple[int, str, Dict[str, Any]]]:
    """Yield ``(line, kind, record)`` for each non-blank line of a trace.

    ``kind`` is the record's ``record`` field, popped from ``record``.
    Raises :class:`ValueError` naming the line for undecodable JSON (a
    truncated file), a record that is not an object, an unknown record
    kind, and a meta record whose ``format`` is not :data:`TRACE_FORMAT`.
    """
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
            if kind not in RECORD_KINDS:
                raise ValueError(f"line {number}: unknown trace record type {kind!r}")
            if kind == "meta" and record.get("format") != TRACE_FORMAT:
                raise ValueError(
                    f"line {number}: unsupported trace format "
                    f"{record.get('format')!r} (this reader understands "
                    f"{TRACE_FORMAT})"
                )
            yield number, kind, record


def read_trace(path) -> Dict[str, Any]:
    """Parse a trace file into ``{"meta", "spans", "lineage", "metrics"}``.

    Spans come ordered by start time; raises what :func:`iter_records`
    raises, and :class:`ValueError` for a metric record without a name.
    """
    meta: Dict[str, Any] = {}
    spans: List[Dict[str, Any]] = []
    lineage: List[Dict[str, Any]] = []
    metrics: Dict[str, Dict[str, Any]] = {}
    for line, kind, record in iter_records(path):
        if kind == "meta":
            meta = record
        elif kind == "span":
            spans.append(record)
        elif kind == "lineage":
            lineage.append(record)
        else:
            name = record.pop("name", None)
            if not isinstance(name, str) or not name:
                raise ValueError(f"line {line}: metric without a name")
            metrics[name] = record
    spans.sort(key=lambda span: span.get("start", 0.0))
    return {"meta": meta, "spans": spans, "lineage": lineage, "metrics": metrics}


# ---------------------------------------------------------------------------
# Schema checks (the contract is stated in cadinterop.obs.validate)
# ---------------------------------------------------------------------------


def _check_span(record: Dict[str, Any], line: int, errors: List[str]) -> Optional[str]:
    span_id = record.get("span_id")
    if not isinstance(span_id, str) or not span_id:
        errors.append(f"line {line}: span without a string span_id")
        span_id = None
    if not isinstance(record.get("name"), str) or not record["name"]:
        errors.append(f"line {line}: span without a name")
    for field in ("start", "seconds"):
        if not isinstance(record.get(field), (int, float)):
            errors.append(f"line {line}: span {field!r} is not a number")
    if isinstance(record.get("seconds"), (int, float)) and record["seconds"] < 0:
        errors.append(f"line {line}: span has negative duration")
    if record.get("status") not in VALID_STATUS:
        errors.append(f"line {line}: span status {record.get('status')!r} invalid")
    parent = record.get("parent_id")
    if parent is not None and not isinstance(parent, str):
        errors.append(f"line {line}: span parent_id is neither null nor a string")
    attrs = record.get("attrs")
    if attrs is not None and not isinstance(attrs, dict):
        errors.append(f"line {line}: span attrs is not an object")
    elif isinstance(attrs, dict):
        for key, value in attrs.items():
            if not isinstance(value, _PRIMITIVE_ATTRS):
                errors.append(
                    f"line {line}: span attr {key!r} is not a primitive "
                    f"({type(value).__name__}); sanitize at span finish"
                )
    return span_id


def _check_lineage(record: Dict[str, Any], line: int, errors: List[str]) -> None:
    for field in ("object_kind", "object_id", "stage"):
        if not isinstance(record.get(field), str) or not record[field]:
            errors.append(f"line {line}: lineage record without a string {field}")
    if record.get("verb") not in VERBS:
        errors.append(
            f"line {line}: lineage verb {record.get('verb')!r} invalid "
            f"(expected one of {', '.join(VERBS)})"
        )
    if not isinstance(record.get("detail", ""), str):
        errors.append(f"line {line}: lineage detail is not a string")
    span = record.get("span_id")
    if span is not None and not isinstance(span, str):
        errors.append(f"line {line}: lineage span_id is neither null nor a string")
    for field in ("design", "dialect"):
        value = record.get(field)
        if value is not None and not isinstance(value, str):
            errors.append(f"line {line}: lineage {field} is neither null nor a string")


def _check_metric(record: Dict[str, Any], line: int, errors: List[str]) -> None:
    if not isinstance(record.get("name"), str) or not record["name"]:
        errors.append(f"line {line}: metric without a name")
    kind = record.get("type")
    if kind not in VALID_METRIC_TYPES:
        errors.append(f"line {line}: metric type {kind!r} invalid")
        return
    if kind == "counter":
        if not isinstance(record.get("value"), (int, float)):
            errors.append(f"line {line}: counter value is not a number")
        return
    buckets = record.get("buckets")
    counts = record.get("counts")
    if not isinstance(buckets, list) or not isinstance(counts, list):
        errors.append(f"line {line}: histogram needs buckets and counts lists")
        return
    if len(counts) != len(buckets) + 1:
        errors.append(
            f"line {line}: histogram has {len(counts)} counts for "
            f"{len(buckets)} buckets (want buckets+1)"
        )
    if list(buckets) != sorted(buckets):
        errors.append(f"line {line}: histogram buckets are not sorted")
    if any(not isinstance(c, int) or c < 0 for c in counts):
        errors.append(f"line {line}: histogram counts must be non-negative ints")
    elif record.get("count") != sum(counts):
        errors.append(f"line {line}: histogram count does not equal sum(counts)")


def validate_trace(path) -> List[str]:
    """Every violation in one trace file, as human-readable strings.

    A line :func:`iter_records` refuses is reported with the reader's own
    message and ends the scan; the whole-file checks then run over the
    records read before it.
    """
    errors: List[str] = []
    span_ids: List[Optional[str]] = []
    parents: List[tuple] = []
    lineage_links: List[tuple] = []
    metric_names: List[str] = []
    saw_meta = False
    try:
        for line, kind, record in iter_records(path):
            if kind == "meta":
                if saw_meta:
                    errors.append(f"line {line}: duplicate meta record")
                elif line != 1 and not errors:
                    errors.append(f"line {line}: meta record is not first")
                saw_meta = True
                if not isinstance(record.get("trace_id"), str):
                    errors.append(f"line {line}: meta record without a trace_id")
            elif kind == "span":
                span_id = _check_span(record, line, errors)
                if span_id is not None:
                    span_ids.append(span_id)
                parents.append((line, record.get("parent_id")))
            elif kind == "lineage":
                _check_lineage(record, line, errors)
                lineage_links.append((line, record.get("span_id")))
            else:
                _check_metric(record, line, errors)
                if isinstance(record.get("name"), str):
                    metric_names.append(record["name"])
    except OSError as exc:
        return [f"cannot read {path}: {exc}"]
    except ValueError as exc:
        errors.append(str(exc))
    if not saw_meta:
        errors.append("no meta record")
    if not span_ids:
        errors.append("trace contains no spans")
    known = set(span_ids)
    if len(known) != len(span_ids):
        errors.append("duplicate span ids")
    for at_line, parent in parents:
        if isinstance(parent, str) and parent not in known:
            errors.append(f"line {at_line}: parent_id {parent!r} not in this trace")
    for at_line, span in lineage_links:
        if isinstance(span, str) and span not in known:
            errors.append(
                f"line {at_line}: lineage span_id {span!r} not in this trace"
            )
    if len(set(metric_names)) != len(metric_names):
        errors.append("duplicate metric names")
    return errors


# ---------------------------------------------------------------------------
# Human-readable renderers
# ---------------------------------------------------------------------------


def _format_attrs(attrs: Dict[str, Any]) -> str:
    if not attrs:
        return ""
    inner = ", ".join(f"{key}={value}" for key, value in sorted(attrs.items()))
    return "  {" + inner + "}"


#: Where :func:`render_tree` cuts a long trace off.
MAX_TREE_SPANS = 500


def render_tree(spans: List[Dict[str, Any]]) -> str:
    """The trace as an indented tree, children ordered by start time; at
    most :data:`MAX_TREE_SPANS` spans are drawn."""
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
        if len(lines) >= MAX_TREE_SPANS:
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
        lines.append(f"... truncated at {MAX_TREE_SPANS} spans")
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
