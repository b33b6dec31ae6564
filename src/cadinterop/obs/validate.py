"""Schema validation for emitted JSONL trace files.

Usage: ``python -m cadinterop.obs.validate TRACE.jsonl [...]`` — exits 0
when every file honors the trace contract, 1 otherwise (printing one line
per violation).  CI runs this against a trace produced by
``cadinterop.cli trace migrate-batch`` so the exporter, the worker span
merge, the lineage recorder, and this schema can never drift apart
silently.

The contract (see :mod:`cadinterop.obs.export`):

* line 1 is a ``meta`` record with an integer ``format`` that
  :data:`~cadinterop.obs.export.READABLE_FORMATS` lists, and a
  ``trace_id``;
* every ``span`` record has a unique string ``span_id``, a ``name``,
  numeric ``start``/``seconds`` (``seconds >= 0``), a ``status`` of
  ``ok``/``error``, a ``parent_id`` that is null or resolves to another
  span in the same file, and attributes whose values are JSON primitives
  (spans sanitize at finish time; a list/object attr means a producer
  bypassed that);
* every ``lineage`` record (format 2) has string ``object_kind`` /
  ``object_id`` / ``stage``, a ``verb`` from the closed provenance set,
  a string ``detail``, and a ``span_id`` that is null or resolves to a
  span in the same file;
* every ``metric`` record has a ``name`` and a counter or histogram
  payload whose fields are mutually consistent (histogram ``counts`` has
  one more entry than ``buckets``; totals add up).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence

from cadinterop.obs.export import READABLE_FORMATS
from cadinterop.obs.lineage import VERBS

VALID_STATUS = ("ok", "error")
VALID_METRIC_TYPES = ("counter", "histogram")

#: JSON-primitive attribute values; anything else should have been
#: sanitized away when the span finished.
_PRIMITIVES = (str, int, float, bool, type(None))


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
            if not isinstance(value, _PRIMITIVES):
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
    """Every violation in one trace file, as human-readable strings."""
    errors: List[str] = []
    span_ids: List[Optional[str]] = []
    parents: List[tuple] = []
    lineage_links: List[tuple] = []
    metric_names: List[str] = []
    saw_meta = False
    line = 0
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        return [f"cannot read {path}: {exc}"]
    with handle:
        for line, raw in enumerate(handle, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                record = json.loads(raw)
            except json.JSONDecodeError as exc:
                errors.append(f"line {line}: invalid JSON ({exc.msg})")
                continue
            if not isinstance(record, dict):
                errors.append(f"line {line}: record is not an object")
                continue
            kind = record.get("record")
            if kind == "meta":
                if saw_meta:
                    errors.append(f"line {line}: duplicate meta record")
                elif line != 1 and not errors:
                    errors.append(f"line {line}: meta record is not first")
                saw_meta = True
                version = record.get("format")
                if not isinstance(version, int):
                    errors.append(f"line {line}: meta record without integer format")
                elif version not in READABLE_FORMATS:
                    errors.append(
                        f"line {line}: unknown trace format {version} "
                        f"(expected one of {READABLE_FORMATS})"
                    )
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
            elif kind == "metric":
                _check_metric(record, line, errors)
                if isinstance(record.get("name"), str):
                    metric_names.append(record["name"])
            else:
                errors.append(f"line {line}: unknown record type {kind!r}")
    if line == 0:
        errors.append("file is empty")
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m cadinterop.obs.validate",
        description="Validate JSONL trace files emitted by cadinterop.obs",
    )
    parser.add_argument("files", nargs="+", help="trace files to validate")
    args = parser.parse_args(argv)
    failed = False
    for path in args.files:
        errors = validate_trace(path)
        if errors:
            failed = True
            for error in errors:
                print(f"{path}: {error}", file=sys.stderr)
        else:
            from cadinterop.obs.export import read_trace

            data = read_trace(path)
            print(
                f"{path}: OK — {len(data['spans'])} spans, "
                f"{len(data['lineage'])} lineage records, "
                f"{len(data['metrics'])} metrics, trace {data['meta'].get('trace_id')}"
            )
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
