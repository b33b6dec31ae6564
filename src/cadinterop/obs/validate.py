"""Schema validation for emitted JSONL trace files.

Usage: ``python -m cadinterop.obs.validate TRACE.jsonl [...]`` — exits 0
when every file honors the trace contract, 1 otherwise (printing one line
per violation).  CI runs this against a trace produced by
``cadinterop.cli trace migrate-batch`` so the exporter, the worker span
merge, the lineage recorder, and this schema can never drift apart
silently.

The checks live beside the format in :mod:`cadinterop.obs.export`
(:func:`~cadinterop.obs.export.validate_trace`), and run over the records
of :func:`~cadinterop.obs.export.iter_records`, the one reader.  The
contract:

* every line decodes to a JSON object whose ``record`` kind is ``meta``,
  ``span``, ``lineage`` or ``metric``; the first line the reader refuses
  is reported with its message and ends the scan;
* line 1 is a ``meta`` record whose ``format`` is
  :data:`~cadinterop.obs.export.TRACE_FORMAT`, with a ``trace_id``;
* every ``span`` record has a unique string ``span_id``, a ``name``,
  numeric ``start``/``seconds`` (``seconds >= 0``), a ``status`` of
  ``ok``/``error``, a ``parent_id`` that is null or resolves to another
  span in the same file, and attributes whose values are JSON primitives
  (spans sanitize at finish time; a list/object attr means a producer
  bypassed that);
* every ``lineage`` record has string ``object_kind`` / ``object_id`` /
  ``stage``, a ``verb`` from the closed provenance set, a string
  ``detail``, and a ``span_id`` that is null or resolves to a span in the
  same file;
* every ``metric`` record has a ``name`` and a counter or histogram
  payload whose fields are mutually consistent (histogram ``counts`` has
  one more entry than ``buckets``; totals add up).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from cadinterop.obs.export import read_trace, validate_trace


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
            data = read_trace(path)
            print(
                f"{path}: OK — {len(data['spans'])} spans, "
                f"{len(data['lineage'])} lineage records, "
                f"{len(data['metrics'])} metrics, trace {data['meta'].get('trace_id')}"
            )
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
