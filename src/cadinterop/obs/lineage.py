"""Per-object provenance: what happened to design data at tool boundaries.

The paper's central claim is that interoperability failures are
*information losses* at tool boundaries — grid snapping, bus-syntax
rewrites, dropped physical intents, cosim value coercions.  Spans
(:mod:`cadinterop.obs.trace`) say where *time* went; this module says
where *design data* went: every boundary crossing emits one lineage
record per affected object,

``(object_kind, object_id, stage, verb, detail, span_id)``

where ``verb`` is one of :data:`VERBS`:

* ``preserved`` — crossed the boundary untouched;
* ``transformed`` — rewritten losslessly (bus-syntax rename, symbol swap);
* ``approximated`` — semantics weakened (off-grid snap, naive value
  coercion, derived-vs-declared pin access);
* ``dropped`` — the target cannot express it; the object did not cross;
* ``synthesized`` — created at the boundary (connectors, pads, decomposition
  nets) with no source-side original.

Records link to the innermost open trace span through the same contextvar
the tracer uses, so a JSONL trace file (format 2) carries both trees and
``cadinterop audit`` can answer *which objects were transformed,
approximated, or dropped, by which stage, and why*.  Like the tracer, the
recorder is **off by default** (:data:`NULL_LINEAGE`), buffers thread-safely,
and merges across process workers via :meth:`LineageRecorder.drain` /
:meth:`LineageRecorder.adopt`.  The records are the one count of what
crossed a boundary: :class:`LossReport` rolls them up per verb, stage,
design and dialect; no metrics counter repeats them.

Ambient attribution — which design and which dialect pair a record belongs
to — travels through :meth:`LineageRecorder.context`, so deep helpers
(e.g. the grid snapper) need not thread design names through their
signatures.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from cadinterop.obs.trace import current_span_id

#: The closed provenance verb set; the validator rejects anything else.
VERBS: Tuple[str, ...] = (
    "preserved", "transformed", "approximated", "dropped", "synthesized"
)

#: Verbs that count as information loss in a :class:`LossReport`.
LOSS_VERBS: Tuple[str, ...] = ("approximated", "dropped")

#: Ambient attribution fields (design, dialect) merged into each record.
_CONTEXT: ContextVar[Tuple[Optional[str], Optional[str]]] = ContextVar(
    "cadinterop_obs_lineage_ctx", default=(None, None)
)


class LineageRecorder:
    """Collects lineage records; thread-safe; mergeable across processes."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: List[Dict[str, Any]] = []

    # -- recording -------------------------------------------------------

    def record(
        self,
        object_kind: str,
        object_id: str,
        stage: str,
        verb: str,
        detail: str = "",
        design: Optional[str] = None,
        dialect: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Emit one provenance record, linked to the active trace span."""
        if verb not in VERBS:
            raise ValueError(f"unknown lineage verb {verb!r}; expected one of {VERBS}")
        ambient_design, ambient_dialect = _CONTEXT.get()
        record = {
            "object_kind": object_kind,
            "object_id": object_id,
            "stage": stage,
            "verb": verb,
            "detail": detail,
            "span_id": current_span_id(),
            "design": design if design is not None else ambient_design,
            "dialect": dialect if dialect is not None else ambient_dialect,
        }
        with self._lock:
            self._records.append(record)
        return record

    @contextmanager
    def context(
        self, design: Optional[str] = None, dialect: Optional[str] = None
    ) -> Iterator[None]:
        """Set ambient attribution for every record emitted inside."""
        current_design, current_dialect = _CONTEXT.get()
        token = _CONTEXT.set(
            (
                design if design is not None else current_design,
                dialect if dialect is not None else current_dialect,
            )
        )
        try:
            yield
        finally:
            _CONTEXT.reset(token)

    # -- collection ------------------------------------------------------

    def adopt(self, records: Iterable[Dict[str, Any]]) -> None:
        """Merge records exported by another recorder (a process worker)."""
        with self._lock:
            self._records.extend(records)

    def drain(self) -> List[Dict[str, Any]]:
        """Remove and return every buffered record (workers ship these back)."""
        with self._lock:
            records, self._records = self._records, []
        return records

    def records(self) -> List[Dict[str, Any]]:
        """Snapshot of every record, in emission/adoption order."""
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


class _NullContext:
    """Reusable no-op context manager (cheaper than contextlib.nullcontext)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class NullLineage:
    """The do-nothing recorder installed while lineage is disabled."""

    enabled = False

    def record(self, *args: Any, **kwargs: Any) -> None:
        return None

    def context(self, design=None, dialect=None) -> _NullContext:
        return _NULL_CONTEXT

    def adopt(self, records) -> None:
        pass

    def drain(self) -> List[Dict[str, Any]]:
        return []

    def records(self) -> List[Dict[str, Any]]:
        return []

    def __len__(self) -> int:
        return 0


NULL_LINEAGE = NullLineage()


# ---------------------------------------------------------------------------
# Loss aggregation
# ---------------------------------------------------------------------------


def _verb_row() -> Dict[str, int]:
    return {verb: 0 for verb in VERBS}


class LossReport:
    """Lineage records rolled up per stage, per design, and per dialect.

    Built from raw record dicts (a recorder snapshot or the ``lineage``
    list of a parsed trace file); answers the fleet-level questions the
    paper's data-flow analysis asks: how much was lost, where, and for
    which designs and dialect pairs.
    """

    def __init__(self) -> None:
        self.total = 0
        self.by_verb: Dict[str, int] = _verb_row()
        #: stage -> verb -> count (the per-stage loss matrix).
        self.matrix: Dict[str, Dict[str, int]] = {}
        #: design -> verb -> count.
        self.designs: Dict[str, Dict[str, int]] = {}
        #: dialect pair -> verb -> count.
        self.dialects: Dict[str, Dict[str, int]] = {}
        self.unlinked = 0  # records without a span_id

    @classmethod
    def from_records(cls, records: Iterable[Dict[str, Any]]) -> "LossReport":
        report = cls()
        for record in records:
            report.add(record)
        return report

    def add(self, record: Dict[str, Any]) -> None:
        verb = record.get("verb")
        if verb not in VERBS:
            raise ValueError(f"lineage record with unknown verb {verb!r}")
        self.total += 1
        self.by_verb[verb] += 1
        stage = record.get("stage") or "?"
        self.matrix.setdefault(stage, _verb_row())[verb] += 1
        design = record.get("design")
        if design:
            self.designs.setdefault(design, _verb_row())[verb] += 1
        dialect = record.get("dialect")
        if dialect:
            self.dialects.setdefault(dialect, _verb_row())[verb] += 1
        if not record.get("span_id"):
            self.unlinked += 1

    # -- queries ---------------------------------------------------------

    @property
    def losses(self) -> int:
        """Records whose verb is a loss (approximated or dropped)."""
        return sum(self.by_verb[verb] for verb in LOSS_VERBS)

    def stage_count(self, stage: str, verb: str) -> int:
        return self.matrix.get(stage, {}).get(verb, 0)

    def top_lossy_designs(self, limit: int = 5) -> List[Tuple[str, int]]:
        """Designs ordered by loss count, worst first (losers only)."""
        ranked = sorted(
            (
                (name, sum(row[verb] for verb in LOSS_VERBS))
                for name, row in self.designs.items()
            ),
            key=lambda pair: (-pair[1], pair[0]),
        )
        return [(name, count) for name, count in ranked if count][:limit]

    # -- rendering -------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict export (JSON-safe)."""
        return {
            "total": self.total,
            "losses": self.losses,
            "unlinked": self.unlinked,
            "by_verb": dict(self.by_verb),
            "matrix": {stage: dict(row) for stage, row in self.matrix.items()},
            "designs": {name: dict(row) for name, row in self.designs.items()},
            "dialects": {pair: dict(row) for pair, row in self.dialects.items()},
        }

    def summary(self) -> str:
        verbs = ", ".join(
            f"{count} {verb}" for verb, count in self.by_verb.items() if count
        )
        return (
            f"lineage: {self.total} records, {self.losses} losses"
            + (f" ({verbs})" if verbs else "")
        )

    def _matrix_lines(
        self, table: Dict[str, Dict[str, int]], label: str
    ) -> List[str]:
        width = max([len(label)] + [len(key) for key in table]) + 1
        header = f"{label:{width}}" + "".join(f"{verb:>13}" for verb in VERBS)
        lines = [header]
        for key in sorted(table):
            row = table[key]
            lines.append(
                f"{key:{width}}" + "".join(f"{row[verb]:13d}" for verb in VERBS)
            )
        return lines

    def render(self, top_designs: int = 5) -> str:
        """The human-readable audit report: matrices and worst offenders."""
        if not self.total:
            return "(no lineage records)"
        lines = [self.summary(), ""]
        lines.extend(self._matrix_lines(self.matrix, "stage"))
        if self.dialects:
            lines.append("")
            lines.extend(self._matrix_lines(self.dialects, "dialect"))
        lossy = self.top_lossy_designs(top_designs)
        if lossy:
            lines.append("")
            lines.append("top lossy designs:")
            for name, count in lossy:
                row = self.designs[name]
                detail = "  ".join(
                    f"{verb}={row[verb]}" for verb in LOSS_VERBS if row[verb]
                )
                lines.append(f"  {name:28} {count:4d} losses  ({detail})")
        if self.unlinked:
            lines.append("")
            lines.append(f"warning: {self.unlinked} record(s) without a span link")
        return "\n".join(lines)
