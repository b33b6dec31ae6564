"""Accounting for one batch migration run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from cadinterop.obs.lineage import LossReport
from cadinterop.schematic.migrate import MigrationResult


@dataclass
class FarmItem:
    """Outcome for one design in the corpus."""

    design: str
    digest: str
    status: str  # "migrated" | "cached" | "failed"
    clean: bool = False
    seconds: float = 0.0
    error: Optional[str] = None
    result: Optional[MigrationResult] = None

    def summary(self) -> str:
        verdict = "clean" if self.clean else (self.error or "NOT CLEAN")
        return f"{self.design:24} {self.status:9} {self.seconds * 1e3:8.1f} ms  {verdict}"


@dataclass
class FarmReport:
    """Everything a batch run measured: outcomes, cache traffic, stage times."""

    jobs: int = 1
    executor: str = "inline"
    total: int = 0
    migrated: int = 0
    cached: int = 0
    failed: int = 0
    wall_seconds: float = 0.0
    items: List[FarmItem] = field(default_factory=list)
    #: Snapshot of the run's metrics (farm counters, cache traffic, the
    #: ``stage.seconds[<stage>]`` histograms and ``stage.items[<stage>]``
    #: counters behind :meth:`stage_table`) — plain dicts, JSON-safe.
    metrics: Dict[str, dict] = field(default_factory=dict)
    #: Trace id of the run when tracing was enabled, else None.
    trace_id: Optional[str] = None
    #: Per-stage/per-design/per-dialect provenance roll-up of the run, when
    #: the current :class:`~cadinterop.obs.ObsContext` records lineage.
    loss: Optional[LossReport] = None

    def _count(self, name: str) -> int:
        return self.metrics.get(name, {}).get("value", 0)

    @property
    def cache_hits(self) -> int:
        return self._count("farm.cache.hits")

    @property
    def cache_misses(self) -> int:
        return self._count("farm.cache.misses")

    @property
    def cache_corrupt(self) -> int:
        return self._count("farm.cache.corrupt")

    @property
    def clean(self) -> int:
        return sum(1 for item in self.items if item.clean)

    @property
    def all_clean(self) -> bool:
        return self.failed == 0 and all(item.clean for item in self.items)

    def result_for(self, design_name: str) -> Optional[MigrationResult]:
        for item in self.items:
            if item.design == design_name:
                return item.result
        return None

    def stage_table(self) -> str:
        """Per-stage wall time, items and calls, slowest first ("" when the
        run timed no stage)."""
        prefix = "stage.seconds["
        rows = [
            (name[len(prefix):-1], data["sum"], data["count"])
            for name, data in self.metrics.items()
            if name.startswith(prefix)
        ]
        if not rows:
            return ""
        total = sum(row[1] for row in rows) or 1.0
        lines = [f"{'stage':17} {'wall ms':>9} {'items':>8} {'calls':>6}  share"]
        for stage, seconds, calls in sorted(rows, key=lambda row: -row[1]):
            items = self._count(f"stage.items[{stage}]")
            lines.append(
                f"{stage:17} {seconds * 1e3:9.2f} {items:8d} "
                f"{calls:6d}  {seconds / total:5.1%}"
            )
        return "\n".join(lines)

    def summary(self) -> str:
        return (
            f"farm: {self.total} designs in {self.wall_seconds * 1e3:.0f} ms "
            f"(jobs={self.jobs}, {self.executor}) — "
            f"{self.migrated} migrated, {self.cached} from cache, "
            f"{self.failed} failed, {self.clean}/{self.total} clean; "
            f"cache {self.cache_hits} hits / {self.cache_misses} misses"
            + (f" ({self.cache_corrupt} corrupt)" if self.cache_corrupt else "")
        )

    def render(self, per_design: bool = False) -> str:
        lines = [self.summary()]
        if self.trace_id:
            lines.append(f"trace: {self.trace_id}")
        if per_design:
            lines.extend("  " + item.summary() for item in self.items)
        table = self.stage_table()
        if table:
            lines.append("")
            lines.append(table)
        counters = sorted(
            (name, data["value"])
            for name, data in self.metrics.items()
            if data.get("type") == "counter" and not name.startswith("stage.")
        )
        if counters:
            lines.append("")
            lines.append("counters: " + "  ".join(f"{n}={v}" for n, v in counters))
        return "\n".join(lines)
