"""Workflow metrics: status collection and closed-loop process tuning.

Section 5: "As the workflow progresses, status is collected and reported to
the end-user and to management as required.  These collected metrics can
later be analyzed and used to tune the process, providing a closed-loop,
continuously improving process environment."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from cadinterop.obs.context import get_metrics
from cadinterop.obs.metrics import MetricsRegistry
from cadinterop.workflow.model import FlowInstance, StepState


@dataclass
class StepMetrics:
    """Aggregated observations for one step name across instances."""

    name: str
    runs: int = 0
    failures: int = 0
    total_duration: float = 0.0
    samples: int = 0

    @property
    def mean_duration(self) -> float:
        return self.total_duration / self.samples if self.samples else 0.0

    @property
    def failure_rate(self) -> float:
        return self.failures / self.runs if self.runs else 0.0


class MetricsCollector:
    """Collects status from instance trees; answers tuning questions."""

    def __init__(self) -> None:
        self._steps: Dict[str, StepMetrics] = {}
        self.instances_seen = 0

    def collect(self, instance: FlowInstance) -> None:
        """Fold one instance tree's records into the aggregate."""
        for node in instance.walk():
            self.instances_seen += 1
            for record in node.records.values():
                metrics = self._steps.setdefault(record.name, StepMetrics(record.name))
                metrics.runs += record.runs
                if record.state is StepState.FAILED:
                    metrics.failures += 1
                duration = record.duration
                if duration is not None:
                    metrics.total_duration += duration
                    metrics.samples += 1

    def publish(self, registry: Optional[MetricsRegistry] = None) -> None:
        """Export the aggregate into an obs metrics registry (default: the
        globally installed one) — per-step run/failure counters plus a
        duration histogram, so workflow health rides along in the same
        snapshot as farm and pipeline metrics."""
        registry = registry if registry is not None else get_metrics()
        for metrics in self._steps.values():
            if metrics.runs:
                registry.counter(f"workflow.step.runs[{metrics.name}]").inc(
                    metrics.runs
                )
            if metrics.failures:
                registry.counter(f"workflow.step.failures[{metrics.name}]").inc(
                    metrics.failures
                )
            if metrics.samples:
                histogram = registry.histogram(
                    f"workflow.step.seconds[{metrics.name}]"
                )
                # The collector keeps totals, not raw samples; feed the
                # mean per sample so count and sum stay faithful.
                for _ in range(metrics.samples):
                    histogram.observe(metrics.mean_duration)

    def step(self, name: str) -> StepMetrics:
        return self._steps[name]

    def steps(self) -> List[StepMetrics]:
        return list(self._steps.values())

    # -- tuning analysis --------------------------------------------------

    def bottleneck(self) -> Optional[StepMetrics]:
        """The step with the largest mean duration (tune this first)."""
        timed = [m for m in self._steps.values() if m.samples]
        return max(timed, key=lambda m: m.mean_duration) if timed else None

    def most_failure_prone(self) -> Optional[StepMetrics]:
        ran = [m for m in self._steps.values() if m.runs]
        if not ran:
            return None
        worst = max(ran, key=lambda m: m.failure_rate)
        return worst if worst.failure_rate > 0 else None

    def report(self) -> str:
        lines = ["workflow metrics", "================"]
        for metrics in sorted(self._steps.values(), key=lambda m: m.name):
            lines.append(
                f"{metrics.name:24} runs={metrics.runs:3} "
                f"fail%={metrics.failure_rate * 100:5.1f} "
                f"mean={metrics.mean_duration:8.4f}s"
            )
        bottleneck = self.bottleneck()
        if bottleneck is not None:
            lines.append(f"bottleneck: {bottleneck.name} ({bottleneck.mean_duration:.4f}s mean)")
        failure_prone = self.most_failure_prone()
        if failure_prone is not None:
            lines.append(
                f"most failure-prone: {failure_prone.name} "
                f"({failure_prone.failure_rate * 100:.0f}% of runs)"
            )
        return "\n".join(lines)
