"""Metrics registry: counters and fixed-bucket histograms.

Complements :mod:`cadinterop.obs.trace`: spans say *where time went on
this run*, metrics say *how often and how much* across runs — cache hit
rates, stage latency distributions, simulator event counts.

Design rules:

* **Fixed bucket boundaries.**  Every histogram uses
  :data:`DEFAULT_BUCKETS` (a latency ladder from 1 ms to 10 s), so
  snapshots from different workers and different runs merge by adding
  counts — no rebinning, no quantile sketches.
* **Mergeable snapshots.**  ``registry.snapshot()`` is plain dicts of
  primitives (JSON- and pickle-safe); ``registry.merge(snapshot)`` folds
  one registry's traffic into another, which is how per-run and
  per-worker registries roll up (``registry.drain()`` snapshots and
  empties, for workers that ship their traffic once per task).
* **Zero-cost when off.**  The current context's registry defaults to
  :data:`NULL_METRICS`, whose instruments are one shared no-op object.
  A run that must always count (a farm run, for its stage table) reports
  into a fork of the current context with a real :class:`MetricsRegistry`.
* **Snapshots cross process boundaries, registries do not.**  A worker
  ships ``drain()`` dicts; the registry itself is never pickled.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import Any, Dict, List, Tuple

#: Default histogram boundaries (seconds): a wall-clock latency ladder.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0
)


class Counter:
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self.value = 0
        self._lock = lock

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}

    def merge(self, data: Dict[str, Any]) -> None:
        self.inc(data["value"])


class Histogram:
    """Distribution with fixed bucket boundaries (plus an overflow bucket)."""

    kind = "histogram"

    buckets = DEFAULT_BUCKETS

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0
        self._lock = lock

    def observe(self, value: float) -> None:
        index = bisect_right(self.buckets, value)
        with self._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }

    def merge(self, data: Dict[str, Any]) -> None:
        if tuple(data["buckets"]) != self.buckets:
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bucket boundaries differ"
            )
        with self._lock:
            for index, count in enumerate(data["counts"]):
                self.counts[index] += count
            self.sum += data["sum"]
            self.count += data["count"]


class MetricsRegistry:
    """Named instruments, created on first use; snapshot/merge for roll-up."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, Any] = {}

    def _get(self, name: str, factory) -> Any:
        # A dict read is atomic, so only creation takes the lock.
        instrument = self._instruments.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(name)
                if instrument is None:
                    instrument = factory()
                    self._instruments[name] = instrument
        return instrument

    def counter(self, name: str) -> Counter:
        instrument = self._get(name, lambda: Counter(name, self._lock))
        if instrument.kind != "counter":
            raise TypeError(f"{name!r} is a {instrument.kind}, not a counter")
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._get(name, lambda: Histogram(name, self._lock))
        if instrument.kind != "histogram":
            raise TypeError(f"{name!r} is a {instrument.kind}, not a histogram")
        return instrument

    def instruments(self) -> Dict[str, Any]:
        with self._lock:
            return dict(self._instruments)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Plain-dict export of every instrument (JSON/pickle-safe)."""
        return {
            name: instrument.snapshot()
            for name, instrument in sorted(self.instruments().items())
        }

    def drain(self) -> Dict[str, Dict[str, Any]]:
        """Snapshot every instrument and start over empty."""
        with self._lock:
            instruments, self._instruments = self._instruments, {}
        return {
            name: instrument.snapshot()
            for name, instrument in sorted(instruments.items())
        }

    def merge(self, snapshot: Dict[str, Dict[str, Any]]) -> None:
        """Fold another registry's snapshot into this one."""
        for name, data in snapshot.items():
            kind = data.get("type")
            if kind == "counter":
                self.counter(name).merge(data)
            elif kind == "histogram":
                self.histogram(name).merge(data)
            else:
                raise ValueError(f"unknown instrument type {kind!r} for {name!r}")


def render_metrics(snapshot: Dict[str, Dict[str, Any]]) -> str:
    """Human-readable flat table of a metrics snapshot."""
    lines = [f"{'metric':40} {'type':10} value"]
    for name, data in sorted(snapshot.items()):
        kind = data.get("type", "?")
        if kind == "histogram":
            count = data.get("count", 0)
            total = data.get("sum", 0.0)
            mean = total / count if count else 0.0
            value = f"n={count} sum={total * 1e3:.2f}ms mean={mean * 1e3:.3f}ms"
        else:
            value = f"{data.get('value', 0):g}"
        lines.append(f"{name:40} {kind:10} {value}")
    return "\n".join(lines)


class _NullInstrument:
    """One shared object standing in for every disabled instrument."""

    __slots__ = ()
    kind = "null"
    value = 0
    sum = 0.0
    count = 0
    mean = 0.0

    def inc(self, amount: int = 1) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def snapshot(self) -> Dict[str, Any]:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """The do-nothing registry installed while metrics are disabled."""

    enabled = False

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def instruments(self) -> Dict[str, Any]:
        return {}

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        return {}

    def drain(self) -> Dict[str, Dict[str, Any]]:
        return {}

    def merge(self, snapshot) -> None:
        pass


NULL_METRICS = NullMetrics()
