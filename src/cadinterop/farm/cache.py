"""Content-addressed, on-disk cache of migration results.

A cache entry is keyed on ``sha256(design digest + plan digest +
PIPELINE_VERSION)``: editing a wire, renaming a net, changing any plan table
or flag, or bumping the pipeline version all produce a new key, so stale
results can never be served.  Entries persist across processes and runs —
re-running a corpus job after touching one design re-migrates only that
design.

Robustness rules:

* writes are atomic (temp file + ``os.replace``), so a killed run never
  leaves a half-written entry;
* *any* failure to load an entry — truncated pickle, garbage bytes, a
  payload whose recorded key disagrees with its filename — is a **miss**,
  never an error: the entry is deleted and the migration re-runs.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Optional, Union

from cadinterop.obs.metrics import MetricsRegistry
from cadinterop.schematic.migrate import (
    MigrationResult,
    PIPELINE_VERSION,
    plan_digest,
    schematic_digest,
)

#: Bump to invalidate every on-disk entry regardless of pipeline version
#: (e.g. when the pickle payload layout changes).  Format 2: results no
#: longer carry per-stage timings (stage time lives in metrics).
CACHE_FORMAT = 2


def cache_key(design_digest: str, plan_dig: str, pipeline_version: str = PIPELINE_VERSION) -> str:
    """The content address of one (design, plan, pipeline) migration."""
    blob = f"{design_digest}\n{plan_dig}\n{pipeline_version}".encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


class ResultCache:
    """On-disk store of :class:`MigrationResult` objects by content key.

    Traffic counts live in a :class:`~cadinterop.obs.metrics.MetricsRegistry`
    (``cache.hits`` / ``cache.misses`` / ``cache.corrupt`` / ``cache.stores``
    counters; pass ``metrics`` to share a registry, otherwise the cache owns
    a private one).  The classic ``hits`` / ``misses`` / ``corrupt`` /
    ``stores`` attributes remain as read-only views; the farm copies them
    into its report.  ``root=None`` keeps the cache in memory only — useful
    for tests and one-shot runs.
    """

    def __init__(
        self,
        root: Optional[Union[str, Path]] = None,
        pipeline_version: str = PIPELINE_VERSION,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.root = Path(root) if root is not None else None
        self.pipeline_version = pipeline_version
        self._memory: dict = {}
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._hits = self.metrics.counter("cache.hits")
        self._misses = self.metrics.counter("cache.misses")
        self._corrupt = self.metrics.counter("cache.corrupt")
        self._stores = self.metrics.counter("cache.stores")
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)

    # -- traffic counters (views over the metrics registry) ---------------

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def corrupt(self) -> int:
        return self._corrupt.value

    @property
    def stores(self) -> int:
        return self._stores.value

    # -- keying ----------------------------------------------------------

    def key_for(self, schematic, plan) -> str:
        return cache_key(
            schematic_digest(schematic), plan_digest(plan), self.pipeline_version
        )

    def _path(self, key: str) -> Path:
        assert self.root is not None
        return self.root / f"{key}.migr.pkl"

    # -- access ----------------------------------------------------------

    def get(self, key: str) -> Optional[MigrationResult]:
        """Return the cached result for ``key``, or None (counting a miss)."""
        if key in self._memory:
            self._hits.inc()
            return self._memory[key]
        if self.root is None:
            self._misses.inc()
            return None
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
            if (
                not isinstance(payload, dict)
                or payload.get("key") != key
                or payload.get("format") != CACHE_FORMAT
            ):
                raise ValueError("cache payload does not match its key")
            result = payload["result"]
            if not isinstance(result, MigrationResult):
                raise ValueError("cache payload is not a MigrationResult")
        except FileNotFoundError:
            self._misses.inc()
            return None
        except Exception:
            # Corrupted / foreign / stale-format entry: drop it, treat as miss.
            self._corrupt.inc()
            self._misses.inc()
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self._hits.inc()
        self._memory[key] = result
        return result

    def put(self, key: str, result: MigrationResult) -> None:
        """Store a result under ``key`` (atomically when disk-backed)."""
        self._memory[key] = result
        self._stores.inc()
        if self.root is None:
            return
        payload = {"format": CACHE_FORMAT, "key": key, "result": result}
        fd, tmp_name = tempfile.mkstemp(dir=str(self.root), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        if self.root is None:
            return len(self._memory)
        return sum(1 for _ in self.root.glob("*.migr.pkl"))
