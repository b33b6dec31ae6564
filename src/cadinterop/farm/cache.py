"""Content-addressed, on-disk cache of migration results.

A cache entry is keyed on ``sha256(design digest + plan digest +
PIPELINE_VERSION)``: editing a wire, renaming a net, changing any plan table
or flag, or bumping the pipeline version all produce a new key, so stale
results can never be served.  Entries persist across processes and runs —
re-running a corpus job after touching one design re-migrates only that
design.

An entry file is one header line, ``<format> <key> <sha256 of the
rest>``, followed by the pickled :class:`MigrationResult`.  The model's
value classes pickle compactly (a wire as flat coordinates, points as
tuples, the rest by constructor arguments), which keeps an entry small and
cheap to write.

Robustness rules:

* writes are atomic (temp file + ``os.replace``), so a killed run never
  leaves a half-written entry;
* *any* failure to load an entry — an older format, a truncated or altered
  file, garbage bytes, a header whose key disagrees with its filename — is
  a **miss**, never an error: the entry is deleted and the migration
  re-runs.  The checksum is verified before anything is unpickled.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Optional, Union

from cadinterop.obs.context import get_metrics
from cadinterop.schematic.migrate import MigrationResult, PIPELINE_VERSION

#: Bump to invalidate every on-disk entry regardless of pipeline version
#: (e.g. when the pickle payload layout changes).  Format 2: results no
#: longer carry per-stage timings (stage time lives in metrics).  Format 3:
#: a checksummed header line, then the result in the model's compact
#: pickled forms.
CACHE_FORMAT = 3


def cache_key(design_digest: str, plan_dig: str) -> str:
    """The content address of one (design, plan, pipeline) migration."""
    blob = f"{design_digest}\n{plan_dig}\n{PIPELINE_VERSION}".encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


class ResultCache:
    """Store of :class:`MigrationResult` objects by content key.

    The cache reads and writes only its ``root`` directory, so it holds no
    result in memory.  :meth:`get` counts its traffic (``farm.cache.hits``
    / ``farm.cache.misses`` / ``farm.cache.corrupt``) into the current
    context's metrics: during a farm run, that is the run's own fork, so a
    report counts its run only.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.migr.pkl"

    @staticmethod
    def _header(key: str, blob: bytes) -> bytes:
        checksum = hashlib.sha256(blob).hexdigest()
        return f"{CACHE_FORMAT} {key} {checksum}\n".encode("ascii")

    # -- access ----------------------------------------------------------

    def get(self, key: str) -> Optional[MigrationResult]:
        """Return the cached result for ``key``, or None (counting a miss)."""
        metrics = get_metrics()
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                header = handle.readline()
                blob = handle.read()
            if header != self._header(key, blob):
                raise ValueError("cache entry is of another format, key or content")
            result = pickle.loads(blob)
            if not isinstance(result, MigrationResult):
                raise ValueError("cache payload is not a MigrationResult")
        except FileNotFoundError:
            metrics.counter("farm.cache.misses").inc()
            return None
        except Exception:
            # Corrupted / foreign / stale-format entry: drop it, treat as miss.
            metrics.counter("farm.cache.corrupt").inc()
            metrics.counter("farm.cache.misses").inc()
            try:
                path.unlink()
            except OSError:
                pass
            return None
        metrics.counter("farm.cache.hits").inc()
        return result

    def put(self, key: str, result: MigrationResult) -> None:
        """Store a result under ``key``, atomically."""
        blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        fd, tmp_name = tempfile.mkstemp(dir=str(self.root), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(self._header(key, blob))
                handle.write(blob)
            os.replace(tmp_name, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.migr.pkl"))
