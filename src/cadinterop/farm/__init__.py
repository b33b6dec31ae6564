"""Batch migration farm: parallel corpus migration with result caching.

The paper's consulting engagement moved *libraries* of schematics between
vendor dialects; this package turns the single-design pipeline of
:mod:`cadinterop.schematic.migrate` into a corpus-scale engine:

* :class:`MigrationFarm` — run per-design work inline or fan it out over a
  ``concurrent.futures`` process pool;
* :class:`ResultCache` — content-addressed, on-disk result reuse keyed on
  ``(design digest, plan digest, pipeline version)``;
* :class:`FarmReport` — outcomes, this run's cache hits and misses, and a
  stage table (wall time, items, calls), all read from the run's metrics.
  Every run reports into a fork of the current observability context
  (:mod:`cadinterop.obs.context`); process workers ship their spans,
  metrics and lineage back as one payload per design, so a run records the
  same thing under both executors.
"""

from cadinterop.farm.cache import CACHE_FORMAT, ResultCache, cache_key
from cadinterop.farm.report import FarmItem, FarmReport
from cadinterop.farm.scheduler import MigrationFarm
from cadinterop.schematic.migrate import (
    PIPELINE_STAGES,
    PIPELINE_VERSION,
    plan_digest,
    schematic_digest,
)

__all__ = [
    "CACHE_FORMAT",
    "FarmItem",
    "FarmReport",
    "MigrationFarm",
    "PIPELINE_STAGES",
    "PIPELINE_VERSION",
    "ResultCache",
    "cache_key",
    "plan_digest",
    "schematic_digest",
]
