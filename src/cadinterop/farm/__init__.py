"""Batch migration farm: parallel corpus migration with result caching.

The paper's consulting engagement moved *libraries* of schematics between
vendor dialects; this package turns the single-design pipeline of
:mod:`cadinterop.schematic.migrate` into a corpus-scale engine:

* :class:`MigrationFarm` / :func:`migrate_corpus` — fan per-design work out
  over a ``concurrent.futures`` worker pool;
* :class:`ResultCache` — content-addressed, on-disk result reuse keyed on
  ``(design digest, plan digest, pipeline version)``;
* :class:`FarmReport` — outcomes, cache hit/miss accounting, and a stage
  table (wall time, items, calls) rendered from the run's ``stage.*``
  metrics.  Every run reports into a fork of the current observability
  context (:mod:`cadinterop.obs.context`); process workers ship their
  spans, metrics and lineage back as one payload per design, so a run
  records the same thing under every executor.
"""

from cadinterop.farm.cache import CACHE_FORMAT, ResultCache, cache_key
from cadinterop.farm.report import FarmItem, FarmReport
from cadinterop.farm.scheduler import MigrationFarm, migrate_corpus
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
    "migrate_corpus",
    "plan_digest",
    "schematic_digest",
]
