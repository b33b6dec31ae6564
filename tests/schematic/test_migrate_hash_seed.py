"""Migrated drawings and diagnostics do not depend on the hash seed.

Migration and extraction keep net labels, pin positions and terminals in
sets and dicts keyed by strings and points, whose iteration order changes
with ``PYTHONHASHSEED``.  Any such order that leaks into a migrated drawing
would change its ``schematic_digest`` (and so its farm cache key), and any
that leaks into a diagnostic's position would make an ``IssueLog`` differ
between interpreters.  This migrates a few designs, both replacement
strategies included, in three interpreters with different hash seeds and
requires the same digest and the same log, in order, for each; one of
them (the sample cell under the naive strategy) fails verification.

It also extracts a Composer-like cell whose page 1 shorts labels L0-L7 onto
one net while page 2 keeps them on eight separate nets: every label then
sits on two disjoint nets, and the explicit dialect reports each one, in
label order whatever the seed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

HASH_SEEDS = ("0", "1", "2")

#: Migrates the designs and extracts the shorted-label cell, printing JSON.
MIGRATE = """
import json
from cadinterop.common.geometry import Point, Rect
from cadinterop.schematic.dialects import COMPOSER_LIKE
from cadinterop.schematic.migrate import Migrator, schematic_digest
from cadinterop.schematic.model import Schematic, Wire
from cadinterop.schematic.netlist import extract
from cadinterop.schematic.samples import (
    build_sample_plan,
    build_sample_schematic,
    build_vl_libraries,
    generate_chain_schematic,
)


def entries(log):
    return [
        [issue.severity.name, issue.category.value, issue.subject, issue.message,
         issue.tool, issue.remedy]
        for issue in log
    ]


libraries = build_vl_libraries()
designs = {
    "sample": build_sample_schematic(libraries),
    "chain-2x3x4": generate_chain_schematic(
        libraries, pages=2, chains_per_page=3, stages=4, seed=7
    ),
    "chain-offgrid": generate_chain_schematic(
        libraries, pages=2, chains_per_page=4, stages=6, seed=5, offgrid_labels=3
    ),
}
out = {}
for strategy in ("minimal", "naive"):
    migrator = Migrator(build_sample_plan(source_libraries=libraries, strategy=strategy))
    for name, cell in designs.items():
        result = migrator.migrate(cell)
        out[f"{name}/{strategy}"] = {
            "digest": schematic_digest(result.schematic),
            "log": entries(result.log),
            "equivalent": result.verification.equivalent,
        }

shorted = Schematic("shorted_labels", COMPOSER_LIKE.name)
page = shorted.add_page(Rect(0, 0, 400, 400))
for index in range(8):
    # One wire per label, all hanging off one spine: a single net.
    page.add_wire(Wire([Point(20 + 40 * index, 20), Point(20 + 40 * index, 60)],
                       label=f"L{index}"))
page.add_wire(Wire([Point(20, 60), Point(300, 60)]))
page = shorted.add_page(Rect(0, 0, 400, 400))
for index in range(8):
    page.add_wire(Wire([Point(20, 20 + 40 * index), Point(100, 20 + 40 * index)],
                       label=f"L{index}"))
netlist = extract(shorted)
out["shorted-labels/extract"] = {
    "digest": schematic_digest(shorted),
    "log": entries(netlist.log),
    "nets": sorted(netlist.nets),
}
print(json.dumps(out))
"""


def migrate_under(hash_seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = str(ROOT / "src")
    completed = subprocess.run(
        [sys.executable, "-c", MIGRATE],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(completed.stdout)


@pytest.fixture(scope="module")
def runs_by_seed() -> dict:
    return {seed: migrate_under(seed) for seed in HASH_SEEDS}


def test_migrations_are_independent_of_hash_seed(runs_by_seed):
    first, *others = runs_by_seed.values()
    assert len(first) == 7
    # The naive strategy breaks a connection of the sample cell, so one
    # migration fails verification and logs its errors too.
    assert [name for name, run in first.items() if run.get("equivalent") is False] == [
        "sample/naive"
    ]
    for name, run in first.items():
        assert run["log"], name
        for other in others:
            assert other[name] == run, name


def test_disjoint_label_errors_come_in_label_order(runs_by_seed):
    for seed, runs in runs_by_seed.items():
        errors = [
            entry for entry in runs["shorted-labels/extract"]["log"]
            if entry[3].startswith("label appears on 2 disjoint nets")
        ]
        assert [entry[2] for entry in errors] == [f"L{i}" for i in range(8)], seed
        assert all(entry[0] == "ERROR" for entry in errors), seed
