"""Migrated outputs pinned to recorded digests.

Every value below was recorded with the migration pipeline as it stood
before rip-up carried one wire index per page, before grid scaling went
integer and before extraction ran on integer node ids.  Those changes are
meant to be invisible: each migrated design must hash to the same
``schematic_digest`` (so farm cache entries and ``PIPELINE_VERSION`` stay
valid), raise the same diagnostics in the same order, and report the same
per-instance rip-up statistics.

The cases cover single- and multi-page chain cells, the two 60-wire
single-page shapes of the ``migrate-corpus`` benchmark, off-grid label
anchors that scaling must snap, both replacement strategies, and the
two-page sample cell with ports (hierarchy connectors and sheet-edge
stubs).  To re-record after a deliberate change of output, print
:func:`fingerprint` for each case.
"""

from __future__ import annotations

import hashlib
from typing import Tuple

import pytest

from cadinterop.schematic.migrate import PIPELINE_VERSION, Migrator, schematic_digest
from cadinterop.schematic.samples import (
    build_sample_plan,
    build_sample_schematic,
    build_vl_libraries,
    generate_chain_schematic,
)

#: (design, strategy) -> (schematic digest, log digest, stats digest,
#: log entries, replacements, matched nets).  A chain design is
#: "pages x chains x stages / seed [/ off-grid label anchors]".
GOLDEN = {
    ('1x2x3/1', 'minimal'): (
        'd6c8394f769ad3fe9da232219e86c89a0ed41397fb1377431b0fc568c084ecd1',
        '52fe4a9089fb5a6b7c051124ae4d8a66679ba22f58225b447d840f837e56bd0f',
        'dcbc3b698c38772009594d349f085071d07517f3d372f99d5727a66bfadaaee2',
        7, 6, 8,
    ),
    ('1x2x3/1', 'naive'): (
        '87e0c706831859d82da7bb2a474e5f25babed69ec4094974a015450f4699c0db',
        '52fe4a9089fb5a6b7c051124ae4d8a66679ba22f58225b447d840f837e56bd0f',
        'e11c59ded6bac340ce4294178a70950e33cd3b6ef95bbdef9f98bc344748c088',
        7, 6, 8,
    ),
    ('2x3x4/7', 'minimal'): (
        '5a901e184dd3448ae26908b78904afd52dcb501d3d6acf3e34a3db7a35fac01d',
        'eebe9ca5d36da07bf3761067adcc692c6cea04738b8b68df2253acfde0d421a6',
        'bc2e247507e19fc6e8d05364c6795a2797055590a39f014e44958d61b2e576d9',
        28, 24, 27,
    ),
    ('1x6x9/11', 'minimal'): (
        'a3b2801cd10324ea8bd35146099d911e4a95c702912e93a3896a9d4b57377bd7',
        'b303539cc4e9c90d07303aa44eba71f6a436a91b1223b3ef6153b830444ff953',
        '8ffcc869d7293310ec53e6b56a882757736b6f593efac6fd98e4494912580e3f',
        55, 54, 60,
    ),
    ('1x6x9/11', 'naive'): (
        '318f847f3d283ec359b66863c6abfb0ca642b0356eafa297da4a6d66afc4f822',
        'b303539cc4e9c90d07303aa44eba71f6a436a91b1223b3ef6153b830444ff953',
        'be7250a3377c27db0d0c69a4e308bcdef8a4bdddac2625cc79ec2e0b9ed1bb3d',
        55, 54, 60,
    ),
    ('1x10x5/13', 'minimal'): (
        '73798acf3ba33008cc01dcaefb186c87dcabd18c2afc63ec897d6f99d0078962',
        'dd011a90d0bf47c8c0013dbe6a7fceca4083086682000f5299cdf425b9697c6a',
        'da2484907363f60621efb9113df747a72be4afdd9b239d886e530f0af0edf06a',
        51, 50, 60,
    ),
    ('3x4x6/1996', 'minimal'): (
        '0d8dd63887a7c0cb83b25ff89658e997d11c55a62dce53e1a8ec9aa4aa0fc9ac',
        '4e71f4bb94131b6f19a966be18c7069d1bb20ac235c47c148d0a3dbccd24712c',
        '237e517d7176f75bb0b1eec6a8e8a295c4f669d061dd646a1b92b1fbcab74aba',
        81, 72, 76,
    ),
    ('3x4x6/1996', 'naive'): (
        'f81f756f9b69f2b7826c3e1de489cb8eacc07da157741d2f8d9c4bbc2a171ec4',
        '4e71f4bb94131b6f19a966be18c7069d1bb20ac235c47c148d0a3dbccd24712c',
        '6488a40a45baad71bb065a767a26a34026f0c8001b21916443fbe95fe24cd8c2',
        81, 72, 76,
    ),
    ('2x4x6/5/3', 'minimal'): (
        '35ae94780ce38e6b22ca70bab202ee50fcd5cfe81a0f33637dfcc83125713011',
        '568f640fe626060c2a4b744b6e456f4a2f033942f8473fd04e5bfe99fd2416a2',
        'fcfef39077d4152570caad2df1812f61471c8f96ae02d01fc07dd75b89636e9b',
        56, 48, 52,
    ),
    ('sample', 'minimal'): (
        'a9e06c514a547bdb3a8de84a55c992cc9fa76a32559d420d7c7f8edb4604a8d5',
        '5a28a42b4f5154f28a6fa030b7fc1318c2c845453e81868778339f57fde8dc77',
        '20dc775b27a595a9eb024a6350c0098f20afae18697ba0310d8585222b2f9cf3',
        16, 6, 8,
    ),
    ('sample', 'naive'): (
        '4c574e1538d925d1de7e979e305fd945a9664200a060cc03addb9189e6fee4bb',
        '603dfa90c499af5c9b3cc7323994a75201a26b4c41ab6be2d9ac52bb3a652b3d',
        '0cfd2105b2b0816aca26afda2e2ce9b3d6481bec56a68c5f8e906f6dfaf20737',
        18, 6, 7,
    ),
}


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def build(design: str):
    libraries = build_vl_libraries()
    if design == "sample":
        return libraries, build_sample_schematic(libraries)
    shape, seed, *offgrid = design.split("/")
    pages, chains, stages = (int(part) for part in shape.split("x"))
    cell = generate_chain_schematic(
        libraries, pages=pages, chains_per_page=chains, stages=stages,
        seed=int(seed), offgrid_labels=int(offgrid[0]) if offgrid else 0,
    )
    return libraries, cell


def fingerprint(design: str, strategy: str) -> Tuple:
    """What one migration leaves behind, reduced to comparable values."""
    libraries, cell = build(design)
    plan = build_sample_plan(source_libraries=libraries, strategy=strategy)
    result = Migrator(plan).migrate(cell)
    log = [
        (issue.severity.name, issue.category.value, issue.subject, issue.message,
         issue.tool, issue.remedy)
        for issue in result.log
    ]
    stats = [
        (s.instance, s.ripped_segments, s.added_segments, s.retained_segments,
         s.moved_pins, s.unmoved_pins)
        for s in result.replacements.per_instance
    ]
    return (
        schematic_digest(result.schematic),
        _sha(log),
        _sha(stats),
        len(log),
        len(stats),
        result.verification.matched_nets,
    )


def test_pipeline_version_unchanged():
    assert PIPELINE_VERSION == "1"


@pytest.mark.parametrize("design, strategy", sorted(GOLDEN))
def test_migration_matches_recorded_output(design, strategy):
    assert fingerprint(design, strategy) == GOLDEN[(design, strategy)]
