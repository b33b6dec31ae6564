"""E19 — indexed netlist extraction vs the pairwise oracle, by page size.

``extract`` builds one :class:`~cadinterop.schematic.model.WireIndex` per
page and answers every wire-touch and pin-attach question with a lookup.
The pairwise extractor it replaced compares every pair of wires and scans
every wire for every pin; it survives as the test oracle in
``tests/schematic/test_wire_index.py`` and is timed here on single chain
pages of about 10 / 36 / 136 / 272 wires.  Rows: best-of-REPEATS CPU time
of each extractor and the speedup per page.  Expected shape: identical
``signature()`` on every page, the oracle's time growing with the square of
the wire count and the index's roughly linearly, and at least MIN_SPEEDUP x
on the 272-wire page.

Run from the repository root (the oracle is imported from ``tests``)::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_netlist_extract.py -s --benchmark-disable
"""

import time

from cadinterop.schematic.netlist import extract
from cadinterop.schematic.samples import generate_chain_schematic
from tests.schematic.test_wire_index import pairwise_extract

#: The ROADMAP target for the largest page; ten runs on a 2-vCPU VM
#: measured 48-83x (see EXPERIMENTS.md E19).
MIN_SPEEDUP = 10.0
REPEATS = 3
#: (chains, stages) on one page: chains * (stages + 1) wires.
PAGES = [(2, 4), (6, 5), (8, 16), (16, 16)]


def _best_cpu_seconds(function, cell, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.process_time()
        netlist = function(cell)
        best = min(best, time.process_time() - start)
    return best, netlist


class TestIndexedExtraction:
    def test_indexed_extract_scales_and_matches_oracle(self, vl_libraries, bench_scale):
        repeats = REPEATS * bench_scale
        rows = []
        for chains, stages in PAGES:
            cell = generate_chain_schematic(
                vl_libraries, pages=1, chains_per_page=chains, stages=stages
            )
            oracle_s, oracle = _best_cpu_seconds(pairwise_extract, cell, repeats)
            indexed_s, indexed = _best_cpu_seconds(extract, cell, repeats)
            assert indexed.signature() == oracle.signature()
            rows.append((cell.wire_count(), oracle_s, indexed_s, oracle_s / indexed_s))

        print(
            "\nE19 rows: "
            + str([
                (wires, f"{oracle_s * 1000:.1f}ms", f"{indexed_s * 1000:.2f}ms", f"{speedup:.1f}x")
                for wires, oracle_s, indexed_s, speedup in rows
            ])
        )
        wires, oracle_s, indexed_s, speedup = rows[-1]
        assert wires == 272
        assert speedup >= MIN_SPEEDUP, (
            f"indexed extraction only {speedup:.1f}x over the pairwise oracle on "
            f"{wires} wires (oracle {oracle_s * 1000:.1f}ms, indexed {indexed_s * 1000:.2f}ms)"
        )
