"""The routed layout and the search effort do not depend on the hash seed.

``GridRouter`` gets its A* sources, and writes ``occupancy``, from tuple
sets whose layer names hash differently under each ``PYTHONHASHSEED``.  The
search breaks ties of ``f`` and ``h`` by push order, so sources pushed in
set order would change which nodes it expands, and could change the layout.
This routes the 3-slice ALU flow of the ``rtl-to-layout`` benchmark in two
interpreters with different hash seeds and requires the same routed nodes,
vias, failures, occupancy and A* expansion count.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Places and routes the 3-slice ALU flow and prints the layout as JSON.
ROUTE_ALU = """
import json
from cadinterop import rtl2gds
from cadinterop.hdl import parser, synth
from cadinterop.pnr.placement import RowPlacer
from cadinterop.pnr.routing import GridRouter
from cadinterop.pnr.samples import build_cell_library
from cadinterop.pnr.tech import generic_two_layer_tech
from perfbench.workloads.rtl_to_layout import Flow, alu_source, floorplan

slices, seed = 3, 1
tech = generic_two_layer_tech()
source, inputs, outputs = alu_source(slices)
rtl = parser.parse_module(source)
hardware = rtl2gds.strip_testbench(synth.synthesize(rtl).netlist)
conversion = rtl2gds.gate_netlist_to_pnr(hardware, build_cell_library())
flow = Flow(slices, source, inputs, outputs, seed, [])
plan, pads = floorplan(rtl.name, conversion.cells_emitted, flow)
RowPlacer(tech, plan, seed=seed).place(conversion.design, pads)
router = GridRouter(tech, plan, pads)


class CountingMoves(list):
    # The move table, read once per expansion, counting its reads.
    reads = 0

    def __getitem__(self, layer):
        self.reads += 1
        return super().__getitem__(layer)


router._moves = moves = CountingMoves(router._moves)
result = router.route_design(conversion.design)
print(json.dumps({
    "expansions": moves.reads,
    "nodes": {name: sorted(net.nodes) for name, net in result.routed.items()},
    "vias": {name: net.vias for name, net in result.routed.items()},
    "failed": result.failed,
    "occupancy": sorted(router.occupancy.items()),
}))
"""


def route_alu(hash_seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    completed = subprocess.run(
        [sys.executable, "-c", ROUTE_ALU],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(completed.stdout)


def test_alu_layout_is_independent_of_hash_seed():
    first, second = route_alu("0"), route_alu("1")
    assert first["failed"] == [] and first["nodes"], "the ALU flow routes every net"
    assert second["nodes"] == first["nodes"]
    assert second["vias"] == first["vias"]
    assert second["failed"] == first["failed"]
    assert second["occupancy"] == first["occupancy"]
    assert second["expansions"] == first["expansions"]
