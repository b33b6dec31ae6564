"""The routed layout does not depend on the string-hash seed.

``GridRouter`` admits A* sources, and writes ``occupancy``, in the iteration
order of tuple sets whose layer names hash differently under each
``PYTHONHASHSEED``.  The search breaks cost ties by push order, so a layout
that leaned on that order would change with the seed.  This routes the
3-slice ALU flow of the ``rtl-to-layout`` benchmark in two interpreters with
different hash seeds and requires the same routed nodes, vias, failures and
occupancy.
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
result = router.route_design(conversion.design)
print(json.dumps({
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
