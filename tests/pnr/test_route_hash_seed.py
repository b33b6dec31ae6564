"""Layouts, search effort and parasitics do not depend on the hash seed.

``GridRouter`` gets its A* sources, and writes ``occupancy``, from tuple
sets whose layer names hash differently under each ``PYTHONHASHSEED``.  The
search breaks ties of ``f`` and ``h`` by push order, so sources pushed in
set order would change which nodes it expands, and could change the layout.
``parasitics.extract`` walks each net's node set, so sums taken in that
order would round differently, and aggressors listed in it would break
``worst_aggressor`` ties differently.  This places, routes and extracts the
three ALU flows of the ``rtl-to-layout`` benchmark in two interpreters with
different hash seeds and requires, per flow, the same routed nodes, vias,
failures, occupancy and A* expansion count, and the same ``repr`` of every
net's area and coupling values, with aggressors in the same order.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

#: Places, routes and extracts the ALU flows and prints them as JSON.
ROUTE_ALU = """
import json
from cadinterop import rtl2gds
from cadinterop.hdl import parser, synth
from cadinterop.pnr.parasitics import extract
from cadinterop.pnr.placement import RowPlacer
from cadinterop.pnr.routing import GridRouter
from cadinterop.pnr.samples import build_cell_library
from cadinterop.pnr.tech import generic_two_layer_tech
from perfbench.workloads.rtl_to_layout import FLOWS, Flow, alu_source, floorplan


class CountingMoves(list):
    # The move table, read once per expansion, counting its reads.
    reads = 0

    def __getitem__(self, layer):
        self.reads += 1
        return super().__getitem__(layer)


tech = generic_two_layer_tech()
flows = {}
for slices, seed in FLOWS:
    source, inputs, outputs = alu_source(slices)
    rtl = parser.parse_module(source)
    hardware = rtl2gds.strip_testbench(synth.synthesize(rtl).netlist)
    conversion = rtl2gds.gate_netlist_to_pnr(hardware, build_cell_library())
    flow = Flow(slices, source, inputs, outputs, seed, [])
    plan, pads = floorplan(rtl.name, conversion.cells_emitted, flow)
    RowPlacer(tech, plan, seed=seed).place(conversion.design, pads)
    router = GridRouter(tech, plan, pads)
    router._moves = moves = CountingMoves(router._moves)
    result = router.route_design(conversion.design)
    report = extract(tech, result, router.occupancy)
    flows[flow.name] = {
        "expansions": moves.reads,
        "nodes": {name: sorted(net.nodes) for name, net in result.routed.items()},
        "vias": {name: net.vias for name, net in result.routed.items()},
        "failed": result.failed,
        "occupancy": sorted(router.occupancy.items()),
        "parasitics": {
            name: [repr(net.area_cap), [[k, repr(v)] for k, v in net.coupling.items()]]
            for name, net in report.nets.items()
        },
    }
print(json.dumps(flows))
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


@pytest.fixture(scope="module")
def flows_by_seed() -> tuple:
    """The flows' JSON under hash seeds 0 and 1."""
    return route_alu("0"), route_alu("1")


def test_alu_layout_is_independent_of_hash_seed(flows_by_seed):
    first, second = flows_by_seed
    assert list(first) == ["alu1_p1", "alu2_p2", "alu3_p1"]
    for name, flow in first.items():
        other = second[name]
        assert flow["failed"] == [] and flow["nodes"], f"{name} routes every net"
        assert other["nodes"] == flow["nodes"], name
        assert other["vias"] == flow["vias"], name
        assert other["failed"] == flow["failed"], name
        assert other["occupancy"] == flow["occupancy"], name
        assert other["expansions"] == flow["expansions"], name


def test_alu_parasitics_are_independent_of_hash_seed(flows_by_seed):
    first, second = flows_by_seed
    for name, flow in first.items():
        assert any(coupling for _area, coupling in flow["parasitics"].values()), name
        assert second[name]["parasitics"] == flow["parasitics"], name
