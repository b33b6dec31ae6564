"""rtl-to-layout: N-slice ALU RTL through synthesis, place, route and closure.

Each flow parses the RTL, synthesizes it, lowers the gates onto the sample
cell library, places and routes the cells, extracts parasitics, re-derives a
gate netlist from the layout and simulates it on sampled input vectors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from cadinterop.common.geometry import Point, Rect
from cadinterop.hdl import parser, simulator, synth
from cadinterop.hdl.ast_nodes import Assign, Const
from cadinterop.pnr import parasitics, placement, routing
from cadinterop.pnr.floorplan import Floorplan, Keepout
from cadinterop.pnr.samples import build_cell_library
from cadinterop.pnr.tech import generic_two_layer_tech
from cadinterop import rtl2gds

from perfbench.harness import Round, Spec, cpu_clock

#: (ALU slices, placement seed) of each flow.  Placement seeds are fixed,
#: not drawn from the run's seed: routing time varies about twofold between
#: placements, which would swamp a change to the router.  Each routes every
#: net on the floorplan below.  One flow per slice count keeps a round short
#: enough to repeat several times in a run.
FLOWS = ((1, 1), (2, 2), (3, 1))
#: Input vectors each flow's closure simulates.
VECTORS = 8
#: Floorplan geometry: one cell row with a free slot beside every cell, a
#: routing field above it and a pad column on each side.  A packed row lets
#: earlier nets wall an inverter's input pin in (its neighbours on the pin
#: layer are its own output and the next cell's pin), and a failing A*
#: search explores the whole grid, which would measure failure rather than
#: the router.
SLOT = 20
ROW_HEIGHT = 40  # the sample technology's core site
MARGIN = 40
DIE_HEIGHT = 300

SPEC = Spec(
    name="rtl-to-layout",
    seed=(
        "picks each flow's closure vectors and permutes the flows; slice "
        "counts and placement seeds are fixed"
    ),
    why=(
        "routing and placement dominate and appear in no other workload; the "
        "closure runs the simulator as many tiny compile-then-run jobs, so "
        "compile cost shows here while race-ensemble hides it"
    ),
    success=(
        "every cell placed and every net routed, none failed",
        "each closure vector's outputs equal a plain-Python evaluation of "
        "y_i = sel ? a_i ^ b_i : a_i & b_i",
    ),
    work_counter="pnr.routing.nets_routed",
    names={"work_per_s": "nets_routed_per_s", "op_ms_p50": "flow_ms_p50"},
)


@dataclass
class Flow:
    slices: int
    source: str
    inputs: List[str]
    outputs: List[str]
    placement_seed: int
    vectors: List[Dict[str, int]]

    @property
    def name(self) -> str:
        return f"alu{self.slices}_p{self.placement_seed}"


def setup():
    return generic_two_layer_tech(), build_cell_library()


def alu_source(slices: int) -> Tuple[str, List[str], List[str]]:
    inputs = [f"a{i}" for i in range(slices)] + [f"b{i}" for i in range(slices)] + ["sel"]
    outputs = [f"y{i}" for i in range(slices)]
    lines = [
        f"module alu{slices} ({', '.join(inputs + outputs)});",
        f"  input {', '.join(inputs)};",
        f"  output {', '.join(outputs)};",
        f"  reg {', '.join(outputs)};",
    ]
    for i in range(slices):
        lines.append(f"  always @(*) if (sel) y{i} = a{i} ^ b{i}; else y{i} = a{i} & b{i};")
    lines.append("endmodule")
    return "\n".join(lines), inputs, outputs


def alu_reference(slices: int, values: Dict[str, int]) -> Dict[str, str]:
    """The ALU function in plain Python: the closure's known answer."""
    return {
        f"y{i}": str(
            values[f"a{i}"] ^ values[f"b{i}"] if values["sel"] else values[f"a{i}"] & values[f"b{i}"]
        )
        for i in range(slices)
    }


def generate(seed: int, shared, scale: float = 1.0) -> List[Flow]:
    rng = random.Random(seed)
    flows = []
    for slices, placement_seed in FLOWS[: max(2, round(len(FLOWS) * scale))]:
        source, inputs, outputs = alu_source(slices)
        space = 2 ** len(inputs)
        vectors = [
            {name: (code >> bit) & 1 for bit, name in enumerate(inputs)}
            for code in rng.sample(range(space), min(VECTORS, space))
        ]
        flows.append(Flow(slices, source, inputs, outputs, placement_seed, vectors))
    rng.shuffle(flows)
    return flows


def floorplan(name: str, cells: int, flow: Flow) -> Tuple[Floorplan, Dict[str, Point]]:
    """A die sized from the cell count, and evenly spread pads."""
    width = 2 * MARGIN + 2 * cells * SLOT
    plan = Floorplan(name, Rect(0, 0, width, DIE_HEIGHT))
    # Placement-only keepouts: side margins, every other slot, all rows
    # above the first.
    plan.keepouts.append(Keepout(Rect(0, 0, MARGIN - 1, DIE_HEIGHT)))
    plan.keepouts.append(Keepout(Rect(width - MARGIN + 1, 0, width, DIE_HEIGHT)))
    for k in range(cells):
        x = MARGIN + (2 * k + 1) * SLOT
        plan.keepouts.append(Keepout(Rect(x + 1, 0, x + SLOT - 1, DIE_HEIGHT)))
    plan.keepouts.append(Keepout(Rect(0, ROW_HEIGHT + 1, width, DIE_HEIGHT)))
    # Pads sit in the side margins, spread over the routing field.
    pads = {}
    for side, names in ((MARGIN // 2, flow.inputs), (width - MARGIN // 2, flow.outputs)):
        step = (DIE_HEIGHT - 80) // max(1, len(names) - 1)
        for k, pad in enumerate(names):
            pads[pad] = Point(side, 60 + k * step)
    return plan, pads


def run_flow(result: Round, flow: Flow, tech, library) -> None:
    # The flow's stages are timed as parts: each one's best over the rounds
    # is less exposed to host slowdowns than the best of a whole flow.
    clock = cpu_clock
    start = clock()
    rtl = parser.parse_module(flow.source)
    hardware = rtl2gds.strip_testbench(synth.synthesize(rtl).netlist)
    conversion = rtl2gds.gate_netlist_to_pnr(hardware, library)
    design = conversion.design
    plan, pads = floorplan(rtl.name, conversion.cells_emitted, flow)
    placing = clock()
    placed = placement.RowPlacer(tech, plan, seed=flow.placement_seed).place(design, pads)
    routing_start = clock()
    router = routing.GridRouter(tech, plan, pads)
    routed = router.route_design(design)
    parasitics.extract(tech, routed, router.occupancy)
    closing = clock()
    result.counters["pnr.routing.nets_routed"] += len(routed.routed)
    result.counters["pnr.routing.nets_failed"] += len(routed.failed)
    result.counters["rtl2gds.cells"] += conversion.cells_emitted
    result.check(
        conversion.ok
        and placed.placed == len(design.instances)
        and not routed.failed
        and len(routed.routed) == len(design.nets),
        f"{rtl.name} seed {flow.placement_seed}: {len(routed.failed)} nets failed",
    )
    for values in flow.vectors:
        netlist = rtl2gds.pnr_to_gate_netlist(design)
        for name, value in values.items():
            netlist.add_net(name, "reg")
        netlist.add_initial([Assign(name, Const(str(value))) for name, value in values.items()])
        sim = simulator.Simulator(netlist)
        sim.run(10)
        got = {name: sim.value(name) for name in flow.outputs}
        want = alu_reference(flow.slices, values)
        result.check(got == want, f"{rtl.name} closure {values}: {got} != {want}")
    end = clock()
    for part, seconds in (
        ("front", placing - start),
        ("place", routing_start - placing),
        ("route", closing - routing_start),
        ("closure", end - closing),
    ):
        result.op_seconds[f"{flow.name}/{part}"] = seconds


def expected_counts(flows: List[Flow]) -> dict:
    """No net fails, and each closure vector compiles one netlist."""
    return {
        "pnr.routing.nets_failed": 0,
        "hdl.compile.compile_calls": sum(len(flow.vectors) for flow in flows),
    }


def run_round(shared, flows: List[Flow]) -> Round:
    tech, library = shared
    result = Round()
    result.counters = {"pnr.routing.nets_routed": 0, "pnr.routing.nets_failed": 0, "rtl2gds.cells": 0}
    for flow in flows:
        try:
            run_flow(result, flow, tech, library)
        except Exception as exc:  # one bad flow must not stop the round
            result.check(False, f"{flow.name}: {type(exc).__name__}: {exc}")
    return result
