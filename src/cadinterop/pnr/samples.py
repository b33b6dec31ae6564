"""Synthetic physical-design fixtures for tests, examples, and benchmarks.

Stand-ins for the designs the paper's P&R discussion assumes: a small
standard-cell library whose pins carry the full connection-property
vocabulary (including one cell whose access must be derived from
blockages), a parametric random netlist with one latency-critical bus net,
and a floorplan carrying every Section 4 intent class — aspect-ratio'd
blocks, literal and general pin constraints, keepouts, power/clock
strategies, and width/spacing/shield net rules.
"""

from __future__ import annotations

import random
from typing import Dict, Tuple

from cadinterop.common.geometry import Point, Rect
from cadinterop.pnr.cells import (
    Blockage,
    CellAbstract,
    CellLibrary,
    CellPin,
    ConnectionProps,
    PinShape,
)
from cadinterop.pnr.design import PnRDesign, PnRInstance, inst_terminal, pad_terminal
from cadinterop.pnr.floorplan import (
    Block,
    Floorplan,
    GlobalNetStrategy,
    Keepout,
    NetRule,
    PinConstraint,
)


def build_cell_library() -> CellLibrary:
    """A four-cell library exercising every pin-data variant."""
    library = CellLibrary("stdlib")
    library.add(
        CellAbstract(
            name="inv", width=10, height=40,
            pins=[
                CellPin(
                    "A",
                    [PinShape("M1", Rect(0, 16, 4, 24))],
                    ConnectionProps(access=frozenset({"west", "north"})),
                ),
                CellPin(
                    "Y",
                    [PinShape("M1", Rect(6, 16, 10, 24))],
                    ConnectionProps(access=frozenset({"east"})),
                ),
            ],
        )
    )
    library.add(
        CellAbstract(
            name="nand2", width=20, height=40,
            pins=[
                CellPin(
                    "A",
                    [PinShape("M1", Rect(0, 24, 4, 32))],
                    ConnectionProps(
                        access=frozenset({"west"}),
                        equivalent_group="inputs",
                    ),
                ),
                CellPin(
                    "B",
                    [PinShape("M1", Rect(0, 8, 4, 16))],
                    ConnectionProps(
                        access=frozenset({"west"}),
                        equivalent_group="inputs",
                    ),
                ),
                CellPin(
                    "Y",
                    [PinShape("M1", Rect(16, 16, 20, 24))],
                    ConnectionProps(access=frozenset({"east"}), multiple_connect=True),
                ),
            ],
        )
    )
    # A cell with NO access property: tools must derive it; the blockage
    # on the north side forces derivation to differ from optimistic reads.
    library.add(
        CellAbstract(
            name="dff", width=30, height=40,
            pins=[
                CellPin("D", [PinShape("M1", Rect(0, 16, 4, 24))], ConnectionProps()),
                CellPin("CK", [PinShape("M1", Rect(12, 0, 18, 4))],
                        ConnectionProps(must_connect=True), use="clock"),
                CellPin("Q", [PinShape("M1", Rect(26, 16, 30, 24))], ConnectionProps()),
            ],
            blockages=[Blockage("M1", Rect(0, 26, 30, 38))],
        )
    )
    library.add(
        CellAbstract(
            name="filler", width=10, height=40,
            pins=[
                CellPin(
                    "VDD",
                    [PinShape("M1", Rect(0, 36, 10, 40))],
                    ConnectionProps(connect_by_abutment=True),
                    use="power",
                ),
            ],
        )
    )
    return library


def build_floorplan(die_size: int = 600) -> Floorplan:
    """A floorplan using every Section 4 intent class."""
    floorplan = Floorplan("demo", Rect(0, 0, die_size, die_size))
    ram = Block("ram0", area=160 * 160, aspect_ratio=1.0, location=Point(10, 10))
    ram.pin_constraints.append(PinConstraint("dout", "east", offset=40))
    floorplan.add_block(ram)
    floorplan.add_keepout(Keepout(Rect(10, 10, 170, 170)))  # placement keepout over the RAM
    floorplan.add_keepout(
        Keepout(Rect(die_size - 80, die_size - 80, die_size - 10, die_size - 10), layers=("M1", "M2"))
    )
    floorplan.add_strategy(
        GlobalNetStrategy("VDD", "power", "ring", layer="M1", width=4)
    )
    floorplan.add_strategy(
        GlobalNetStrategy("CLK", "clock", "spine", layer="M2", width=2, shielded=True)
    )
    floorplan.add_pin_constraint(PinConstraint("in0", "west", offset=300))
    floorplan.add_pin_constraint(PinConstraint("out0", "east"))
    # The critical bus: double width, double spacing, shielded.
    floorplan.add_net_rule(NetRule("crit", width_tracks=2, spacing_tracks=2, shield=True))
    return floorplan


def generate_design(
    library: CellLibrary,
    cells: int = 24,
    seed: int = 7,
) -> Tuple[PnRDesign, Dict[str, Point]]:
    """A random-but-reproducible netlist with a critical net named 'crit'.

    Returns the design plus die-pad positions for the router.
    """
    rng = random.Random(seed)
    design = PnRDesign(f"rand{cells}")
    kinds = ["inv", "nand2", "dff"]
    for index in range(cells):
        cell = library.cell(kinds[index % len(kinds)])
        design.add_instance(PnRInstance(f"u{index}", cell))

    instances = list(design.instances.values())
    # Chain nets: each cell's output to the next cell's first input; nand2
    # B pins fan out from a random chain net (each output pin drives
    # exactly one net, as in a real netlist).
    out_pin = {"inv": "Y", "nand2": "Y", "dff": "Q"}
    in_pin = {"inv": "A", "nand2": "A", "dff": "D"}
    chain_terminals = {
        f"n{index}": [
            inst_terminal(instances[index].name, out_pin[instances[index].cell.name]),
            inst_terminal(instances[index + 1].name, in_pin[instances[index + 1].cell.name]),
        ]
        for index in range(cells - 1)
    }
    nand_instances = [i for i in instances if i.cell.name == "nand2"]
    chain_names = sorted(chain_terminals)
    for nand in nand_instances:
        target = rng.choice(chain_names)
        already = {(k, n) for k, n, _p in chain_terminals[target]}
        if ("inst", nand.name) not in already:
            chain_terminals[target].append(inst_terminal(nand.name, "B"))
    for name, terminals in chain_terminals.items():
        design.add_net(name, terminals)
    # Clock net to every dff.
    dffs = [i for i in instances if i.cell.name == "dff"]
    if dffs:
        design.add_net(
            "CLK",
            [pad_terminal("clkpad")] + [inst_terminal(d.name, "CK") for d in dffs],
        )
    # The critical net: pad to the first and last cells (long route).
    design.add_net(
        "crit",
        [
            pad_terminal("in0"),
            inst_terminal(instances[0].name, in_pin[instances[0].cell.name]),
        ],
    )
    design.add_net(
        "critret",
        [
            inst_terminal(instances[-1].name, out_pin[instances[-1].cell.name]),
            pad_terminal("out0"),
        ],
    )

    pads = {
        "in0": Point(0, 300),
        "out0": Point(599, 300),
        "clkpad": Point(300, 599),
    }
    return design, pads


def build_bus_scenario(
    die_size: int = 400,
    victim_y: int = 200,
    aggressor_offsets: Tuple[int, ...] = (5, 25),
) -> Tuple[Floorplan, PnRDesign, Dict[str, Point]]:
    """The Section 4 interconnect-topology experiment, distilled.

    A victim bus net ``crit`` crosses the die west to east; aggressor nets
    run parallel a few tracks away.  The floorplan gives ``crit`` double
    width, double spacing, and a shield.  A tool that honors the rules
    keeps the aggressors off and grounds the field; a tool that drops them
    lets aggressors pack against the victim — the coupling difference is
    the measurable cost of the dialect gap (experiment E11).
    """
    floorplan = Floorplan("bus", Rect(0, 0, die_size, die_size))
    floorplan.add_net_rule(NetRule("crit", width_tracks=2, spacing_tracks=2, shield=True))

    design = PnRDesign("bus")
    pads: Dict[str, Point] = {}
    design.add_net("crit", [pad_terminal("vw"), pad_terminal("ve")])
    pads["vw"] = Point(0, victim_y)
    pads["ve"] = Point(die_size - 5, victim_y)
    for index, offset in enumerate(aggressor_offsets):
        name = f"aggr{index}"
        design.add_net(name, [pad_terminal(f"aw{index}"), pad_terminal(f"ae{index}")])
        pads[f"aw{index}"] = Point(0, victim_y + offset)
        pads[f"ae{index}"] = Point(die_size - 5, victim_y + offset)
    return floorplan, design, pads
