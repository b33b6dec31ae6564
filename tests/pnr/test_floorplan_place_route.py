"""Tests for floorplanning, placement, routing, and parasitics."""

import pytest

from cadinterop.common.geometry import Point, Rect
from cadinterop.pnr.cells import CellLibrary
from cadinterop.pnr.design import PnRDesign, PnRInstance, inst_terminal, pad_terminal
from cadinterop.pnr.floorplan import (
    Block,
    Floorplan,
    GlobalNetStrategy,
    Keepout,
    NetRule,
    PinConstraint,
)
from cadinterop.pnr.parasitics import extract
from cadinterop.pnr.placement import RowPlacer, hpwl
from cadinterop.pnr.routing import GridRouter, SHIELD
from cadinterop.pnr.samples import (
    build_bus_scenario,
    build_cell_library,
    build_floorplan,
    generate_design,
)
from cadinterop.pnr.tech import generic_two_layer_tech


@pytest.fixture(scope="module")
def tech():
    return generic_two_layer_tech()


@pytest.fixture(scope="module")
def library():
    return build_cell_library()


class TestFloorplan:
    def test_block_dimensions_from_area_aspect(self):
        block = Block("b", area=400, aspect_ratio=4.0)
        assert block.width == 40 and block.height == 10

    def test_unplaced_block_has_no_outline(self):
        with pytest.raises(ValueError):
            Block("b", area=100).outline()

    def test_validate_clean(self):
        assert build_floorplan().validate() == []

    def test_overlapping_blocks_flagged(self):
        fp = Floorplan("f", Rect(0, 0, 100, 100))
        fp.add_block(Block("a", area=400, location=Point(0, 0)))
        fp.add_block(Block("b", area=400, location=Point(10, 10)))
        assert any("overlap" in p for p in fp.validate())

    def test_block_outside_die_flagged(self):
        fp = Floorplan("f", Rect(0, 0, 30, 30))
        fp.add_block(Block("a", area=3600, location=Point(0, 0)))
        assert any("past the die" in p for p in fp.validate())

    def test_literal_pin_offset_validated(self):
        fp = Floorplan("f", Rect(0, 0, 100, 100))
        fp.add_pin_constraint(PinConstraint("p", "north", offset=500))
        assert any("outside" in p for p in fp.validate())

    def test_pin_location_resolution(self):
        fp = Floorplan("f", Rect(0, 0, 100, 100))
        literal = PinConstraint("a", "west", offset=30)
        general = PinConstraint("b", "north")
        assert fp.pin_location(literal) == Point(0, 30)
        assert fp.pin_location(general) == Point(50, 100)

    def test_duplicate_rules_rejected(self):
        fp = Floorplan("f", Rect(0, 0, 100, 100))
        fp.add_net_rule(NetRule("n"))
        with pytest.raises(ValueError):
            fp.add_net_rule(NetRule("n"))

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            GlobalNetStrategy("x", "signal", "ring", "M1", 2)
        with pytest.raises(ValueError):
            GlobalNetStrategy("x", "power", "mesh", "M1", 2)


class TestPlacement:
    def test_all_cells_placed_in_die(self, tech, library):
        fp = build_floorplan()
        design, pads = generate_design(library, cells=18)
        result = RowPlacer(tech, fp, seed=3).place(design, pads)
        assert result.placed == 18
        for instance in design.instances.values():
            assert fp.die.contains_rect(instance.outline())

    def test_keepouts_respected(self, tech, library):
        fp = build_floorplan()
        design, pads = generate_design(library, cells=18)
        RowPlacer(tech, fp, seed=3).place(design, pads)
        keepout = fp.keepouts[0].rect  # placement keepout over the RAM
        for instance in design.instances.values():
            assert not instance.outline().intersects(keepout)

    def test_insufficient_room_raises(self, tech, library):
        fp = Floorplan("tiny", Rect(0, 0, 40, 40))
        design, pads = generate_design(library, cells=18)
        with pytest.raises(ValueError):
            RowPlacer(tech, fp).place(design, pads)

    def test_swap_improvement_never_worsens(self, tech, library):
        fp = build_floorplan()
        design, pads = generate_design(library, cells=18)
        placer = RowPlacer(tech, fp, seed=3)
        result_no_swaps = placer.place(design, pads, swap_passes=0)
        design2, pads2 = generate_design(library, cells=18)
        result_swaps = RowPlacer(tech, fp, seed=3).place(design2, pads2, swap_passes=3)
        assert result_swaps.hpwl <= result_no_swaps.hpwl

    def test_hpwl_zero_without_placement(self, library):
        design, pads = generate_design(library, cells=4)
        assert hpwl(design) == 0


class TestRouting:
    def route_small(self, tech, library, **kwargs):
        fp = build_floorplan()
        design, pads = generate_design(library, cells=12)
        RowPlacer(tech, fp, seed=3).place(design, pads)
        router = GridRouter(tech, fp, pads)
        return design, router, router.route_design(design, **kwargs)

    def test_full_design_routes(self, tech, library):
        _design, _router, result = self.route_small(tech, library)
        assert result.failed == []
        assert result.success_rate == 1.0
        assert result.total_wirelength > 0

    def test_routes_are_connected_paths(self, tech, library):
        design, router, result = self.route_small(tech, library)
        for net, routed in result.routed.items():
            if not routed.nodes:
                continue
            # Every net's nodes form one connected component under
            # grid/via adjacency.
            nodes = set(routed.nodes)
            start = next(iter(nodes))
            seen = {start}
            frontier = [start]
            while frontier:
                node = frontier.pop()
                for neighbor in grid_adjacent(router, node):
                    if neighbor in nodes and neighbor not in seen:
                        seen.add(neighbor)
                        frontier.append(neighbor)
            assert seen == nodes, f"net {net} is fragmented"

    def test_nets_do_not_share_nodes(self, tech, library):
        _design, router, result = self.route_small(tech, library)
        owners = {}
        for net, routed in result.routed.items():
            for node in routed.nodes:
                assert owners.setdefault(node, net) == net

    def test_routing_keepout_avoided(self, tech, library):
        fp = build_floorplan()
        design, pads = generate_design(library, cells=12)
        RowPlacer(tech, fp, seed=3).place(design, pads)
        router = GridRouter(tech, fp, pads)
        result = router.route_design(design)
        die, pitch = fp.die, tech.pitch
        blocked = set()
        for keepout in fp.keepouts:
            box = keepout.rect
            for layer in keepout.layers:
                for ix in range((box.x1 - die.x1) // pitch, (box.x2 - die.x1) // pitch + 1):
                    for iy in range((box.y1 - die.y1) // pitch, (box.y2 - die.y1) // pitch + 1):
                        blocked.add((layer, ix, iy))
        assert blocked, "the sample floorplan has a routing keepout"
        for routed in result.routed.values():
            assert not (routed.nodes & blocked)

    def test_shields_marked(self, tech):
        fp, design, pads = build_bus_scenario()
        router = GridRouter(tech, fp, pads)
        result = router.route_design(design)
        assert result.shield_nodes > 0
        assert SHIELD in set(router.occupancy.values())

    @pytest.mark.parametrize("width,spacing", [(2, 2), (3, 4)])
    def test_spacing_rule_enforced_symmetrically(self, tech, width, spacing):
        """No foreign wire within the rule's spacing of the victim.

        Clearance runs across each layer's direction: along y on the
        horizontal layer, along x on the vertical one.  Terminal (pad/pin)
        nodes are exempt: a pin fixed by the floorplan inside the clearance
        zone is the floorplan's decision, and the router may only enter it
        to escape.  Width 3 + spacing 4 is a margin of 5 tracks.
        """
        fp, design, pads = build_bus_scenario()
        fp.net_rules["crit"] = NetRule(
            "crit", width_tracks=width, spacing_tracks=spacing, shield=True
        )
        router = GridRouter(tech, fp, pads)
        result = router.route_design(design)
        terminal_nodes = set()
        for net, terminals in design.nets.items():
            for terminal in terminals:
                ix, iy = router._terminal_point(design, terminal)
                terminal_nodes.update((layer, ix, iy) for layer in router.layers)
        crit_nodes = result.routed["crit"].nodes
        margin = (width - 1) + (spacing - 1)
        for node in crit_nodes:
            for d in range(1, margin + 1):
                for probe in across(router, node, d):
                    if probe in terminal_nodes:
                        continue
                    owner = router.occupancy.get(probe)
                    assert owner in (None, "crit", SHIELD), (
                        f"{owner} within {d} tracks of crit"
                    )

    def test_clearance_beyond_four_tracks_forces_a_detour(self, tech):
        """A 6-track margin keeps a later net 7 tracks away, not 5 or 6."""
        fp = Floorplan("wide", Rect(0, 0, 200, 200))
        fp.add_net_rule(NetRule("wide", width_tracks=4, spacing_tracks=4))
        design = PnRDesign("wide")
        design.add_net("wide", [pad_terminal("ww"), pad_terminal("we")])
        design.add_net("near", [pad_terminal("nw"), pad_terminal("ne")])
        pads = {
            "ww": Point(0, 100), "we": Point(195, 100),  # row 20
            "nw": Point(50, 130), "ne": Point(150, 130),  # row 26: 6 tracks up
        }
        router = GridRouter(tech, fp, pads)
        wide = router.route_net(design, "wide")
        assert {(layer, iy) for layer, _x, iy in wide.nodes} == {("M1", 20)}
        near = router.route_net(design, "near")
        assert near is not None
        pins = {("M1", 10, 26), ("M1", 30, 26)}
        near_rows = {iy for layer, _x, iy in near.nodes - pins if layer == "M1"}
        assert near_rows == {27}


def grid_adjacent(router, node):
    """Nodes one grid move from ``node``: a track along its layer's
    direction, or a via to another layer at the same (x, y)."""
    layer, ix, iy = node
    if router.layers[layer].direction == "horizontal":
        yield from ((layer, ix - 1, iy), (layer, ix + 1, iy))
    else:
        yield from ((layer, ix, iy - 1), (layer, ix, iy + 1))
    for other in router.layers:
        if other != layer:
            yield (other, ix, iy)


def across(router, node, d):
    """The two same-layer nodes ``d`` tracks across ``node``'s direction."""
    layer, ix, iy = node
    if router.layers[layer].direction == "horizontal":
        return ((layer, ix, iy - d), (layer, ix, iy + d))
    return ((layer, ix - d, iy), (layer, ix + d, iy))


class TestParasitics:
    def test_topology_control_ordering(self, tech):
        """Paper's claim: spacing+shield < width-only < uncontrolled."""
        couplings = {}
        for features in (
            frozenset({"width", "spacing", "shield"}),
            frozenset({"width"}),
            frozenset(),
        ):
            fp, design, pads = build_bus_scenario()
            router = GridRouter(tech, fp, pads)
            result = router.route_design(design, honored_features=set(features))
            report = extract(tech, result, router.occupancy)
            couplings[features] = report.coupling_of("crit")
        full = couplings[frozenset({"width", "spacing", "shield"})]
        width_only = couplings[frozenset({"width"})]
        none = couplings[frozenset()]
        assert full < width_only < none

    def test_area_cap_tracks_wirelength(self, tech):
        fp, design, pads = build_bus_scenario()
        router = GridRouter(tech, fp, pads)
        result = router.route_design(design)
        report = extract(tech, result, router.occupancy)
        crit = report.net("crit")
        assert crit.area_cap > 0
        assert crit.total_cap >= crit.area_cap

    def test_coupling_symmetloss_attribution(self, tech):
        fp, design, pads = build_bus_scenario()
        router = GridRouter(tech, fp, pads)
        result = router.route_design(design, honored_features=set())
        report = extract(tech, result, router.occupancy)
        worst = report.net("crit").worst_aggressor
        assert worst is not None and worst[0] == "aggr0"
