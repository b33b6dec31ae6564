"""Placement and routing report ``pnr:place`` / ``pnr:route`` spans.

No ``cadinterop`` subcommand runs place and route, so these tests install
a traced context the way ``cadinterop trace`` does and read the spans back
through the same tree renderer it prints.
"""

from cadinterop.obs import ObsContext, Tracer, installed, render_tree
from cadinterop.pnr.backplane import run_flow
from cadinterop.pnr.dialects import TOOL_P
from cadinterop.pnr.placement import RowPlacer
from cadinterop.pnr.routing import GridRouter
from cadinterop.pnr.samples import build_cell_library, build_floorplan, generate_design
from cadinterop.pnr.tech import generic_two_layer_tech


def place_and_route(cells=12):
    tech = generic_two_layer_tech()
    floorplan = build_floorplan()
    design, pads = generate_design(build_cell_library(), cells=cells)
    placed = RowPlacer(tech, floorplan, seed=3).place(design, pads)
    router = GridRouter(tech, floorplan, pads)
    routed = router.route_design(design)
    signature = (
        placed,
        [(i.name, i.location) for i in design.instances.values()],
        [(name, net.nodes, net.vias) for name, net in routed.routed.items()],
        routed.failed,
        routed.shield_nodes,
        list(router.occupancy.items()),
    )
    return design, placed, routed, signature


def by_name(spans, name):
    return [span for span in spans if span["name"] == name]


class TestPnRSpans:
    def test_place_and_route_spans_carry_their_counts(self):
        tracer = Tracer()
        with installed(ObsContext(tracer)):
            design, placed, routed, _signature = place_and_route()
        spans = tracer.spans()
        (place,) = by_name(spans, "pnr:place")
        (route,) = by_name(spans, "pnr:route")
        assert place["attrs"] == {
            "design": design.name, "cells": 12, "swaps": placed.swap_improvements,
        }
        assert route["attrs"] == {
            "design": design.name,
            "nets": len(design.nets),
            "routed": len(routed.routed),
            "failed": len(routed.failed),
        }
        tree = render_tree(spans)
        assert "pnr:place" in tree and "pnr:route" in tree

    def test_spans_nest_under_the_backplane_flow(self):
        tracer = Tracer()
        tech = generic_two_layer_tech()
        design, pads = generate_design(build_cell_library(), cells=8)
        with installed(ObsContext(tracer)):
            run_flow(tech, build_floorplan(), build_cell_library(), design,
                     TOOL_P, pads)
        spans = tracer.spans()
        (flow,) = by_name(spans, "pnr:flow")
        for name in ("pnr:place", "pnr:route"):
            (span,) = by_name(spans, name)
            assert span["parent_id"] == flow["span_id"]

    def test_tracing_leaves_the_layout_unchanged(self):
        *_rest, untraced = place_and_route()
        with installed(ObsContext(Tracer())):
            *_rest, traced = place_and_route()
        assert traced == untraced
