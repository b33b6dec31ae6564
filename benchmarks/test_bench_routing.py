"""E20 — place, route and extract the 3-slice ALU vs the pre-index oracles.

``GridRouter`` searches integer node ids on a wall-padded grid in a
goal-directed order (lowest ``f``, then lowest ``h``, then push order)
from bucket queues, probes clearance only as far as the widest margin in
play, and caches one clearance verdict per node for each net;
``RowPlacer`` finds free slots with one sweep per row and swaps on integer
arrays against a cached wirelength per net; ``parasitics.extract`` probes
occupancy lines by integer coordinate.  The code they replaced survives as
the oracles in ``tests/pnr/test_router_equivalence.py`` (a heap keyed
``(f, h, push counter)``, a slot scan and a swap pass that re-measures
every net of the design, tuple probes) and is timed here on the
``rtl-to-layout`` benchmark's 3-slice ALU flow (synthesized, lowered onto
the sample library, one spaced cell row, placement seed 1).  Rows:
best-of-REPEATS CPU time of the oracle and the current code for
placement, routing and extraction, the speedup of each, and the A*
expansions of one routing run by the oracle, the current code and
``PushOrderRouter`` (the search order before the goal-directed one).
Expected shape: identical placements and routing results (occupancy order
included), the oracle's parasitics to within 1e-12, placement at least
MIN_PLACE_SPEEDUP x and routing at least MIN_SPEEDUP x faster, the same
expansion count as the oracle (a search that expands other nodes shows
here even where its paths come out the same), and at most
MAX_EXPANSION_RATIO of push order's.

Run from the repository root (the oracles are imported from ``tests``,
the flow from ``perfbench``)::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_routing.py -s --benchmark-disable
"""

import copy
import time

from cadinterop import rtl2gds
from cadinterop.hdl import parser, synth
from cadinterop.pnr.parasitics import extract
from cadinterop.pnr.placement import RowPlacer
from cadinterop.pnr.routing import GridRouter
from perfbench.workloads.rtl_to_layout import Flow, alu_source, floorplan
from tests.pnr.test_router_equivalence import (
    OraclePlacer,
    OracleRouter,
    PushOrderRouter,
    assert_same_parasitics,
    oracle_extract,
    placement_signature,
    routing_signature,
)

#: Well under the measured routing ratio (see EXPERIMENTS.md E20).
MIN_SPEEDUP = 1.5
#: Well under the measured placement ratio (see EXPERIMENTS.md E26).
MIN_PLACE_SPEEDUP = 20
#: Expansions allowed, as a fraction of push order's (measured 0.47, E25).
MAX_EXPANSION_RATIO = 0.55
REPEATS = 3
SLICES = 3
PLACEMENT_SEED = 1


def alu_flow(library):
    """The 3-slice ALU lowered to cells, with its floorplan and pads."""
    source, inputs, outputs = alu_source(SLICES)
    rtl = parser.parse_module(source)
    hardware = rtl2gds.strip_testbench(synth.synthesize(rtl).netlist)
    conversion = rtl2gds.gate_netlist_to_pnr(hardware, library)
    flow = Flow(SLICES, source, inputs, outputs, PLACEMENT_SEED, [])
    plan, pads = floorplan(rtl.name, conversion.cells_emitted, flow)
    return conversion.design, plan, pads


class _CountingMoves(list):
    """A router's move table that counts its reads."""

    reads = 0

    def __getitem__(self, layer):
        self.reads += 1
        return super().__getitem__(layer)


def _count_expansions(router):
    """Make ``router`` count the nodes it expands (popped, not the target).

    ``GridRouter`` reads its move table once per expansion and the oracle
    asks ``_neighbors`` once; returns the counter, with the count in
    ``reads``.
    """
    if isinstance(router, OracleRouter):
        counter = _CountingMoves()
        neighbors = router._neighbors

        def counting(node):
            counter.reads += 1
            return neighbors(node)

        router._neighbors = counting
    else:
        counter = router._moves = _CountingMoves(router._moves)
    return counter


def _best_cpu_seconds(function, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.process_time()
        result = function()
        best = min(best, time.process_time() - start)
    return best, result


class TestRoutingSpeed:
    def test_alu_place_and_route_matches_oracle_and_is_faster(
        self, pnr_tech, pnr_library, bench_scale
    ):
        repeats = REPEATS * bench_scale
        design, plan, pads = alu_flow(pnr_library)

        def place(placer_cls):
            def run():
                placed_design = copy.deepcopy(design)
                result = placer_cls(pnr_tech, plan, seed=PLACEMENT_SEED).place(
                    placed_design, pads
                )
                return placed_design, placement_signature(placed_design, result)
            return run

        oracle_place_s, (_design, oracle_placed) = _best_cpu_seconds(
            place(OraclePlacer), repeats
        )
        place_s, (placed_design, placed) = _best_cpu_seconds(place(RowPlacer), repeats)
        assert placed == oracle_placed

        def route_design(router_cls, prepare=lambda router: None):
            router = router_cls(pnr_tech, plan, pads)
            prepare(router)
            return routing_signature(router, router.route_design(placed_design))

        router = GridRouter(pnr_tech, plan, pads)
        result = router.route_design(placed_design)

        def extract_with(extract_fn):
            return lambda: extract_fn(pnr_tech, result, router.occupancy)

        oracle_extract_s, oracle_report = _best_cpu_seconds(
            extract_with(oracle_extract), repeats
        )
        extract_s, report = _best_cpu_seconds(extract_with(extract), repeats)
        assert_same_parasitics(report, oracle_report)

        def route(router_cls):
            return lambda: route_design(router_cls)

        oracle_route_s, oracle_routed = _best_cpu_seconds(route(OracleRouter), repeats)
        route_s, routed = _best_cpu_seconds(route(GridRouter), repeats)
        assert routed == oracle_routed
        assert routed[1] == [], "the ALU flow routes every net"
        # Counted outside the timed runs: the counters cost a call each.
        counters = []
        for router_cls in (OracleRouter, GridRouter, PushOrderRouter):
            route_design(router_cls, lambda router: counters.append(_count_expansions(router)))
        oracle_expanded, expanded, push_order_expanded = (counter.reads for counter in counters)

        rows = [
            ("place", oracle_place_s, place_s, oracle_place_s / place_s),
            ("route", oracle_route_s, route_s, oracle_route_s / route_s),
            ("extract", oracle_extract_s, extract_s, oracle_extract_s / extract_s),
        ]
        print(
            f"\nE20 rows ({len(design.instances)} cells, {len(design.nets)} nets): "
            + str([
                (stage, f"{oracle * 1000:.1f}ms", f"{current * 1000:.1f}ms", f"{speedup:.2f}x")
                for stage, oracle, current, speedup in rows
            ])
            + f" expansions: oracle {oracle_expanded}, current {expanded},"
            f" push order {push_order_expanded}"
        )
        assert expanded == oracle_expanded, "the search order changed"
        assert expanded <= MAX_EXPANSION_RATIO * push_order_expanded, (
            f"{expanded} expansions, push order {push_order_expanded}"
        )
        place_speedup = rows[0][3]
        assert place_speedup >= MIN_PLACE_SPEEDUP, (
            f"placement only {place_speedup:.2f}x over the oracle "
            f"(oracle {oracle_place_s * 1000:.1f}ms, current {place_s * 1000:.1f}ms)"
        )
        speedup = rows[1][3]
        assert speedup >= MIN_SPEEDUP, (
            f"routing only {speedup:.2f}x over the oracle "
            f"(oracle {oracle_route_s * 1000:.1f}ms, current {route_s * 1000:.1f}ms)"
        )
