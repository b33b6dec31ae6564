"""Ablations — what the implementation's design choices buy.

Three load-bearing choices are switched off and measured:

* **A1** route rule-carrying nets first (vs last): critical nets that route
  late find their corridor taken and pay wirelength or fail;
* **A2** pre-reserve terminal nodes (vs not): without reservation other
  nets route across pins and strand them;
* **A3** independent verification (vs trusting the pipeline): the naive
  full-rip strategy silently breaks a tap — only verification notices.
"""

import pytest

from cadinterop.pnr.routing import GridRouter
from cadinterop.pnr.samples import build_bus_scenario, build_cell_library, build_floorplan, generate_design
from cadinterop.pnr.placement import RowPlacer
from cadinterop.pnr.tech import generic_two_layer_tech
from cadinterop.schematic.migrate import Migrator
from cadinterop.schematic.samples import build_sample_plan, build_sample_schematic


class TestA1RuleNetOrdering:
    def route_with_order(self, order):
        tech = generic_two_layer_tech()
        floorplan, design, pads = build_bus_scenario()
        router = GridRouter(tech, floorplan, pads)
        # Reserve terminals as route_design does.
        router.reserve_terminals(design)
        results = {}
        for net in order:
            results[net] = router.route_net(design, net)
            if results[net] is not None and results[net].rule.shield:
                router.add_shields(results[net])
        return results

    def test_rows(self):
        rules_first = self.route_with_order(["crit", "aggr0", "aggr1"])
        rules_last = self.route_with_order(["aggr0", "aggr1", "crit"])

        def wirelength(results, net):
            routed = results.get(net)
            return routed.wirelength_tracks if routed else None

        rows = {
            "rules-first": {"crit": wirelength(rules_first, "crit"),
                            "failed": [n for n, r in rules_first.items() if r is None]},
            "rules-last": {"crit": wirelength(rules_last, "crit"),
                           "failed": [n for n, r in rules_last.items() if r is None]},
        }
        print(f"\nA1 rows: {rows}")
        # Routing the protected net last costs it (detour or failure).
        first_length = rows["rules-first"]["crit"]
        last_length = rows["rules-last"]["crit"]
        assert first_length is not None
        assert last_length is None or last_length > first_length


class TestA2TerminalReservation:
    def route(self, reserve):
        tech = generic_two_layer_tech()
        library = build_cell_library()
        floorplan = build_floorplan()
        design, pads = generate_design(library, cells=18)
        RowPlacer(tech, floorplan, seed=3).place(design, pads)
        router = GridRouter(tech, floorplan, pads)
        if reserve:
            return design, router.route_design(design)
        # Ablated: route in the same order but without pre-reservation.
        failed = []
        routed = {}
        ordered = sorted(
            design.nets,
            key=lambda n: (floorplan.net_rules.get(n) is None, n),
        )
        for net in ordered:
            result = router.route_net(design, net)
            if result is None:
                failed.append(net)
            else:
                routed[net] = result
        return design, type("R", (), {"routed": routed, "failed": failed})()

    def test_rows(self):
        _design, with_reservation = self.route(reserve=True)
        _design2, without_reservation = self.route(reserve=False)
        rows = {
            "reserved": len(with_reservation.failed),
            "not-reserved": len(without_reservation.failed),
        }
        print(f"\nA2 rows (failed nets): {rows}")
        assert rows["reserved"] == 0
        # The ablation may or may not fail on this instance, but it must
        # never do better.
        assert rows["not-reserved"] >= rows["reserved"]


class TestA3VerificationCatchesWhatPipelinesMiss:
    def test_rows(self, vl_libraries):
        cell = build_sample_schematic(vl_libraries)
        naive_plan = build_sample_plan(source_libraries=vl_libraries, strategy="naive")
        result = Migrator(naive_plan).migrate(cell)
        rows = {
            "pipeline-reported-errors": sum(
                1 for issue in result.log
                if issue.severity >= 40 and issue.category.value != "verification"
            ),
            "verification-verdict": result.verification.summary().split(":")[0],
        }
        print(f"\nA3 rows: {rows}")
        # The pipeline itself raises no errors — only independent
        # verification catches the broken tap. The paper's point exactly.
        assert rows["pipeline-reported-errors"] == 0
        assert not result.verification.equivalent


class TestAblationPerformance:
    def test_bench_reserved_routing(self, benchmark):
        tech = generic_two_layer_tech()
        library = build_cell_library()
        floorplan = build_floorplan()
        design, pads = generate_design(library, cells=18)
        RowPlacer(tech, floorplan, seed=3).place(design, pads)

        def run():
            router = GridRouter(tech, floorplan, pads)
            return router.route_design(design)

        result = benchmark(run)
        assert result.failed == []
