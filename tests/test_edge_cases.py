"""Edge-case tests across packages: the corners the main suites skip."""

import pytest

from cadinterop.common.geometry import Orientation, Point, Rect, Segment, Transform
from cadinterop.common.namemap import NameMap


class TestGeometryCorners:
    def test_segment_transform(self):
        segment = Segment(Point(0, 0), Point(10, 0))
        transformed = segment.transformed(Transform(Point(5, 5), Orientation.R90))
        assert transformed == Segment(Point(5, 5), Point(5, 15))

    def test_segment_scaled(self):
        from fractions import Fraction

        segment = Segment(Point(0, 0), Point(16, 0))
        assert segment.scaled(Fraction(5, 8)) == Segment(Point(0, 0), Point(10, 0))

    def test_rect_corners_order(self):
        corners = Rect(0, 0, 2, 3).corners()
        assert corners[0] == Point(0, 0) and corners[2] == Point(2, 3)

    def test_orientation_full_group_closure(self):
        for a in Orientation:
            for b in Orientation:
                assert a.compose(b) in Orientation


class TestNetlistHelpers:
    def test_net_of_terminal(self):
        from cadinterop.schematic.netlist import extract
        from cadinterop.schematic.samples import (
            build_sample_schematic,
            build_vl_libraries,
        )

        netlist = extract(build_sample_schematic(build_vl_libraries()))
        net = netlist.net_of_terminal(("U1", "Y"))
        assert net is not None and net.name == "N1"
        assert netlist.net_of_terminal(("GHOST", "X")) is None


class TestWorkflowEdges:
    def test_reset_blocked_by_running_successor(self):
        from cadinterop.workflow import (
            FlowTemplate, PythonAction, StepDef, StepState, WorkflowEngine,
            WorkflowError,
        )

        template = FlowTemplate("t")
        template.add_step(StepDef("a", action=PythonAction(lambda api: 0)))
        template.add_step(StepDef("b", action=PythonAction(lambda api: 0),
                                  start_after=("a",)))
        engine = WorkflowEngine()
        instance = engine.instantiate(template)
        engine.run(instance)
        instance.record("b").state = StepState.RUNNING
        ok, reason = engine.can_reset(instance, "a")
        assert not ok and "running" in reason
        with pytest.raises(WorkflowError):
            engine.reset(instance, "a")

    def test_api_rejects_nonterminal_explicit_state(self):
        from cadinterop.workflow import (
            FlowTemplate, PythonAction, StepDef, StepState, WorkflowEngine,
        )

        def bad(api):
            api.set_state(StepState.RUNNING)
            return 0

        template = FlowTemplate("t")
        template.add_step(StepDef("s", action=PythonAction(bad), explicit_status=True))
        engine = WorkflowEngine()
        instance = engine.instantiate(template)
        engine.run(instance)
        # Setting a non-terminal state is itself an error -> step fails.
        assert instance.state_of("s") is StepState.FAILED

    def test_variable_exchange_between_steps(self):
        from cadinterop.workflow import (
            FlowTemplate, PythonAction, StepDef, WorkflowEngine,
        )

        def producer(api):
            api.set_variable("gate_count", 1234)
            return 0

        seen = {}

        def consumer(api):
            seen["value"] = api.get_variable("gate_count")
            return 0

        template = FlowTemplate("t")
        template.add_step(StepDef("p", action=PythonAction(producer)))
        template.add_step(StepDef("c", action=PythonAction(consumer), start_after=("p",)))
        engine = WorkflowEngine()
        instance = engine.instantiate(template)
        engine.run(instance)
        assert seen["value"] == 1234


class TestPersonalityRenameCompleteness:
    def test_rename_covers_every_construct(self):
        from cadinterop.hdl.parser import parse_module
        from cadinterop.hdl.ast_nodes import rewrite_module
        from cadinterop.hdl.simulator import simulate

        module = parse_module(
            """
            module m (inp, outp);
              input inp; output outp;
              reg r; wire w;
              assign #1 w = inp & r;
              nand g (outp, w, r);
              always @(posedge inp) r <= ~r;
              initial r = 1'b0;
            endmodule
            """
        )
        mapping = {name: f"x_{name}" for name in module.nets}
        renamed = rewrite_module(module, mapping)
        assert set(renamed.nets) == {f"x_{n}" for n in module.nets}
        # Behaviorally identical under renaming.
        sim_a = simulate(module, until=10)
        sim_b = simulate(renamed, until=10)
        for name in module.nets:
            assert sim_a.value(name) == sim_b.value(f"x_{name}")


class TestCoreCornerCases:
    def test_consumers_before_producers_edge_order(self):
        from cadinterop.core.tasks import TaskGraph, task

        graph = TaskGraph("g")
        # Consumer added first: edges must still appear.
        graph.add_task(task("use", "consume", ["thing"], ["done"]))
        graph.add_task(task("make", "produce", [], ["thing"]))
        assert ("make", "thing", "use") in graph.edges()

    def test_self_loop_not_an_edge(self):
        from cadinterop.core.tasks import TaskGraph, task

        graph = TaskGraph("g")
        graph.add_task(task("iterate", "refines its own output", ["draft"], ["draft"]))
        assert graph.edges() == []
        assert graph.successors("iterate") == set()

    def test_catalog_tools_implementing_unknown_task(self):
        from cadinterop.core.library import standard_tool_catalog

        assert standard_tool_catalog().tools_implementing("no-such-task") == []


class TestPnRCorners:
    def test_hpwl_counts_pads(self):
        from cadinterop.pnr.placement import hpwl
        from cadinterop.pnr.design import PnRDesign, PnRInstance, inst_terminal, pad_terminal
        from cadinterop.pnr.samples import build_cell_library
        from cadinterop.common.geometry import Point

        library = build_cell_library()
        design = PnRDesign("d")
        instance = design.add_instance(PnRInstance("u0", library.cell("inv")))
        instance.location = Point(100, 100)
        design.add_net("n", [inst_terminal("u0", "A"), pad_terminal("p")])
        without_pad = hpwl(design)
        with_pad = hpwl(design, {"p": Point(0, 0)})
        assert without_pad == 0  # single point
        assert with_pad > 0

    def test_router_single_terminal_net(self):
        from cadinterop.common.geometry import Point, Rect
        from cadinterop.pnr.design import PnRDesign, pad_terminal
        from cadinterop.pnr.floorplan import Floorplan
        from cadinterop.pnr.routing import GridRouter
        from cadinterop.pnr.tech import generic_two_layer_tech

        design = PnRDesign("d")
        design.add_net("lonely", [pad_terminal("p")])
        router = GridRouter(
            generic_two_layer_tech(), Floorplan("f", Rect(0, 0, 100, 100)),
            {"p": Point(50, 50)},
        )
        result = router.route_design(design)
        assert result.failed == []
        assert result.routed["lonely"].wirelength_tracks == 0

    def test_instance_outline_requires_placement(self):
        from cadinterop.pnr.design import PnRInstance
        from cadinterop.pnr.samples import build_cell_library

        instance = PnRInstance("u", build_cell_library().cell("inv"))
        with pytest.raises(ValueError):
            instance.outline()
        with pytest.raises(ValueError):
            instance.pin_position("A")


class TestNameMapEdge:
    def test_transform_changing_after_use_is_isolated(self):
        # Each NameMap owns its transform and uniquifies what it aliases.
        nm = NameMap(lambda n: n[:2])
        assert nm.map("abc") == "ab"
        assert nm.map("abd") == "ab_2"
