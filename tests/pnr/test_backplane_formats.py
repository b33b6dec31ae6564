"""Tests for P&R dialects, the backplane, and exchange formats."""

import pytest

from cadinterop.common.diagnostics import IssueLog, Severity
from cadinterop.common.geometry import Point, Rect
from cadinterop.pnr.backplane import convey, run_flow
from cadinterop.pnr.cells import CellLibrary
from cadinterop.pnr.dialects import (
    ALL_TOOLS,
    PnRDialect,
    TOOL_P,
    TOOL_Q,
    TOOL_R,
    feature_matrix,
    universally_supported,
)
from cadinterop.pnr.formats import def_like, lef_like, pdef_like
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


class TestDialects:
    def test_three_distinct_tools(self):
        assert len({t.name for t in ALL_TOOLS}) == 3
        modes = {t.pin_access_mode for t in ALL_TOOLS}
        assert modes == {"property", "derived"}
        conn = {t.connection_type_mode for t in ALL_TOOLS}
        assert conn == {"inline", "external-file", "unsupported"}

    def test_feature_matrix_shape(self):
        matrix = feature_matrix()
        assert "netrule:shield" in matrix
        assert matrix["netrule:shield"] == {"toolP": True, "toolQ": False, "toolR": False}

    def test_minimal_consistency_over_all_tools(self):
        """Paper: '(While there are groups of tools that support some
        commonality, there is minimal consistency over all tools)'."""
        universal = universally_supported()
        matrix = feature_matrix()
        assert len(universal) < len(matrix) / 2

    def test_bad_dialect_rejected(self):
        with pytest.raises(ValueError):
            PnRDialect("x", "psychic", "inline", frozenset(), frozenset(), frozenset())


class TestConvey:
    def test_toolP_conveys_everything(self, library):
        log = IssueLog()
        payload = convey(build_floorplan(), library, TOOL_P, log)
        assert payload.dropped == []
        assert payload.honored_rule_features == {"width", "spacing", "shield"}
        assert payload.external_connection_file is None
        # inline connection props delivered
        assert ("nand2", "Y") in payload.connection_properties

    def test_toolQ_derivation_mismatch_logged(self, library):
        log = IssueLog()
        convey(build_floorplan(), library, TOOL_Q, log)
        mismatches = [i for i in log if "derives access" in i.message]
        assert mismatches, "expected derived-vs-property access warnings"

    def test_toolQ_external_file(self, library):
        payload = convey(build_floorplan(), library, TOOL_Q)
        assert payload.external_connection_file is not None
        assert "dff CK must-connect" in payload.external_connection_file

    def test_toolR_drops_connection_props(self, library):
        log = IssueLog()
        payload = convey(build_floorplan(), library, TOOL_R, log)
        assert any(d.startswith("connection:") for d in payload.dropped)
        assert log.has_errors()

    def test_net_rule_degradation(self, library):
        payload_q = convey(build_floorplan(), library, TOOL_Q)
        rule = payload_q.net_rules["crit"]
        assert rule.width_tracks == 2  # width survives
        assert rule.spacing_tracks == 1 and not rule.shield  # dropped
        payload_r = convey(build_floorplan(), library, TOOL_R)
        rule_r = payload_r.net_rules["crit"]
        assert rule_r.width_tracks == 1 and not rule_r.shield

    def test_floorplan_feature_drops_logged(self, library):
        log = IssueLog()
        payload = convey(build_floorplan(), library, TOOL_Q, log)
        # toolQ has no literal-pin-location and no clock-spine.
        dropped_kinds = {d.split(":")[1] for d in payload.dropped if d.startswith("floorplan:")}
        assert "literal-pin-location" in dropped_kinds
        assert "clock-spine" in dropped_kinds

    def test_each_dropped_intent_is_logged_and_traced(self, library):
        from cadinterop.obs import LineageRecorder, ObsContext, installed

        log = IssueLog()
        with installed(ObsContext(lineage=LineageRecorder())) as context:
            payload = convey(build_floorplan(), library, TOOL_R, log)
        assert payload.dropped
        dropped = [r for r in context.lineage.records() if r["verb"] == "dropped"]
        assert sorted(r["object_id"] for r in dropped) == sorted(payload.dropped)
        assert all(r["stage"] == "pnr:convey" for r in dropped)
        assert len(log) >= len(payload.dropped)

    def test_coverage_differs_per_tool(self, library):
        drops = {
            tool.name: len(convey(build_floorplan(), library, tool).dropped)
            for tool in ALL_TOOLS
        }
        assert drops["toolP"] < drops["toolQ"] <= drops["toolR"]


class TestRunFlow:
    def test_flow_results_reflect_dialect_gaps(self, tech, library):
        fp = build_floorplan()
        design, pads = generate_design(library, cells=12)
        results = {
            tool.name: run_flow(tech, fp, library, design, tool, pad_positions=pads)
            for tool in ALL_TOOLS
        }
        for result in results.values():
            assert result.routing.failed == []
        assert results["toolP"].routing.shield_nodes > 0
        assert results["toolQ"].routing.shield_nodes == 0

    def test_bus_scenario_coupling_cost(self, tech):
        fp, design, pads = build_bus_scenario()
        couplings = {}
        for tool in ALL_TOOLS:
            result = run_flow(tech, fp, CellLibrary("none"), design, tool, pad_positions=pads)
            couplings[tool.name] = result.parasitics.coupling_of("crit")
        assert couplings["toolP"] < couplings["toolQ"] < couplings["toolR"]


class TestLefLike:
    def test_roundtrip(self, library):
        text = lef_like.dump_library(library)
        loaded = lef_like.load_library(text)
        assert len(loaded) == len(library)
        nand = loaded.cell("nand2")
        original = library.cell("nand2")
        assert nand.pin("A").props.equivalent_group == "inputs"
        assert nand.pin("Y").props.multiple_connect
        assert nand.pin("A").props.access == original.pin("A").props.access
        dff = loaded.cell("dff")
        assert dff.pin("D").props.access is None  # stays derivable
        assert len(dff.blockages) == 1
        filler = loaded.cell("filler")
        assert filler.pin("VDD").props.connect_by_abutment
        assert filler.pin("VDD").use == "power"

    def test_bad_header(self):
        with pytest.raises(lef_like.LefFormatError):
            lef_like.load_library("CELL x 1 1 core stdcell\n")

    def test_unterminated_cell(self, library):
        text = lef_like.dump_library(library).replace("ENDCELL", "", 1)
        with pytest.raises(lef_like.LefFormatError):
            lef_like.load_library(text)


class TestDefLike:
    def test_roundtrip(self, tech, library):
        from cadinterop.pnr.placement import RowPlacer

        fp = build_floorplan()
        design, pads = generate_design(library, cells=8)
        RowPlacer(tech, fp, seed=3).place(design, pads)
        text = def_like.dump_design(design, fp.die)
        loaded, die = def_like.load_design(text, library)
        assert die == fp.die
        assert set(loaded.instances) == set(design.instances)
        assert loaded.nets == design.nets
        for name, instance in design.instances.items():
            assert loaded.instance(name).location == instance.location
            assert loaded.instance(name).orientation == instance.orientation

    def test_unplaced_instances(self, library):
        design, _pads = generate_design(library, cells=4)
        text = def_like.dump_design(design, Rect(0, 0, 10, 10))
        loaded, _die = def_like.load_design(text, library)
        assert not loaded.instance("u0").placed

    def test_missing_die(self, library):
        with pytest.raises(def_like.DefFormatError):
            def_like.load_design("DESIGN d\nEND DESIGN\n", library)


class TestPdefLike:
    def test_roundtrip(self):
        constraints = pdef_like.PlacementConstraints("top")
        constraints.add_cluster("fast", ["u1", "u2"])
        constraints.net_weights["crit"] = 5.0
        loaded = pdef_like.load(pdef_like.dump(constraints))
        assert loaded.design == "top"
        assert loaded.clusters == {"fast": ["u1", "u2"]}
        assert loaded.weight("crit") == 5.0
        assert loaded.weight("other") == 1.0

    def test_scope_is_placement_only(self):
        """PDEF-like cannot carry net rules or keepouts — by design."""
        constraints = pdef_like.PlacementConstraints("top")
        assert not hasattr(constraints, "net_rules")
        assert not hasattr(constraints, "keepouts")

    def test_duplicate_cluster(self):
        constraints = pdef_like.PlacementConstraints("top")
        constraints.add_cluster("a", [])
        with pytest.raises(ValueError):
            constraints.add_cluster("a", [])

    def test_bad_text(self):
        with pytest.raises(pdef_like.PdefFormatError):
            pdef_like.load("CLUSTER x\nEND\n")
