"""Boundary instrumentation: lineage parity with each pipeline's IssueLog.

The acceptance contract for the audit trail: lineage is not a second,
independent opinion about what was lost — every ``approximated`` /
``dropped`` record corresponds one-to-one with the diagnostic the pipeline
already logs, and every record links to a span in the same trace.
"""

from contextlib import contextmanager

import pytest

from cadinterop.common.diagnostics import Category, IssueLog, Severity
from cadinterop.hdl.cosim import BridgeSignal, CoSimulation
from cadinterop.hdl.parser import parse_module
from cadinterop.hdl.synth import synthesize
from cadinterop.obs import (
    NULL_TRACER,
    LineageRecorder,
    ObsContext,
    Tracer,
    installed,
)
from cadinterop.pnr.backplane import convey
from cadinterop.pnr.dialects import TOOL_P, TOOL_R
from cadinterop.pnr.samples import build_cell_library, build_floorplan
from cadinterop.rtl2gds import gate_netlist_to_pnr, strip_testbench
from cadinterop.schematic.migrate import Migrator
from cadinterop.schematic.samples import (
    build_sample_plan,
    build_vl_libraries,
    generate_chain_schematic,
)
from cadinterop.schematic2pnr import sample_binding_table, schematic_to_pnr
from cadinterop.workflow import FlowTemplate, PythonAction, StepDef, WorkflowEngine


@pytest.fixture(scope="module")
def vl_libs():
    return build_vl_libraries()


def by_verb(records, verb):
    return [r for r in records if r["verb"] == verb]


@contextmanager
def recording(tracer=NULL_TRACER):
    """Record lineage (and spans, given a tracer) for one block."""
    with installed(ObsContext(tracer, lineage=LineageRecorder())) as context:
        yield context.lineage


class TestMigrateBoundary:
    def migrate(self, vl_libs, offgrid_labels=0, tracer=NULL_TRACER):
        cell = generate_chain_schematic(
            vl_libs, pages=2, chains_per_page=2, stages=3,
            offgrid_labels=offgrid_labels,
        )
        plan = build_sample_plan(source_libraries=vl_libs)
        with recording(tracer) as recorder:
            result = Migrator(plan).migrate(cell)
        return result, recorder.records()

    def test_snap_parity_with_issue_log(self, vl_libs):
        result, records = self.migrate(vl_libs, offgrid_labels=2)
        snaps = by_verb(records, "approximated")
        warnings = [
            issue for issue in result.log
            if issue.category is Category.SCALING
            and issue.severity is Severity.WARNING
        ]
        assert len(snaps) == len(warnings) == 2
        assert all(r["stage"] == "scaling" for r in snaps)
        assert all("snapped" in r["detail"] for r in snaps)

    def test_on_grid_corpus_has_no_loss(self, vl_libs):
        _result, records = self.migrate(vl_libs)
        assert not by_verb(records, "approximated")
        assert not by_verb(records, "dropped")

    def test_stage_coverage_and_attribution(self, vl_libs):
        result, records = self.migrate(vl_libs)
        stages = {r["stage"] for r in records}
        assert {"replacement", "bus-syntax", "connectors"} <= stages
        # Symbol mapping: every replaced instance is a transform.
        swaps = [r for r in records if r["stage"] == "replacement"]
        assert len(swaps) == result.replacements.replacements
        assert all(r["verb"] == "transformed" for r in swaps)
        # Cross-page net resolution: connectors exist only in the target.
        connectors = [r for r in records if r["stage"] == "connectors"]
        assert connectors
        assert all(r["verb"] == "synthesized" for r in connectors)
        assert len(connectors) == (
            result.connectors.offpage_added + result.connectors.hierarchy_added
        )
        # Ambient context stamped everything without signature changes.
        assert all(r["design"] == result.schematic.name for r in records)
        assert all(r["dialect"] and "->" in r["dialect"] for r in records)

    def test_every_record_links_to_a_traced_span(self, vl_libs):
        tracer = Tracer()
        _result, records = self.migrate(vl_libs, offgrid_labels=1, tracer=tracer)
        span_ids = {span["span_id"] for span in tracer.spans()}
        assert records
        assert all(r["span_id"] in span_ids for r in records)


class TestBackplaneBoundary:
    def test_dropped_records_match_feature_gap_issues(self):
        log = IssueLog()
        with recording() as recorder:
            payload = convey(build_floorplan(), build_cell_library(), TOOL_R, log)
        dropped = by_verb(recorder.records(), "dropped")
        gaps = [i for i in log if i.category is Category.FEATURE_GAP]
        assert payload.dropped  # TOOL_R is the lossy target
        assert len(dropped) == len(payload.dropped) == len(gaps)
        assert all(r["stage"] == "pnr:convey" for r in dropped)
        assert all(r["dialect"] == TOOL_R.name for r in dropped)
        # The accepted intents are on the books too, not just the losses.
        preserved = by_verb(recorder.records(), "preserved")
        assert preserved

    def test_full_support_tool_drops_nothing(self):
        with recording() as recorder:
            payload = convey(build_floorplan(), build_cell_library(), TOOL_P)
        assert payload.dropped == []
        assert not by_verb(recorder.records(), "dropped")
        assert by_verb(recorder.records(), "preserved")

    def test_derived_access_mismatch_is_approximated(self):
        from cadinterop.pnr.dialects import TOOL_Q

        log = IssueLog()
        with recording() as recorder:
            convey(build_floorplan(), build_cell_library(), TOOL_Q, log)
        approximations = by_verb(recorder.records(), "approximated")
        mismatches = [i for i in log if "derives access" in i.message]
        assert len(approximations) == len(mismatches) > 0
        assert all(r["object_kind"] == "pin-access" for r in approximations)


class TestCosimBoundary:
    def producer(self):
        return parse_module(
            """
            module producer ();
              reg raw, en; wire data;
              bufif1 b1 (data, raw, en);
              initial begin
                raw = 1'b1; en = 1'b1;
                #10 en = 1'b0;
              end
            endmodule
            """
        )

    def consumer(self):
        return parse_module(
            """
            module consumer ();
              reg din;
            endmodule
            """
        )

    def run(self, value_mode):
        with recording() as recorder:
            cosim = CoSimulation(
                self.producer(), self.consumer(),
                [BridgeSignal("left", "data", "din")], value_mode=value_mode,
            )
            cosim.run(15)
        return [
            r for r in recorder.records() if r["stage"] == "cosim:exchange"
        ]

    def test_naive_coercion_is_an_approximation(self):
        records = self.run("naive")
        lossy = by_verb(records, "approximated")
        assert lossy, "z forced to 0 must be recorded as a loss"
        assert all(r["object_kind"] == "signal" for r in lossy)
        assert all(r["object_id"] == "data->din" for r in lossy)
        assert any("z" in r["detail"] for r in lossy)

    def test_correct_projection_is_not_a_loss(self):
        records = self.run("correct")
        assert not by_verb(records, "approximated")
        assert not by_verb(records, "dropped")


class TestWorkflowBoundary:
    def test_artifact_facets_per_step(self):
        template = FlowTemplate("t")
        template.add_step(
            StepDef("produce",
                    action=PythonAction(lambda api: (api.set_variable("n", 4), 0)[1]))
        )
        template.add_step(
            StepDef("consume",
                    action=PythonAction(lambda api: api.get_variable("n", 0) - 4),
                    start_after=("produce",))
        )
        engine = WorkflowEngine()
        instance = engine.instantiate(template, block="blockA")
        with recording() as recorder:
            assert engine.run(instance).ok
        records = [
            r for r in recorder.records() if r["stage"].startswith("workflow:")
        ]
        assert [(r["stage"], r["verb"], r["object_id"]) for r in records] == [
            ("workflow:produce", "synthesized", "n"),
            ("workflow:consume", "preserved", "n"),
        ]
        assert all(r["design"] == "blockA" for r in records)

    def test_missing_variable_read_is_not_a_facet(self):
        template = FlowTemplate("t")
        template.add_step(
            StepDef("probe",
                    action=PythonAction(lambda api: api.get_variable("ghost", 0)))
        )
        engine = WorkflowEngine()
        with recording() as recorder:
            engine.run(engine.instantiate(template))
        assert not recorder.records()


class TestHandoffBoundaries:
    def test_schematic2pnr_records_bindings(self, vl_libs):
        cell = generate_chain_schematic(vl_libs, pages=2, chains_per_page=2,
                                        stages=4)
        result = Migrator(build_sample_plan(source_libraries=vl_libs)).migrate(cell)
        with recording() as recorder:
            conversion = schematic_to_pnr(
                result.schematic, sample_binding_table(), build_cell_library()
            )
        assert conversion.ok
        records = recorder.records()
        assert all(r["stage"] == "schematic2pnr" for r in records)
        bound = by_verb(records, "transformed")
        assert len(bound) == len(conversion.design.instances)
        pads = by_verb(records, "synthesized")
        assert len(pads) == len(conversion.port_pads)
        assert all(r["object_kind"] == "pad" for r in pads)
        assert all(r["design"] == result.schematic.name for r in records)

    def test_schematic2pnr_unbound_symbols_are_dropped(self, vl_libs):
        from cadinterop.schematic2pnr import BindingTable

        cell = generate_chain_schematic(vl_libs, pages=1, chains_per_page=1,
                                        stages=2)
        result = Migrator(build_sample_plan(source_libraries=vl_libs)).migrate(cell)
        with recording() as recorder:
            conversion = schematic_to_pnr(
                result.schematic, BindingTable(), build_cell_library()
            )
        assert not conversion.ok
        dropped = by_verb(recorder.records(), "dropped")
        assert len(dropped) == len(conversion.skipped_instances) > 0
        assert all("no layout cell bound" in r["detail"] for r in dropped)

    def test_rtl2gds_records_lowering(self):
        netlist = strip_testbench(
            synthesize(parse_module(
                """
                module tiny (a, b, y);
                  input a, b; output y;
                  reg y, a, b;
                  always @(*) y = a & b;
                  initial begin a = 1'b1; b = 1'b1; end
                endmodule
                """
            )).netlist
        )
        with recording() as recorder:
            conversion = gate_netlist_to_pnr(netlist, build_cell_library())
        assert conversion.ok
        records = [
            r for r in recorder.records() if r["stage"] == "rtl2gds"
        ]
        lowered = by_verb(records, "transformed")
        assert lowered and all("cell(s)" in r["detail"] for r in lowered)
        assert not by_verb(records, "dropped")
        assert all(r["design"] == netlist.name for r in records)
