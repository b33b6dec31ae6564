"""End-to-end migration pipeline tests (paper Section 2 complete)."""

import pytest

from cadinterop.common.diagnostics import Category, Severity
from cadinterop.schematic.dialects import COMPOSER_LIKE, VIEWDRAW_LIKE
from cadinterop.obs import MetricsRegistry, ObsContext, Tracer, installed
from cadinterop.schematic.migrate import PIPELINE_STAGES, Migrator, copy_schematic
from cadinterop.schematic.model import Page, SchematicError, Wire
from cadinterop.schematic.netlist import extract
from cadinterop.schematic.samples import (
    build_sample_plan,
    build_sample_schematic,
    build_vl_libraries,
    generate_chain_schematic,
)
from cadinterop.schematic.verify import audit_properties, verify_migration


@pytest.fixture(scope="module")
def vl_libs():
    return build_vl_libraries()


@pytest.fixture()
def sample(vl_libs):
    return build_sample_schematic(vl_libs)


@pytest.fixture()
def result(vl_libs, sample):
    plan = build_sample_plan(source_libraries=vl_libs)
    return Migrator(plan).migrate(sample)


class TestPipeline:
    def test_migration_is_clean(self, result):
        assert result.clean
        assert result.verification.equivalent

    def test_source_not_modified(self, vl_libs, sample):
        before = extract(sample).signature()
        plan = build_sample_plan(source_libraries=vl_libs)
        Migrator(plan).migrate(sample)
        assert extract(sample).signature() == before
        assert sample.dialect == VIEWDRAW_LIKE.name
        assert sample.ports[1].name == "OUT-"

    def test_dialect_switched(self, result):
        assert result.schematic.dialect == COMPOSER_LIKE.name

    def test_all_components_replaced(self, result):
        libraries_used = {
            inst.symbol.library
            for _p, inst in result.schematic.all_instances()
            if inst.symbol.kind == "component"
        }
        assert libraries_used <= {"cd_basic", "cd_analog"}

    def test_bus_translation_applied(self, result):
        assert result.bus_renames["A1"] == "A<1>"
        assert result.bus_renames["OUT-"] == "OUT_n"
        labels = {w.label for _p, w in result.schematic.all_wires() if w.label}
        assert "A<1>" in labels and "OUT_n" in labels and "A1" not in labels

    def test_port_names_translated(self, result):
        assert {p.name for p in result.schematic.ports} == {"A<0>", "OUT_n"}

    def test_property_rules_applied(self, result):
        _page, r1 = result.schematic.find_instance("R1")
        assert r1.properties.get("r") == "10k"
        assert "rval" not in r1.properties
        assert r1.properties.get("migrated_by") == "cadinterop"

    def test_al_callback_split_wl(self, result):
        _page, m1 = result.schematic.find_instance("M1")
        assert m1.properties.get("w") == "2u"
        assert m1.properties.get("l") == "0.5u"
        assert "wl" not in m1.properties

    def test_global_net_renamed(self, result):
        netlist = extract(result.schematic)
        gnd_nets = [n for n in netlist.nets.values() if n.is_global]
        assert any("gnd!" in n.labels for n in gnd_nets)

    def test_offpage_connectors_synthesized(self, result):
        assert result.connectors.offpage_added == 2
        connectors = [
            i for _p, i in result.schematic.all_instances()
            if i.symbol.kind == "offpage_connector"
        ]
        assert {c.properties.get("signal") for c in connectors} == {"OUT_n"}

    def test_hierarchy_connectors_synthesized(self, result):
        assert result.connectors.hierarchy_added == 2

    def test_minimal_ripup_stats(self, result):
        assert result.replacements.replacements == 6
        assert result.replacements.total_ripped > 0
        assert result.replacements.mean_similarity > 0.5

    def test_no_manual_cleanup_needed(self, result):
        """Paper: 'a high degree of automation with no manual post
        translation cleanup' — nothing above WARNING left in the log."""
        assert not result.log.has_errors()

    def test_target_geometry_on_grid(self, result):
        grid = COMPOSER_LIKE.grid
        for _page, wire in result.schematic.all_wires():
            for point in wire.points:
                assert grid.is_on_grid(point)

    def test_property_audit_passes(self, vl_libs, sample, result):
        log = audit_properties(sample, result.schematic, required=["designer"])
        assert not log.has_errors()


class TestNaiveStrategyComparison:
    def test_naive_rips_more_and_breaks_taps(self, vl_libs, sample):
        """The naive full-rip baseline tears up far more segments AND loses
        the resistor's mid-segment tap — independent verification catches
        it, which is the paper's argument for both minimization and
        verification."""
        minimal = Migrator(build_sample_plan(source_libraries=vl_libs)).migrate(sample)
        naive = Migrator(
            build_sample_plan(source_libraries=vl_libs, strategy="naive")
        ).migrate(sample)
        assert naive.replacements.total_ripped > minimal.replacements.total_ripped
        assert naive.replacements.mean_similarity < minimal.replacements.mean_similarity
        assert minimal.verification.equivalent
        assert not naive.verification.equivalent
        assert "N1" in naive.verification.split_nets

    def test_naive_verifies_on_tapless_corpus(self, vl_libs):
        """Without mid-segment taps the naive baseline is merely ugly, not
        wrong: connectivity still verifies."""
        cell = generate_chain_schematic(vl_libs, pages=2, chains_per_page=2, stages=3)
        naive = Migrator(
            build_sample_plan(source_libraries=vl_libs, strategy="naive")
        ).migrate(cell)
        assert naive.verification.equivalent


class TestVerificationCatchesFaults:
    def test_broken_wire_detected(self, vl_libs, sample):
        plan = build_sample_plan(source_libraries=vl_libs, verify=False)
        result = Migrator(plan).migrate(sample)
        # Injected fault: pull the N1 wire off U2's input pin so the
        # three-terminal net splits.
        target = result.schematic
        page = target.pages[0]
        wire = next(w for w in page.wires if w.label == "N1")
        wire.points[-1] = wire.points[-1].translated(0, 5)
        verification = verify_migration(sample, target, plan.symbol_map, plan.global_map)
        assert not verification.equivalent
        assert verification.missing_terminals or verification.split_nets

    def test_short_detected(self, vl_libs, sample):
        plan = build_sample_plan(source_libraries=vl_libs, verify=False)
        result = Migrator(plan).migrate(sample)
        page = result.schematic.pages[0]
        # Injected fault: a strap shorting A<0> (y=130) to A<1> (y=110).
        page.add_wire(Wire([__import__('cadinterop.common.geometry', fromlist=['Point']).Point(80, 110),
                            __import__('cadinterop.common.geometry', fromlist=['Point']).Point(80, 130)]))
        verification = verify_migration(
            sample, result.schematic, plan.symbol_map, plan.global_map
        )
        assert not verification.equivalent
        assert verification.merged_nets or verification.extra_terminals

    def test_dropped_instance_detected(self, vl_libs, sample):
        plan = build_sample_plan(source_libraries=vl_libs, verify=False)
        result = Migrator(plan).migrate(sample)
        result.schematic.pages[1].remove_instance("M1")
        verification = verify_migration(
            sample, result.schematic, plan.symbol_map, plan.global_map
        )
        assert not verification.equivalent

    def test_property_audit_catches_changed_value(self, vl_libs, sample):
        plan = build_sample_plan(source_libraries=vl_libs)
        result = Migrator(plan).migrate(sample)
        _page, r1 = result.schematic.find_instance("R1")
        r1.properties.set("designer", "someone-else")
        sample_with = copy_schematic(sample)
        _sp, sr1 = sample_with.find_instance("R1")
        sr1.properties.set("designer", "exar-demo")
        log = audit_properties(sample_with, result.schematic, required=["designer"])
        assert log.has_errors()


class TestChainCorpus:
    @pytest.mark.parametrize("pages,chains,stages", [(2, 2, 3), (3, 4, 5)])
    def test_chain_migrations_verify(self, vl_libs, pages, chains, stages):
        cell = generate_chain_schematic(
            vl_libs, pages=pages, chains_per_page=chains, stages=stages
        )
        plan = build_sample_plan(source_libraries=vl_libs)
        result = Migrator(plan).migrate(cell)
        assert result.verification.equivalent, result.verification.summary()
        assert result.clean

    def test_chain_offpage_count(self, vl_libs):
        cell = generate_chain_schematic(vl_libs, pages=3, chains_per_page=2, stages=3)
        plan = build_sample_plan(source_libraries=vl_libs)
        result = Migrator(plan).migrate(cell)
        # Each of the 2 rows crosses 2 page boundaries; each boundary net
        # appears on 2 pages -> 2 connectors per boundary net.
        assert result.connectors.offpage_added == 2 * 2 * 2


def observed_migration(plan, schematic):
    """Migrate under a fresh tracing, counting context: (result, spans, metrics)."""
    context = ObsContext(Tracer(), MetricsRegistry())
    with installed(context):
        result = Migrator(plan).migrate(schematic)
    return result, context.tracer.spans(), context.metrics.snapshot()


def stage_spans(spans):
    """Stage name -> span, for the migrate:<stage> spans, in start order."""
    return {
        span["name"][len("migrate:"):]: span
        for span in spans
        if span["name"].startswith("migrate:")
    }


class TestStageInstrumentation:
    def test_stage_spans_cover_the_pipeline(self, vl_libs, sample):
        plan = build_sample_plan(source_libraries=vl_libs)
        _result, spans, _metrics = observed_migration(plan, sample)
        stages = stage_spans(spans)
        assert list(stages) == list(PIPELINE_STAGES)
        assert all(span["seconds"] >= 0 for span in stages.values())
        assert stages["replacement"]["attrs"]["items"] > 0
        assert stages["verification"]["attrs"]["items"] > 0  # source nets compared

    def test_verification_stage_absent_when_disabled(self, vl_libs, sample):
        plan = build_sample_plan(source_libraries=vl_libs, verify=False)
        _result, spans, metrics = observed_migration(plan, sample)
        assert list(stage_spans(spans)) == list(PIPELINE_STAGES[:-1])
        assert "stage.seconds[verification]" not in metrics

    def test_stage_metrics_match_the_spans(self, vl_libs, sample):
        plan = build_sample_plan(source_libraries=vl_libs)
        _result, spans, metrics = observed_migration(plan, sample)
        stages = stage_spans(spans)
        assert len(stages) == len(PIPELINE_STAGES)
        for stage, span in stages.items():
            assert metrics[f"stage.seconds[{stage}]"]["count"] == 1
            items = metrics.get(f"stage.items[{stage}]", {"value": 0})["value"]
            assert items == span["attrs"]["items"]

    def test_verification_spans_nest_under_the_stage(self, vl_libs, sample):
        plan = build_sample_plan(source_libraries=vl_libs)
        _result, spans, _metrics = observed_migration(plan, sample)
        stage = stage_spans(spans)["verification"]
        children = [span["name"] for span in spans if span["parent_id"] == stage["span_id"]]
        assert children == [
            "verify:extract-source", "verify:extract-target", "verify:compare"
        ]


class TestCopySchematic:
    def test_copy_keeps_instances_in_order(self, sample):
        clone = copy_schematic(sample)
        for page, copied in zip(sample.pages, clone.pages):
            assert [i.name for i in copied.instances] == [i.name for i in page.instances]
            assert all(a is not b for a, b in zip(page.instances, copied.instances))

    def test_duplicate_name_raises_the_add_instance_error(self, sample):
        page = sample.pages[0]
        first = page.instances[0]
        with pytest.raises(SchematicError) as added:
            page.add_instance(first)
        # A page that holds a duplicate anyway fails its copy the same way.
        page.instances.append(first)
        with pytest.raises(SchematicError) as copied:
            copy_schematic(sample)
        assert str(copied.value) == str(added.value)
        assert str(added.value) == f"duplicate instance {first.name!r} on page {page.number}"

    def test_add_instances_checks_names_already_on_the_page(self, sample):
        page = sample.pages[0]
        before = list(page.instances)
        with pytest.raises(SchematicError, match="duplicate instance"):
            page.add_instances([before[-1]])
        assert page.instances == before

    def test_copy_does_not_scan_the_page_per_instance(self, vl_libs, monkeypatch):
        # add_instance scans the page, which made a copy quadratic per page.
        cell = generate_chain_schematic(vl_libs, pages=1, chains_per_page=12, stages=5)

        def scanning_add(page, instance):
            raise AssertionError("copy_schematic called Page.add_instance")

        monkeypatch.setattr(Page, "add_instance", scanning_add)
        clone = copy_schematic(cell)
        assert len(clone.pages[0].instances) == len(cell.pages[0].instances) >= 60
