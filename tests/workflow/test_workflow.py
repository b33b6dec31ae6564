"""Tests for the workflow engine (paper Section 5, every characteristic)."""

import time

import pytest

from cadinterop.workflow import (
    ContentContains,
    DataVariable,
    FileExists,
    FlowTemplate,
    MetricsCollector,
    PersistentTool,
    PythonAction,
    ShellAction,
    StepDef,
    StepState,
    ToolSessionAction,
    ToolSessionError,
    TriggerManager,
    VariableEquals,
    WorkflowEngine,
    WorkflowError,
)


def py(fn):
    return PythonAction(fn)


def ok_action(api):
    return 0


def fail_action(api):
    return 3


class TestTemplate:
    def test_step_needs_action_or_subflow(self):
        with pytest.raises(WorkflowError):
            StepDef("bad")
        with pytest.raises(WorkflowError):
            StepDef("bad", action=py(ok_action), sub_flow=FlowTemplate("x"))

    def test_duplicate_step_rejected(self):
        template = FlowTemplate("t")
        template.add_step(StepDef("a", action=py(ok_action)))
        with pytest.raises(WorkflowError):
            template.add_step(StepDef("a", action=py(ok_action)))

    def test_unknown_dependency_rejected(self):
        template = FlowTemplate("t")
        template.add_step(StepDef("a", action=py(ok_action), start_after=("ghost",)))
        with pytest.raises(WorkflowError):
            template.validate()

    def test_cycle_rejected(self):
        template = FlowTemplate("t")
        template.add_step(StepDef("a", action=py(ok_action), start_after=("b",)))
        template.add_step(StepDef("b", action=py(ok_action), start_after=("a",)))
        with pytest.raises(WorkflowError):
            template.validate()

    def test_topological_order(self):
        template = FlowTemplate("t")
        template.add_step(StepDef("c", action=py(ok_action), start_after=("b",)))
        template.add_step(StepDef("a", action=py(ok_action)))
        template.add_step(StepDef("b", action=py(ok_action), start_after=("a",)))
        order = template.topological_order()
        assert order.index("a") < order.index("b") < order.index("c")


class TestDefaultStatusPolicy:
    def test_zero_is_success_by_default(self):
        template = FlowTemplate("t")
        template.add_step(StepDef("s", action=py(ok_action)))
        engine = WorkflowEngine()
        instance = engine.instantiate(template)
        summary = engine.run(instance)
        assert summary.ok and instance.state_of("s") is StepState.SUCCEEDED

    def test_nonzero_is_failure_by_default(self):
        template = FlowTemplate("t")
        template.add_step(StepDef("s", action=py(fail_action)))
        engine = WorkflowEngine()
        instance = engine.instantiate(template)
        summary = engine.run(instance)
        assert instance.state_of("s") is StepState.FAILED
        assert "s" in summary.failed

    def test_explicit_status_overrides_exit_code(self):
        """A complex integration sets its state through the API."""

        def complex_tool(api):
            api.set_state(StepState.SUCCEEDED, "parsed tool log: 0 errors")
            return 7  # nonzero exit, but the tool says it succeeded

        template = FlowTemplate("t")
        template.add_step(StepDef("s", action=py(complex_tool), explicit_status=True))
        engine = WorkflowEngine()
        instance = engine.instantiate(template)
        engine.run(instance)
        assert instance.state_of("s") is StepState.SUCCEEDED

    def test_explicit_status_step_must_set_state(self):
        template = FlowTemplate("t")
        template.add_step(StepDef("s", action=py(ok_action), explicit_status=True))
        engine = WorkflowEngine()
        instance = engine.instantiate(template)
        engine.run(instance)
        assert instance.state_of("s") is StepState.FAILED

    def test_action_exception_is_failure(self):
        def crash(api):
            raise RuntimeError("tool dumped core")

        template = FlowTemplate("t")
        template.add_step(StepDef("s", action=py(crash)))
        engine = WorkflowEngine()
        instance = engine.instantiate(template)
        engine.run(instance)
        record = instance.record("s")
        assert record.state is StepState.FAILED
        assert "dumped core" in record.message


class TestOpenLanguageEnvironment:
    def test_shell_python_and_tool_actions_coexist(self):
        tool = PersistentTool("simulator")
        tool.register_feature("compile", lambda: 0)
        tool.register_feature("run", lambda cycles: 0 if cycles > 0 else 1)

        template = FlowTemplate("mixed")
        template.add_step(StepDef("shell", action=ShellAction("true")))
        template.add_step(
            StepDef("python", action=py(ok_action), start_after=("shell",))
        )
        template.add_step(
            StepDef("compile", action=ToolSessionAction(tool, "compile"),
                    start_after=("python",))
        )
        template.add_step(
            StepDef("simulate", action=ToolSessionAction(tool, "run", {"cycles": 100}),
                    start_after=("compile",))
        )
        engine = WorkflowEngine()
        instance = engine.instantiate(template)
        summary = engine.run(instance)
        assert summary.ok
        # The tool was invoked once, then reused over its session.
        assert tool.start_count == 1
        assert tool.call_log == ["compile", "run"]

    def test_shell_nonzero_exit(self):
        template = FlowTemplate("t")
        template.add_step(StepDef("s", action=ShellAction("exit 4")))
        engine = WorkflowEngine()
        instance = engine.instantiate(template)
        engine.run(instance)
        assert instance.record("s").exit_code == 4
        assert instance.state_of("s") is StepState.FAILED

    def test_shell_output_captured(self):
        captured = {}

        def check(api):
            return 0

        template = FlowTemplate("t")
        template.add_step(StepDef("s", action=ShellAction("echo hello-flow")))
        engine = WorkflowEngine()
        instance = engine.instantiate(template)
        engine.run(instance)
        assert instance.state_of("s") is StepState.SUCCEEDED


class TestPersistentTool:
    def test_lifecycle_errors(self):
        tool = PersistentTool("x")
        tool.register_feature("f", lambda: 0)
        with pytest.raises(ToolSessionError):
            tool.call("f")
        tool.start()
        with pytest.raises(ToolSessionError):
            tool.start()
        with pytest.raises(ToolSessionError):
            tool.call("ghost")
        tool.stop()
        with pytest.raises(ToolSessionError):
            tool.stop()

    def test_duplicate_feature(self):
        tool = PersistentTool("x")
        tool.register_feature("f", lambda: 0)
        with pytest.raises(ToolSessionError):
            tool.register_feature("f", lambda: 1)


class TestDependencies:
    def test_start_dependency_blocks(self):
        template = FlowTemplate("t")
        template.add_step(StepDef("first", action=py(fail_action)))
        template.add_step(StepDef("second", action=py(ok_action), start_after=("first",)))
        engine = WorkflowEngine()
        instance = engine.instantiate(template)
        summary = engine.run(instance)
        assert instance.state_of("second") is StepState.PENDING
        assert "second" in summary.blocked

    def test_finish_condition_blocks_premature_completion(self, tmp_path):
        """'insure that a task does not complete too soon'."""
        report = tmp_path / "drc.log"

        template = FlowTemplate("t")
        template.add_step(
            StepDef(
                "drc",
                action=py(ok_action),
                finish_conditions=(ContentContains(report, "0 errors"),),
            )
        )
        engine = WorkflowEngine()
        instance = engine.instantiate(template)
        engine.run(instance)
        assert instance.state_of("drc") is StepState.FAILED

        report.write_text("run complete: 0 errors\n")
        engine.reset(instance, "drc")
        engine.run(instance)
        assert instance.state_of("drc") is StepState.SUCCEEDED

    def test_variable_condition(self):
        def sets_var(api):
            api.set_variable("lvs_clean", True)
            return 0

        template = FlowTemplate("t")
        template.add_step(StepDef("lvs", action=py(sets_var)))
        template.add_step(
            StepDef(
                "tapeout",
                action=py(ok_action),
                start_after=("lvs",),
                finish_conditions=(VariableEquals("lvs_clean", True),),
            )
        )
        engine = WorkflowEngine()
        instance = engine.instantiate(template)
        summary = engine.run(instance)
        assert summary.ok

    def test_permissions(self):
        template = FlowTemplate("t")
        template.add_step(
            StepDef("signoff", action=py(ok_action), permissions={"lead"})
        )
        engine = WorkflowEngine()
        instance = engine.instantiate(template)
        summary = engine.run(instance, user="bob", roles={"designer"})
        assert "signoff" in summary.skipped_permission
        summary = engine.run(instance, user="ann", roles={"lead"})
        assert summary.ok

    def test_reset_cascades_downstream(self):
        template = FlowTemplate("t")
        template.add_step(StepDef("a", action=py(ok_action)))
        template.add_step(StepDef("b", action=py(ok_action), start_after=("a",)))
        template.add_step(StepDef("c", action=py(ok_action), start_after=("b",)))
        engine = WorkflowEngine()
        instance = engine.instantiate(template)
        engine.run(instance)
        reset_steps = engine.reset(instance, "a")
        assert set(reset_steps) == {"a", "b", "c"}
        assert instance.state_of("c") is StepState.PENDING


class TestHierarchy:
    def make_block_flow(self):
        sub = FlowTemplate("block-flow")
        sub.add_step(StepDef("synth", action=py(ok_action)))
        sub.add_step(StepDef("verify", action=py(ok_action), start_after=("synth",)))

        top = FlowTemplate("chip")
        top.add_step(StepDef("plan", action=py(ok_action)))
        top.add_step(StepDef("cpu", sub_flow=sub, start_after=("plan",)))
        top.add_step(StepDef("cache", sub_flow=sub, start_after=("plan",)))
        top.add_step(
            StepDef("assemble", action=py(ok_action), start_after=("cpu", "cache"))
        )
        return top

    def test_same_template_per_block_separate_status(self):
        engine = WorkflowEngine()
        instance = engine.instantiate(self.make_block_flow())
        assert instance.children["cpu"].block == "top.cpu"
        assert instance.children["cache"].block == "top.cache"
        summary = engine.run(instance)
        assert summary.ok and instance.all_succeeded()
        # Status is kept separate per block.
        instance.children["cpu"].record("synth").state = StepState.FAILED
        assert instance.children["cache"].state_of("synth") is StepState.SUCCEEDED

    def test_subflow_failure_fails_parent_step(self):
        sub = FlowTemplate("block-flow")
        sub.add_step(StepDef("synth", action=py(fail_action)))
        top = FlowTemplate("chip")
        top.add_step(StepDef("cpu", sub_flow=sub))
        engine = WorkflowEngine()
        instance = engine.instantiate(top)
        engine.run(instance)
        assert instance.state_of("cpu") is StepState.FAILED

    def test_instantiate_for_blocks(self):
        engine = WorkflowEngine()
        instances = engine.instantiate_for_blocks(
            self.make_block_flow(), ["alu", "fpu"]
        )
        assert set(instances) == {"alu", "fpu"}
        assert instances["alu"].block == "alu"


class TestTriggers:
    def test_data_change_marks_downstream_stale(self, tmp_path):
        netlist = tmp_path / "netlist.v"
        netlist.write_text("module a; endmodule")

        template = FlowTemplate("t")
        template.add_step(StepDef("route", action=py(ok_action)))
        engine = WorkflowEngine()
        instance = engine.instantiate(template)
        engine.run(instance)

        triggers = TriggerManager(engine)
        variable = DataVariable("netlist", [netlist])
        triggers.watch(instance, variable, ["route"])

        assert triggers.poll() == []  # nothing changed yet
        netlist.write_text("module a; wire w; endmodule")
        notifications = triggers.poll()
        assert len(notifications) == 1
        assert notifications[0].kind == "data-changed"
        assert instance.state_of("route") is StepState.NEEDS_RERUN

    def test_rerun_stale_reruns_marked_steps(self, tmp_path):
        counter = {"runs": 0}

        def counting(api):
            counter["runs"] += 1
            return 0

        template = FlowTemplate("t")
        template.add_step(StepDef("route", action=py(counting)))
        engine = WorkflowEngine()
        instance = engine.instantiate(template)
        engine.run(instance)
        engine.mark_needs_rerun(instance, "route")
        summary = engine.rerun_stale(instance)
        assert summary.ok and counter["runs"] == 2

    def test_variable_trigger_procedure(self):
        fired = []

        template = FlowTemplate("t")

        def sets(api):
            api.set_variable("drc_errors", 12)
            return 0

        template.add_step(StepDef("drc", action=py(sets)))
        engine = WorkflowEngine()
        triggers = TriggerManager(engine)
        triggers.on_variable("drc_errors", lambda inst, name, value: fired.append(value))
        instance = engine.instantiate(template)
        engine.run(instance)
        assert fired == [12]
        assert any(n.kind == "variable-trigger" for n in triggers.notifications)


class TestMetrics:
    def test_collection_and_tuning(self):
        fake_time = [0.0]

        def clock():
            fake_time[0] += 1.0
            return fake_time[0]

        template = FlowTemplate("t")
        template.add_step(StepDef("fast", action=py(ok_action)))
        template.add_step(StepDef("slow", action=py(ok_action), start_after=("fast",)))
        template.add_step(StepDef("flaky", action=py(fail_action), start_after=("fast",)))
        engine = WorkflowEngine(clock=clock)
        instance = engine.instantiate(template)
        engine.run(instance)

        collector = MetricsCollector()
        collector.collect(instance)
        assert collector.step("fast").runs == 1
        assert collector.most_failure_prone().name == "flaky"
        assert collector.bottleneck() is not None
        report = collector.report()
        assert "flaky" in report and "bottleneck" in report

    def test_publish_exports_into_obs_registry(self):
        from cadinterop.obs import MetricsRegistry

        template = FlowTemplate("t")
        template.add_step(StepDef("build", action=py(ok_action)))
        template.add_step(StepDef("flaky", action=py(fail_action)))
        engine = WorkflowEngine()
        instance = engine.instantiate(template)
        engine.run(instance)

        collector = MetricsCollector()
        collector.collect(instance)
        registry = MetricsRegistry()
        collector.publish(registry)
        snapshot = registry.snapshot()
        assert snapshot["workflow.step.runs[build]"]["value"] == 1
        assert snapshot["workflow.step.failures[flaky]"]["value"] == 1
        assert snapshot["workflow.step.seconds[build]"]["count"] == 1

    def test_engine_counts_steps_when_metrics_enabled(self):
        from cadinterop.obs import MetricsRegistry, ObsContext, installed

        template = FlowTemplate("t")
        template.add_step(StepDef("build", action=py(ok_action)))
        template.add_step(StepDef("flaky", action=py(fail_action)))
        engine = WorkflowEngine()
        instance = engine.instantiate(template)
        registry = MetricsRegistry()
        with installed(ObsContext(metrics=registry)):
            engine.run(instance)
        snapshot = registry.snapshot()
        assert snapshot["workflow.steps.executed"]["value"] == 2
        assert snapshot["workflow.steps.succeeded"]["value"] == 1
        assert snapshot["workflow.steps.failed"]["value"] == 1

    def test_permission_denial_is_recorded(self):
        from cadinterop.obs import MetricsRegistry, ObsContext, installed

        template = FlowTemplate("t")
        template.add_step(
            StepDef("signoff", action=py(ok_action), permissions={"lead"})
        )
        engine = WorkflowEngine()
        instance = engine.instantiate(template)
        registry = MetricsRegistry()
        with installed(ObsContext(metrics=registry)):
            summary = engine.run(instance, user="bob", roles={"designer"})
        assert summary.skipped_permission == ["signoff"]
        assert ("permission-denied", "signoff for user 'bob'") in instance.events
        snapshot = registry.snapshot()
        assert snapshot["workflow.steps.permission_denied"]["value"] == 1
        assert "workflow.steps.executed" not in snapshot

    def test_step_failure_is_recorded(self):
        from cadinterop.obs import MetricsRegistry, ObsContext, Tracer, installed

        template = FlowTemplate("t")
        template.add_step(StepDef("flaky", action=py(fail_action)))
        engine = WorkflowEngine()
        instance = engine.instantiate(template)
        tracer, registry = Tracer(), MetricsRegistry()
        with installed(ObsContext(tracer, metrics=registry)):
            summary = engine.run(instance)
        assert summary.failed == ["flaky"]
        assert ("step", "flaky:failed") in instance.events
        assert registry.snapshot()["workflow.steps.failed"]["value"] == 1
        steps = [s for s in tracer.spans() if s["name"] == "workflow:step"]
        assert [s["attrs"]["step"] for s in steps] == ["flaky"]
        assert steps[0]["attrs"]["state"] == "failed"
