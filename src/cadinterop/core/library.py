"""The cell-based methodology library: ~200 tasks, scenarios, tool catalog.

Section 6: "In our experience, we found that it takes approximately 200
tasks to describe a cell based design methodology that spans from product
specification to final mask tapeout."

:func:`cell_based_methodology` builds exactly that: a task graph from
product specification to mask tapeout, organized in sixteen phases, with
normalized information items and deliberate iteration loops (timing
feedback into synthesis, verification feedback into RTL).

:func:`standard_tool_catalog` models the tools built elsewhere in this
library (schematic editors and migrator, simulators, synthesizers, P&R
tools and backplane, workflow manager) as Section 6 tool models, so the
analysis pipeline exercises the very substrates whose behaviors the other
packages implement.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from cadinterop.core.scenarios import DrivingFunctions, Scenario, UserProfile
from cadinterop.core.tasks import TaskGraph, task
from cadinterop.core.toolmodel import (
    ControlInterface,
    DataPort,
    ToolCatalog,
    ToolModel,
)

# ---------------------------------------------------------------------------
# The ~200-task methodology (specification -> tapeout)
# ---------------------------------------------------------------------------

#: (name, description, inputs, outputs, kind) per phase.  Kind defaults to
#: "creation"; a leading "?" marks analysis, "!" marks validation.
_PHASES: Dict[str, List[Tuple[str, str, Sequence[str], Sequence[str]]]] = {
    "specification": [
        ("gather-market-reqs", "collect market requirements", [], ["market-reqs"]),
        ("write-product-spec", "author the product specification", ["market-reqs"], ["product-spec"]),
        ("define-feature-list", "enumerate features", ["product-spec"], ["feature-list"]),
        ("set-cost-target", "set unit cost target", ["product-spec"], ["cost-target"]),
        ("set-performance-target", "set speed/power targets", ["product-spec"], ["performance-target"]),
        ("select-process", "choose fab process", ["cost-target", "performance-target"], ["process-choice"]),
        ("select-package", "choose package", ["cost-target", "pin-budget"], ["package-choice"]),
        ("estimate-die-size", "early die size estimate", ["feature-list", "process-choice"], ["die-estimate"]),
        ("estimate-pin-count", "early pin budget", ["feature-list"], ["pin-budget"]),
        ("?review-spec", "cross-functional spec review", ["product-spec", "feature-list"], ["spec-review-notes"]),
        ("!signoff-spec", "management sign-off of the spec", ["product-spec", "spec-review-notes"], ["spec-signoff"]),
        ("plan-schedule", "build the project schedule", ["spec-signoff"], ["project-schedule"]),
    ],
    "architecture": [
        ("partition-system", "partition into chips/blocks", ["product-spec", "spec-signoff"], ["block-partition"]),
        ("define-block-interfaces", "pin/protocol per block", ["block-partition"], ["block-interfaces"]),
        ("write-arch-spec", "architecture specification", ["block-partition", "block-interfaces"], ["arch-spec"]),
        ("model-performance", "architectural performance model", ["arch-spec", "performance-target"], ["perf-model"]),
        ("?analyze-bandwidth", "bus bandwidth analysis", ["perf-model"], ["bandwidth-report"]),
        ("define-clocking", "clock domains and frequencies", ["arch-spec"], ["clock-plan"]),
        ("define-power-domains", "power architecture", ["arch-spec"], ["power-plan"]),
        ("define-test-strategy", "DFT strategy choice", ["arch-spec"], ["test-strategy"]),
        ("define-memory-map", "address map", ["arch-spec"], ["memory-map"]),
        ("choose-ip-blocks", "make/buy per block", ["block-partition", "cost-target"], ["ip-choices"]),
        ("define-bus-conventions", "bus naming/width conventions", ["arch-spec"], ["bus-conventions"]),
        ("define-naming-conventions", "project naming rules", ["arch-spec"], ["naming-conventions"]),
        ("?review-architecture", "architecture review", ["arch-spec", "perf-model"], ["arch-review-notes"]),
        ("!signoff-architecture", "architecture sign-off", ["arch-spec", "arch-review-notes"], ["arch-signoff"]),
    ],
    "schematic": [
        ("build-symbol-library", "draw/qualify schematic symbols", ["naming-conventions"], ["symbol-library"]),
        ("capture-analog-schematic", "draw analog schematics", ["arch-spec", "symbol-library"], ["analog-schematic"]),
        ("capture-io-schematic", "draw pad ring schematics", ["block-interfaces", "symbol-library"], ["io-schematic"]),
        ("capture-top-schematic", "draw top-level schematic", ["block-partition", "symbol-library"], ["top-schematic"]),
        ("annotate-properties", "attach simulation properties", ["analog-schematic"], ["annotated-schematic"]),
        ("?check-schematic-rules", "schematic rule check", ["top-schematic"], ["schematic-check-report"]),
        ("extract-schematic-netlist", "netlist from schematics", ["top-schematic", "annotated-schematic"], ["schematic-netlist"]),
        ("migrate-legacy-schematics", "translate legacy vendor schematics", ["legacy-schematics", "symbol-library"], ["top-schematic"]),
        ("!verify-schematic-migration", "independent migration verification", ["legacy-schematics", "top-schematic"], ["migration-report"]),
        ("crossprobe-setup", "enable back-end crossprobing", ["top-schematic"], ["crossprobe-map"]),
        ("document-schematics", "schematic documentation pages", ["top-schematic"], ["schematic-docs"]),
        ("archive-schematics", "check schematics into DM", ["top-schematic"], ["schematic-archive"]),
    ],
    "rtl": [
        ("write-rtl-blockA", "RTL for datapath block", ["arch-spec", "naming-conventions"], ["rtl-blockA"]),
        ("write-rtl-blockB", "RTL for control block", ["arch-spec", "naming-conventions"], ["rtl-blockB"]),
        ("write-rtl-blockC", "RTL for interface block", ["block-interfaces", "naming-conventions"], ["rtl-blockC"]),
        ("integrate-rtl-top", "assemble top-level RTL", ["rtl-blockA", "rtl-blockB", "rtl-blockC"], ["rtl-top"]),
        ("write-behavioral-models", "behavioral models of IP", ["ip-choices"], ["behavioral-models"]),
        ("wrap-legacy-models", "wrap legacy HDL models", ["legacy-models"], ["behavioral-models"]),
        ("?lint-rtl", "RTL lint/naming check", ["rtl-top", "naming-conventions"], ["lint-report"]),
        ("?check-synthesizable-subset", "portability to all synthesis tools", ["rtl-top"], ["subset-report"]),
        ("?check-sensitivity-lists", "sensitivity list completeness", ["rtl-top"], ["sensitivity-report"]),
        ("fix-rtl-issues", "rework RTL from reports", ["lint-report", "sensitivity-report", "regression-report"], ["rtl-top"]),
        ("define-rtl-coding-rules", "RTL style guide", ["naming-conventions"], ["rtl-coding-rules"]),
        ("translate-rtl-language", "translate models between HDLs", ["rtl-top"], ["rtl-top-vhdl"]),
        ("?audit-translation-scripts", "script impact of renames", ["rtl-top-vhdl"], ["script-impact-report"]),
        ("parameterize-rtl", "make blocks reusable", ["rtl-blockA"], ["rtl-params"]),
        ("document-rtl", "RTL documentation", ["rtl-top"], ["rtl-docs"]),
        ("archive-rtl", "check RTL into DM", ["rtl-top"], ["rtl-archive"]),
        ("freeze-rtl", "declare RTL frozen", ["rtl-top", "regression-report"], ["rtl-freeze"]),
        ("estimate-gate-count", "gate count from RTL", ["rtl-top"], ["gate-estimate"]),
    ],
    "verification": [
        ("write-test-plan", "verification plan", ["arch-spec", "feature-list"], ["test-plan"]),
        ("build-testbench", "top-level testbench", ["test-plan", "rtl-top"], ["testbench"]),
        ("write-directed-tests", "directed test cases", ["test-plan"], ["directed-tests"]),
        ("write-random-tests", "pseudo-random generators", ["test-plan"], ["random-tests"]),
        ("build-reference-model", "golden reference model", ["arch-spec"], ["reference-model"]),
        ("run-unit-sims", "unit-level simulation", ["rtl-blockA", "testbench"], ["unit-sim-results"]),
        ("run-top-sims", "full-chip simulation", ["rtl-top", "testbench", "directed-tests"], ["top-sim-results"]),
        ("run-random-regression", "random regression", ["rtl-top", "random-tests"], ["regression-report"]),
        ("run-gate-sims", "gate-level simulation", ["gate-netlist", "testbench"], ["gate-sim-results"]),
        ("run-cosimulation", "mixed-language co-simulation", ["rtl-top", "behavioral-models"], ["cosim-results"]),
        ("?detect-races", "ensemble race detection", ["rtl-top"], ["race-report"]),
        ("?compare-simulators", "cross-simulator comparison", ["top-sim-results"], ["sim-compare-report"]),
        ("?measure-coverage", "coverage collection", ["top-sim-results", "random-tests"], ["coverage-report"]),
        ("close-coverage-holes", "add tests for holes", ["coverage-report"], ["directed-tests"]),
        ("debug-failures", "debug failing tests", ["top-sim-results"], ["bug-reports"]),
        ("fix-testbench-issues", "rework the bench", ["bug-reports"], ["testbench"]),
        ("run-timing-sims", "back-annotated timing simulation", ["gate-netlist", "sdf-delays", "testbench"], ["timing-sim-results"]),
        ("?check-timing-compat", "simulator version timing drift", ["timing-sim-results"], ["timing-compat-report"]),
        ("write-assertions", "embedded checkers", ["test-plan"], ["assertions"]),
        ("run-emulation", "hardware emulation runs", ["gate-netlist", "emulator-setup"], ["emulation-results"]),
        ("setup-emulator", "install/cable the emulator", ["test-strategy"], ["emulator-setup"]),
        ("!verify-against-reference", "compare against golden model", ["top-sim-results", "reference-model"], ["verification-signoff"]),
        ("!final-regression", "full regression before freeze", ["rtl-top", "directed-tests", "random-tests"], ["regression-report"]),
        ("archive-verification", "archive the bench and results", ["testbench", "regression-report"], ["verification-archive"]),
    ],
    "synthesis": [
        ("write-synthesis-constraints", "clocks/delays constraints", ["clock-plan", "performance-target"], ["synthesis-constraints"]),
        ("migrate-constraints", "port constraints between tools", ["synthesis-constraints"], ["synthesis-constraints-alt"]),
        ("select-target-library", "pick the cell library", ["process-choice"], ["target-library"]),
        ("synthesize-blockA", "synthesize datapath", ["rtl-blockA", "synthesis-constraints", "target-library"], ["gates-blockA"]),
        ("synthesize-blockB", "synthesize control", ["rtl-blockB", "synthesis-constraints", "target-library"], ["gates-blockB"]),
        ("synthesize-blockC", "synthesize interface", ["rtl-blockC", "synthesis-constraints-alt", "target-library"], ["gates-blockC"]),
        ("assemble-gate-netlist", "stitch block netlists", ["gates-blockA", "gates-blockB", "gates-blockC"], ["gate-netlist"]),
        ("?check-latch-inference", "latch inference audit", ["gates-blockB"], ["latch-report"]),
        ("?analyze-synth-timing", "pre-layout static timing", ["gate-netlist", "synthesis-constraints"], ["synth-timing-report"]),
        ("optimize-critical-paths", "re-synthesize hot paths", ["synth-timing-report", "rtl-blockA"], ["gates-blockA"]),
        ("?compare-rtl-gate", "RTL vs gates equivalence", ["rtl-top", "gate-netlist"], ["equivalence-report"]),
        ("set-dont-touch", "protect qualified cells", ["target-library"], ["dont-touch-list"]),
        ("generate-synthesis-reports", "area/power reports", ["gate-netlist"], ["synthesis-reports"]),
        ("?review-synthesis", "synthesis QOR review", ["synthesis-reports"], ["synthesis-review-notes"]),
        ("archive-netlist", "check netlist into DM", ["gate-netlist"], ["netlist-archive"]),
        ("!signoff-netlist", "netlist release", ["equivalence-report", "synthesis-review-notes"], ["netlist-signoff"]),
    ],
    "dft": [
        ("insert-scan", "scan chain insertion", ["gate-netlist", "test-strategy"], ["scan-netlist"]),
        ("insert-bist", "memory BIST insertion", ["scan-netlist", "memory-map"], ["bist-netlist"]),
        ("generate-atpg", "ATPG pattern generation", ["scan-netlist"], ["test-patterns"]),
        ("?measure-fault-coverage", "fault coverage analysis", ["test-patterns"], ["fault-coverage-report"]),
        ("add-jtag", "boundary scan/JTAG", ["bist-netlist", "package-choice"], ["jtag-netlist"]),
        ("write-test-protocols", "tester protocol files", ["test-patterns"], ["tester-protocols"]),
        ("?verify-scan-chains", "scan chain simulation", ["scan-netlist"], ["scan-verify-report"]),
        ("plan-burn-in", "burn-in test plan", ["test-strategy"], ["burn-in-plan"]),
        ("!signoff-dft", "DFT sign-off", ["fault-coverage-report", "scan-verify-report"], ["dft-signoff"]),
        ("archive-test-data", "archive patterns/protocols", ["test-patterns", "tester-protocols"], ["test-archive"]),
    ],
    "floorplanning": [
        ("create-floorplan", "initial floorplan", ["die-estimate", "block-partition", "jtag-netlist"], ["floorplan"]),
        ("place-macros", "place RAMs/macros", ["floorplan", "ip-choices"], ["macro-placement"]),
        ("plan-power-grid", "power ring/trunk plan", ["floorplan", "power-plan"], ["power-grid-plan"]),
        ("plan-clock-distribution", "clock spine/tree plan", ["floorplan", "clock-plan"], ["clock-distribution-plan"]),
        ("define-pin-locations", "die pin placement", ["floorplan", "package-choice"], ["pin-placement"]),
        ("define-keepouts", "keep-out zones", ["macro-placement"], ["keepout-map"]),
        ("write-net-rules", "critical net width/spacing/shield", ["clock-plan", "performance-target"], ["net-topology-rules"]),
        ("?estimate-routability", "congestion estimate", ["floorplan", "gate-estimate"], ["congestion-report"]),
        ("refine-block-aspects", "re-shape blocks", ["congestion-report", "floorplan"], ["floorplan"]),
        ("convey-constraints", "export constraints to P&R tools", ["floorplan", "net-topology-rules", "pin-placement"], ["pnr-constraints"]),
        ("?audit-constraint-loss", "what each P&R tool dropped", ["pnr-constraints"], ["constraint-loss-report"]),
        ("!signoff-floorplan", "floorplan review", ["floorplan", "congestion-report"], ["floorplan-signoff"]),
    ],
    "placement": [
        ("prepare-placement-libraries", "abstracts for the placer", ["target-library"], ["cell-abstracts"]),
        ("run-global-placement", "global placement", ["jtag-netlist", "pnr-constraints", "cell-abstracts"], ["global-placement"]),
        ("legalize-placement", "row legalization", ["global-placement"], ["legal-placement"]),
        ("place-spares", "spare cell insertion", ["legal-placement"], ["legal-placement"]),
        ("?analyze-placement-timing", "placement-based timing", ["legal-placement", "synthesis-constraints"], ["placement-timing-report"]),
        ("optimize-placement", "timing-driven refinement", ["placement-timing-report", "legal-placement"], ["legal-placement"]),
        ("?check-placement-rules", "site/orientation legality", ["legal-placement"], ["placement-check-report"]),
        ("!signoff-placement", "placement release", ["placement-check-report", "placement-timing-report"], ["placement-signoff"]),
    ],
    "routing": [
        ("route-power-grid", "power routing", ["legal-placement", "power-grid-plan"], ["power-routes"]),
        ("route-clock", "clock distribution routing", ["legal-placement", "clock-distribution-plan"], ["clock-routes"]),
        ("route-critical-nets", "route rule-carrying nets first", ["legal-placement", "net-topology-rules"], ["critical-routes"]),
        ("route-signal-nets", "global+detail signal routing", ["legal-placement", "critical-routes"], ["signal-routes"]),
        ("insert-shields", "shield critical nets", ["critical-routes", "net-topology-rules"], ["shield-routes"]),
        ("?check-routing-drc", "router-level DRC", ["signal-routes"], ["route-drc-report"]),
        ("repair-routing", "fix opens/shorts", ["route-drc-report", "signal-routes"], ["signal-routes"]),
        ("?measure-congestion", "post-route congestion", ["signal-routes"], ["route-congestion-report"]),
        ("export-routed-design", "write routed database", ["signal-routes", "power-routes", "clock-routes", "shield-routes"], ["routed-design"]),
        ("!signoff-routing", "routing release", ["route-drc-report", "routed-design"], ["routing-signoff"]),
    ],
    "extraction": [
        ("extract-parasitics", "RC extraction", ["routed-design"], ["parasitics"]),
        ("?analyze-coupling", "coupling capacitance analysis", ["parasitics", "net-topology-rules"], ["coupling-report"]),
        ("generate-sdf", "delay annotation file", ["parasitics", "gate-netlist"], ["sdf-delays"]),
        ("?run-post-layout-sta", "post-layout static timing", ["sdf-delays", "synthesis-constraints"], ["sta-report"]),
        ("?analyze-ir-drop", "power grid IR drop", ["power-routes", "parasitics"], ["ir-drop-report"]),
        ("?analyze-electromigration", "EM current density", ["power-routes", "parasitics"], ["em-report"]),
        ("?analyze-crosstalk-noise", "noise/glitch analysis", ["coupling-report"], ["noise-report"]),
        ("fix-timing-violations", "ECO for timing", ["sta-report", "routed-design"], ["routed-design"]),
        ("fix-noise-violations", "spacing/shield ECO", ["noise-report", "routed-design"], ["routed-design"]),
        ("?verify-clock-skew", "clock tree skew check", ["clock-routes", "parasitics"], ["skew-report"]),
        ("?recheck-timing-after-eco", "incremental STA", ["routed-design", "synthesis-constraints"], ["sta-report"]),
        ("characterize-io-timing", "chip-level IO timing", ["sta-report", "pin-placement"], ["io-timing-model"]),
        ("publish-timing-model", "block timing model out", ["io-timing-model"], ["timing-model"]),
        ("!signoff-timing", "timing sign-off", ["sta-report", "skew-report"], ["timing-signoff"]),
    ],
    "physical-verification": [
        ("merge-layout", "merge block layouts/macros", ["routed-design", "analog-layout"], ["full-layout"]),
        ("?run-drc", "design rule check", ["full-layout", "process-choice"], ["drc-report"]),
        ("?run-lvs", "layout vs schematic", ["full-layout", "schematic-netlist", "gate-netlist"], ["lvs-report"]),
        ("?run-antenna-check", "antenna rule check", ["full-layout"], ["antenna-report"]),
        ("?run-density-check", "metal density check", ["full-layout"], ["density-report"]),
        ("fix-drc-violations", "layout DRC fixes", ["drc-report", "full-layout"], ["full-layout"]),
        ("fix-lvs-mismatches", "connectivity fixes", ["lvs-report", "full-layout"], ["full-layout"]),
        ("insert-fill", "dummy metal fill", ["density-report", "full-layout"], ["full-layout"]),
        ("?rerun-signoff-checks", "final DRC/LVS pass", ["full-layout"], ["signoff-check-report"]),
        ("generate-netlist-from-layout", "extracted netlist", ["full-layout"], ["extracted-netlist"]),
        ("!signoff-physical", "physical verification sign-off", ["signoff-check-report"], ["physical-signoff"]),
        ("archive-layout", "layout into DM", ["full-layout"], ["layout-archive"]),
    ],
    "analog": [
        ("design-analog-cells", "transistor-level design", ["annotated-schematic", "process-choice"], ["analog-design"]),
        ("run-spice-sims", "analog simulation", ["analog-design"], ["spice-results"]),
        ("?analyze-corners", "process corner analysis", ["spice-results"], ["corner-report"]),
        ("layout-analog-cells", "analog layout", ["analog-design"], ["analog-layout"]),
        ("?extract-analog-parasitics", "analog RC extraction", ["analog-layout"], ["analog-parasitics"]),
        ("rerun-spice-with-parasitics", "post-layout analog sim", ["analog-design", "analog-parasitics"], ["spice-results"]),
        ("?match-devices", "device matching analysis", ["analog-layout"], ["matching-report"]),
        ("create-analog-abstract", "abstract for P&R", ["analog-layout"], ["cell-abstracts"]),
        ("document-analog", "analog design docs", ["analog-design"], ["analog-docs"]),
        ("!signoff-analog", "analog sign-off", ["corner-report", "matching-report"], ["analog-signoff"]),
    ],
    "tapeout": [
        ("assemble-mask-data", "final mask database", ["full-layout", "physical-signoff"], ["mask-data"]),
        ("add-mask-text", "mask level text/logos", ["mask-data"], ["mask-data"]),
        ("?verify-mask-data", "mask data verification", ["mask-data"], ["mask-verify-report"]),
        ("generate-fracture-data", "fracture for mask shop", ["mask-data"], ["fracture-data"]),
        ("write-tapeout-checklist", "tapeout checklist", ["timing-signoff", "dft-signoff", "physical-signoff", "analog-signoff", "verification-signoff"], ["tapeout-checklist"]),
        ("!final-tapeout-review", "tapeout review meeting", ["tapeout-checklist", "mask-verify-report"], ["tapeout-approval"]),
        ("ship-mask-data", "deliver to mask shop", ["fracture-data", "tapeout-approval"], ["final-mask-data"]),
        ("archive-tapeout", "full design archive", ["final-mask-data"], ["tapeout-archive"]),
    ],
    "library-development": [
        ("define-cell-list", "standard cell list", ["process-choice"], ["cell-list"]),
        ("design-cell-circuits", "cell transistor design", ["cell-list"], ["cell-circuits"]),
        ("layout-cells", "cell layout", ["cell-circuits"], ["cell-layouts"]),
        ("characterize-cells", "timing/power characterization", ["cell-layouts"], ["cell-characterization"]),
        ("build-timing-library", "synthesis timing views", ["cell-characterization"], ["target-library"]),
        ("build-abstracts", "P&R abstract views", ["cell-layouts"], ["cell-abstracts"]),
        ("?qualify-library", "library QA", ["target-library", "cell-abstracts"], ["library-qa-report"]),
        ("build-simulation-models", "cell sim models", ["cell-circuits"], ["behavioral-models"]),
        ("document-library", "library databook", ["cell-characterization"], ["library-docs"]),
        ("version-library", "release/version the library", ["library-qa-report"], ["library-release"]),
        ("distribute-library", "install at design sites", ["library-release"], ["library-install"]),
        ("!audit-library-versions", "check site version skew", ["library-install"], ["library-skew-report"]),
    ],
    "methodology-management": [
        ("capture-workflow", "capture the flow as a template", ["project-schedule"], ["workflow-template"]),
        ("deploy-workflow", "deploy template per block", ["workflow-template", "block-partition"], ["workflow-instances"]),
        ("collect-flow-metrics", "collect step status/metrics", ["workflow-instances"], ["flow-metrics"]),
        ("?tune-process", "closed-loop process tuning", ["flow-metrics"], ["process-improvements"]),
        ("setup-data-management", "choose/configure DM", ["project-schedule"], ["dm-setup"]),
        ("define-permissions", "who may run what", ["workflow-template"], ["permission-policy"]),
        ("?audit-tool-versions", "tool version skew audit", ["dm-setup"], ["tool-version-report"]),
        ("write-integration-scripts", "glue scripts between tools", ["workflow-template"], ["integration-scripts"]),
    ],
}

_KIND_MARKERS = {"?": "analysis", "!": "validation"}


def cell_based_methodology() -> TaskGraph:
    """Build the full specification-to-tapeout task graph (~200 tasks)."""
    graph = TaskGraph("cell-based-methodology")
    for phase, entries in _PHASES.items():
        for name, description, inputs, outputs in entries:
            kind = "creation"
            if name[0] in _KIND_MARKERS:
                kind = _KIND_MARKERS[name[0]]
                name = name[1:]
            graph.add_task(
                task(name, description, inputs, outputs, phase=phase, kind=kind)
            )
    return graph


# ---------------------------------------------------------------------------
# Standard scenarios
# ---------------------------------------------------------------------------


def standard_scenarios() -> List[Scenario]:
    """The unique contexts the paper suggests scenarios should span."""
    return [
        Scenario(
            name="full-asic",
            profile=UserProfile(team_size=40, experience="mixed"),
            driving=DrivingFunctions(cost=3, size=3, performance=5),
            required_outputs=("final-mask-data", "tapeout-archive"),
        ),
        Scenario(
            name="netlist-handoff",
            profile=UserProfile(team_size=12, experience="expert"),
            driving=DrivingFunctions(cost=4, size=3, performance=3),
            required_outputs=("netlist-signoff", "verification-signoff"),
            excluded_phases=("analog", "tapeout", "physical-verification"),
        ),
        Scenario(
            name="digital-only-lowcost",
            profile=UserProfile(team_size=8, experience="novice"),
            driving=DrivingFunctions(cost=5, size=4, performance=2),
            required_outputs=("final-mask-data",),
            excluded_phases=("analog",),
            performance_phases=("extraction",),
        ),
    ]


# ---------------------------------------------------------------------------
# The tool catalog: the tools this library itself implements, as models
# ---------------------------------------------------------------------------


def _port(info: str, direction: str, persistence: str, semantics: str,
          structure: str, namespace: str) -> DataPort:
    return DataPort(info, direction, persistence, semantics, structure, namespace)


def standard_tool_catalog() -> ToolCatalog:
    """Tool models for the substrates built in the other packages."""
    catalog = ToolCatalog()

    catalog.add(ToolModel(
        name="viewdraw-like",
        function="schematic capture (source system)",
        vendor="legacy",
        data_ports=[
            _port("top-schematic", "out", "vl-text", "implicit-crosspage", "multi-page", "vl-names"),
            _port("legacy-schematics", "in", "vl-text", "implicit-crosspage", "multi-page", "vl-names"),
            _port("symbol-library", "in", "vl-text", "implicit-crosspage", "flat", "vl-names"),
        ],
        control=[ControlInterface("netlist", "cli", "in", ("open", "netlist"))],
        implements_tasks={"capture-top-schematic", "capture-io-schematic"},
    ))

    catalog.add(ToolModel(
        name="composer-like",
        function="schematic capture (target system)",
        vendor="cdn",
        data_ports=[
            _port("top-schematic", "in", "cd-sexpr", "explicit-connectors", "multi-page", "cd-names"),
            _port("annotated-schematic", "out", "cd-sexpr", "explicit-connectors", "multi-page", "cd-names"),
            _port("schematic-netlist", "out", "cdl-netlist", "explicit-connectors", "hierarchical", "cd-names"),
            _port("symbol-library", "in", "cd-sexpr", "explicit-connectors", "flat", "cd-names"),
        ],
        control=[ControlInterface("al", "api", "in", ("open", "annotate", "netlist"))],
        implements_tasks={
            "annotate-properties", "extract-schematic-netlist", "crossprobe-setup",
            "capture-analog-schematic",
        },
    ))

    catalog.add(ToolModel(
        name="schematic-migrator",
        function="vendor schematic translation with verification",
        vendor="ccaes",
        data_ports=[
            _port("legacy-schematics", "in", "vl-text", "implicit-crosspage", "multi-page", "vl-names"),
            _port("top-schematic", "out", "cd-sexpr", "explicit-connectors", "multi-page", "cd-names"),
            _port("migration-report", "out", "report-text", "n/a", "flat", "cd-names"),
        ],
        control=[ControlInterface("batch", "cli", "in", ("migrate", "verify"))],
        implements_tasks={"migrate-legacy-schematics", "verify-schematic-migration"},
    ))

    catalog.add(ToolModel(
        name="xl-like-sim",
        function="event-driven HDL simulator (FIFO ordering)",
        vendor="cdn",
        data_ports=[
            _port("rtl-top", "in", "verilog-subset", "fifo-order-4value", "hierarchical", "verilog-names"),
            _port("testbench", "in", "verilog-subset", "fifo-order-4value", "hierarchical", "verilog-names"),
            _port("top-sim-results", "out", "wave-dump", "fifo-order-4value", "flat", "verilog-names"),
            _port("gate-netlist", "in", "gates-text", "fifo-order-4value", "flat", "verilog-names"),
            _port("sdf-delays", "in", "sdf-text", "fifo-order-4value", "flat", "verilog-names"),
            _port("timing-sim-results", "out", "wave-dump", "fifo-order-4value", "flat", "verilog-names"),
        ],
        control=[ControlInterface("plusargs", "cli", "in", ("compile", "run")),
                 ControlInterface("pli", "callback", "out", ("monitor",))],
        implements_tasks={"run-top-sims", "run-unit-sims", "run-gate-sims",
                          "run-timing-sims", "run-random-regression"},
    ))

    catalog.add(ToolModel(
        name="turbo-like-sim",
        function="competing HDL simulator (LIFO ordering, 9-value hybrid)",
        vendor="third-party",
        data_ports=[
            _port("rtl-top", "in", "verilog-subset", "lifo-order-9value", "hierarchical", "verilog-names"),
            _port("behavioral-models", "in", "vhdl-subset", "lifo-order-9value", "hierarchical", "vhdl-names"),
            _port("cosim-results", "out", "wave-dump", "lifo-order-9value", "flat", "vhdl-names"),
        ],
        control=[ControlInterface("tcl", "api", "in", ("elaborate", "run"))],
        implements_tasks={"run-cosimulation", "compare-simulators",
                          "run-top-sims", "run-random-regression"},
    ))

    catalog.add(ToolModel(
        name="race-analyzer",
        function="ensemble race detection over scheduling policies",
        vendor="cadinterop",
        data_ports=[
            _port("rtl-top", "in", "verilog-subset", "policy-ensemble", "flat", "verilog-names"),
            _port("race-report", "out", "report-text", "n/a", "flat", "verilog-names"),
        ],
        control=[ControlInterface("batch", "cli", "in", ("analyze",))],
        implements_tasks={"detect-races", "check-sensitivity-lists"},
    ))

    catalog.add(ToolModel(
        name="synthA-like",
        function="RTL synthesis (permissive subset)",
        vendor="vendorA",
        data_ports=[
            _port("rtl-blockA", "in", "verilog-subset", "full-sensitivity", "hierarchical", "verilog-names"),
            _port("rtl-blockB", "in", "verilog-subset", "full-sensitivity", "hierarchical", "verilog-names"),
            _port("synthesis-constraints", "in", "sdc-like", "n/a", "flat", "verilog-names"),
            _port("gates-blockA", "out", "gates-text", "zero-delay", "flat", "truncated-names"),
            _port("gates-blockB", "out", "gates-text", "zero-delay", "flat", "truncated-names"),
            _port("target-library", "in", "liberty-like", "n/a", "flat", "lib-names"),
        ],
        control=[ControlInterface("shell", "cli", "in", ("read", "compile", "write"))],
        implements_tasks={"synthesize-blockA", "synthesize-blockB",
                          "optimize-critical-paths", "check-latch-inference",
                          "check-synthesizable-subset"},
    ))

    catalog.add(ToolModel(
        name="synthB-like",
        function="RTL synthesis (strict subset, different constraints)",
        vendor="vendorB",
        data_ports=[
            _port("rtl-blockC", "in", "verilog-subset", "strict-sensitivity", "hierarchical", "verilog-names"),
            _port("synthesis-constraints-alt", "in", "ini-like", "n/a", "flat", "verilog-names"),
            _port("gates-blockC", "out", "gates-text", "zero-delay", "flat", "verilog-names"),
            _port("target-library", "in", "liberty-like", "n/a", "flat", "lib-names"),
        ],
        control=[ControlInterface("shell", "cli", "in", ("load", "map", "save"))],
        implements_tasks={"synthesize-blockC", "migrate-constraints"},
    ))

    catalog.add(ToolModel(
        name="hld-backplane",
        function="floorplanner driving a P&R backplane",
        vendor="hld",
        data_ports=[
            _port("floorplan", "out", "fp-db", "n/a", "hierarchical", "fp-names"),
            _port("net-topology-rules", "out", "fp-db", "n/a", "flat", "fp-names"),
            _port("pnr-constraints", "out", "per-tool-dialect", "n/a", "flat", "fp-names"),
            _port("constraint-loss-report", "out", "report-text", "n/a", "flat", "fp-names"),
            _port("die-estimate", "in", "report-text", "n/a", "flat", "fp-names"),
        ],
        control=[ControlInterface("gui", "gui", "in", ("edit",)),
                 ControlInterface("batch", "cli", "in", ("export",))],
        implements_tasks={"create-floorplan", "place-macros", "define-pin-locations",
                          "define-keepouts", "write-net-rules", "convey-constraints",
                          "audit-constraint-loss", "refine-block-aspects",
                          "plan-power-grid", "plan-clock-distribution",
                          "estimate-routability"},
    ))

    catalog.add(ToolModel(
        name="toolP-like",
        function="place and route (rich dialect)",
        vendor="vendorP",
        data_ports=[
            _port("pnr-constraints", "in", "per-tool-dialect", "n/a", "flat", "fp-names"),
            _port("jtag-netlist", "in", "gates-text", "zero-delay", "flat", "truncated-names"),
            _port("cell-abstracts", "in", "lef-like", "n/a", "flat", "lib-names"),
            _port("legal-placement", "out", "def-like", "n/a", "flat", "pnr-names"),
            _port("routed-design", "out", "def-like", "n/a", "flat", "pnr-names"),
            _port("signal-routes", "out", "def-like", "n/a", "flat", "pnr-names"),
            _port("critical-routes", "out", "def-like", "n/a", "flat", "pnr-names"),
        ],
        control=[ControlInterface("tcl", "api", "in", ("place", "route"))],
        implements_tasks={"run-global-placement", "legalize-placement",
                          "route-critical-nets", "route-signal-nets",
                          "insert-shields", "route-power-grid", "route-clock",
                          "repair-routing", "export-routed-design",
                          "optimize-placement", "place-spares"},
    ))

    catalog.add(ToolModel(
        name="toolQ-like",
        function="place and route (weaker dialect, overlaps toolP)",
        vendor="vendorQ",
        data_ports=[
            _port("pnr-constraints", "in", "q-constraints", "n/a", "flat", "q-names"),
            _port("jtag-netlist", "in", "gates-text", "zero-delay", "flat", "truncated-names"),
            _port("cell-abstracts", "in", "lef-like", "n/a", "flat", "lib-names"),
            _port("legal-placement", "out", "q-db", "n/a", "flat", "q-names"),
            _port("routed-design", "out", "q-db", "n/a", "flat", "q-names"),
            _port("signal-routes", "out", "q-db", "n/a", "flat", "q-names"),
        ],
        control=[ControlInterface("shell", "cli", "in", ("place", "route"))],
        implements_tasks={"run-global-placement", "legalize-placement",
                          "route-signal-nets", "route-power-grid"},
    ))

    catalog.add(ToolModel(
        name="extract-like",
        function="parasitic extraction and analysis",
        vendor="vendorX",
        data_ports=[
            _port("routed-design", "in", "def-like", "n/a", "flat", "pnr-names"),
            _port("parasitics", "out", "spef-like", "n/a", "flat", "pnr-names"),
            _port("sdf-delays", "out", "sdf-text", "n/a", "flat", "verilog-names"),
            _port("coupling-report", "out", "report-text", "n/a", "flat", "pnr-names"),
        ],
        control=[ControlInterface("shell", "cli", "in", ("extract",))],
        implements_tasks={"extract-parasitics", "analyze-coupling", "generate-sdf"},
    ))

    catalog.add(ToolModel(
        name="sta-like",
        function="static timing analysis",
        vendor="vendorX",
        data_ports=[
            _port("sdf-delays", "in", "sdf-text", "n/a", "flat", "verilog-names"),
            _port("synthesis-constraints", "in", "sdc-like", "n/a", "flat", "verilog-names"),
            _port("sta-report", "out", "report-text", "n/a", "flat", "verilog-names"),
        ],
        control=[ControlInterface("tcl", "api", "in", ("load", "report"))],
        implements_tasks={"run-post-layout-sta", "recheck-timing-after-eco",
                          "analyze-synth-timing"},
    ))

    catalog.add(ToolModel(
        name="formal-like",
        function="formal equivalence checking",
        vendor="vendorF",
        data_ports=[
            _port("rtl-top", "in", "verilog-subset", "formal-semantics", "hierarchical", "verilog-names"),
            _port("gate-netlist", "in", "gates-text", "formal-semantics", "flat", "truncated-names"),
            _port("equivalence-report", "out", "report-text", "n/a", "flat", "verilog-names"),
        ],
        control=[ControlInterface("shell", "cli", "in", ("prove",))],
        implements_tasks={"compare-rtl-gate"},
    ))

    catalog.add(ToolModel(
        name="workflow-mgr",
        function="workflow management suite",
        vendor="mgc",
        data_ports=[
            _port("workflow-template", "out", "flow-db", "n/a", "hierarchical", "flow-names"),
            _port("workflow-instances", "out", "flow-db", "n/a", "hierarchical", "flow-names"),
            _port("flow-metrics", "out", "report-text", "n/a", "flat", "flow-names"),
        ],
        control=[ControlInterface("api", "api", "in", ("capture", "deploy", "run")),
                 ControlInterface("events", "callback", "out", ("notify",))],
        implements_tasks={"capture-workflow", "deploy-workflow",
                          "collect-flow-metrics", "tune-process",
                          "define-permissions", "setup-data-management"},
    ))

    catalog.add(ToolModel(
        name="rtl-editor",
        function="RTL authoring and integration",
        vendor="in-house",
        data_ports=[
            _port("rtl-blockA", "out", "verilog-subset", "fifo-order-4value", "hierarchical", "verilog-names"),
            _port("rtl-blockB", "out", "verilog-subset", "fifo-order-4value", "hierarchical", "verilog-names"),
            _port("rtl-blockC", "out", "verilog-subset", "fifo-order-4value", "hierarchical", "verilog-names"),
            _port("rtl-top", "out", "verilog-subset", "fifo-order-4value", "hierarchical", "verilog-names"),
            _port("lint-report", "in", "report-text", "n/a", "flat", "verilog-names"),
        ],
        control=[ControlInterface("editor", "cli", "in", ("edit", "integrate"))],
        implements_tasks={"write-rtl-blockA", "write-rtl-blockB", "write-rtl-blockC",
                          "integrate-rtl-top", "fix-rtl-issues", "document-rtl"},
    ))

    catalog.add(ToolModel(
        name="dft-like",
        function="scan/BIST insertion and ATPG",
        vendor="vendorD",
        data_ports=[
            _port("gate-netlist", "in", "gates-text", "zero-delay", "hierarchical", "dft-names"),
            _port("scan-netlist", "out", "gates-text", "zero-delay", "hierarchical", "dft-names"),
            _port("jtag-netlist", "out", "gates-text", "zero-delay", "hierarchical", "dft-names"),
            _port("test-patterns", "out", "wgl-like", "n/a", "flat", "dft-names"),
        ],
        control=[ControlInterface("shell", "cli", "in", ("insert", "atpg"))],
        implements_tasks={"insert-scan", "insert-bist", "add-jtag",
                          "generate-atpg", "measure-fault-coverage"},
    ))

    catalog.add(ToolModel(
        name="signoff-like",
        function="physical verification (DRC/LVS) and mask prep",
        vendor="vendorS",
        data_ports=[
            _port("routed-design", "in", "gds-like", "n/a", "flat", "layout-names"),
            _port("full-layout", "out", "gds-like", "n/a", "flat", "layout-names"),
            _port("drc-report", "out", "report-text", "n/a", "flat", "layout-names"),
            _port("lvs-report", "out", "report-text", "n/a", "flat", "layout-names"),
            _port("mask-data", "out", "mebes-like", "n/a", "flat", "layout-names"),
        ],
        control=[ControlInterface("shell", "cli", "in", ("drc", "lvs", "fracture"))],
        implements_tasks={"run-drc", "run-lvs", "merge-layout", "insert-fill",
                          "assemble-mask-data", "verify-mask-data",
                          "generate-fracture-data", "rerun-signoff-checks"},
    ))

    catalog.add(ToolModel(
        name="waveview-gui",
        function="waveform viewer (GUI only)",
        vendor="third-party",
        data_ports=[
            _port("top-sim-results", "in", "wave-dump", "n/a", "flat", "verilog-names"),
            _port("bug-reports", "out", "report-text", "n/a", "flat", "verilog-names"),
        ],
        control=[ControlInterface("window", "gui", "in", ("open", "zoom"))],
        implements_tasks={"debug-failures"},
    ))

    return catalog
