"""Cross-section integration: RTL through synthesis into place-and-route.

The paper's premise is a *flow*: data leaves one tool class and enters the
next, and every hand-off is an interoperability surface.  This module wires
the library's own substrates together the way a methodology would —
HDL RTL (Section 3) → synthesized gate netlist → P&R design (Section 4) —
and, being a hand-off, it surfaces exactly the paper's issues on the way:

* gate types must map onto library cells (a structure-mapping problem:
  multi-input gates decompose into 2-input cells);
* signal names cross from the HDL namespace into the P&R namespace through
  a collision-aware :class:`~cadinterop.common.namemap.NameMap`;
* anything the target library cannot express is reported, not dropped
  silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from cadinterop.common.diagnostics import Category, IssueLog, Severity
from cadinterop.common.namemap import NameMap
from cadinterop.hdl.ast_nodes import GateInst, HDLError, Module, rewrite_module
from cadinterop.obs import get_lineage
from cadinterop.pnr.cells import CellLibrary
from cadinterop.pnr.design import PnRDesign, PnRInstance, inst_terminal, pad_terminal

@dataclass
class NetlistConversion:
    """Result of lowering a gate-level HDL module into a P&R design."""

    design: PnRDesign
    name_map: NameMap
    log: IssueLog = field(default_factory=IssueLog)
    decomposed_gates: int = 0
    cells_emitted: int = 0

    @property
    def ok(self) -> bool:
        return not self.log.has_errors()


class _Lowerer:
    """Stateful gate-to-cell lowering with decomposition."""

    def __init__(self, module: Module, library: CellLibrary, log: IssueLog) -> None:
        self.module = module
        self.library = library
        self.log = log
        self.design = PnRDesign(module.name)
        self.name_map = NameMap()
        self._cell_counter = 0
        self._net_counter = 0
        #: net -> list of terminals accumulated while emitting cells
        self._net_terminals: Dict[str, List[Tuple[str, str, str]]] = {}
        self.decomposed = 0

    # -- helpers -----------------------------------------------------------

    def fresh_net(self) -> str:
        self._net_counter += 1
        name = f"dec${self._net_counter}"
        mapped = self.name_map.map(name)
        get_lineage().record(
            "net", mapped, "rtl2gds", "synthesized",
            detail="decomposition net", design=self.module.name,
        )
        return mapped

    def emit_cell(self, cell_name: str, pins: Dict[str, str]) -> str:
        """Instantiate one library cell; returns the instance name."""
        cell = self.library.cell(cell_name)
        self._cell_counter += 1
        instance_name = f"g{self._cell_counter}"
        self.design.add_instance(PnRInstance(instance_name, cell))
        for pin_name, net in pins.items():
            self._net_terminals.setdefault(net, []).append(
                inst_terminal(instance_name, pin_name)
            )
        return instance_name

    # -- gate lowering -------------------------------------------------------

    def lower_gate(self, gate: GateInst) -> None:
        inputs = [self.name_map.map(pin) for pin in gate.inputs]
        output = self.name_map.map(gate.output)

        if gate.gate == "nand" and len(inputs) == 2 and "nand2" in self.library:
            self.emit_cell("nand2", {"A": inputs[0], "B": inputs[1], "Y": output})
            return
        if gate.gate in ("not", "buf") and "inv" in self.library:
            if gate.gate == "not":
                self.emit_cell("inv", {"A": inputs[0], "Y": output})
            else:
                middle = self.fresh_net()
                self.emit_cell("inv", {"A": inputs[0], "Y": middle})
                self.emit_cell("inv", {"A": middle, "Y": output})
                self.decomposed += 1
            return
        if gate.gate == "and" and "nand2" in self.library and "inv" in self.library:
            self._lower_tree("and", inputs, output)
            return
        if gate.gate == "or" and "nand2" in self.library and "inv" in self.library:
            self._lower_tree("or", inputs, output)
            return
        if gate.gate == "nand" and len(inputs) > 2:
            middle = self.fresh_net()
            self._lower_tree("and", inputs, middle)
            self.emit_cell("inv", {"A": middle, "Y": output})
            self.decomposed += 1
            return
        if gate.gate == "nor":
            middle = self.fresh_net()
            self._lower_tree("or", inputs, middle)
            self.emit_cell("inv", {"A": middle, "Y": output})
            self.decomposed += 1
            return
        if gate.gate in ("xor", "xnor") and "nand2" in self.library:
            self._lower_xor(inputs, output, invert=(gate.gate == "xnor"))
            return

        self.log.add(
            Severity.ERROR, Category.STRUCTURE_MAPPING, gate.name,
            f"no mapping for gate type {gate.gate!r} in library "
            f"{self.library.name!r}",
            remedy="extend the cell map or re-synthesize to supported gates",
        )

    def _lower_and2(self, a: str, b: str, output: str) -> None:
        middle = self.fresh_net()
        self.emit_cell("nand2", {"A": a, "B": b, "Y": middle})
        self.emit_cell("inv", {"A": middle, "Y": output})

    def _lower_or2(self, a: str, b: str, output: str) -> None:
        na, nb = self.fresh_net(), self.fresh_net()
        self.emit_cell("inv", {"A": a, "Y": na})
        self.emit_cell("inv", {"A": b, "Y": nb})
        self.emit_cell("nand2", {"A": na, "B": nb, "Y": output})

    def _lower_tree(self, op: str, inputs: List[str], output: str) -> None:
        """Balanced reduction of an n-input and/or onto 2-input cells."""
        if len(inputs) == 1:
            middle = self.fresh_net()
            self.emit_cell("inv", {"A": inputs[0], "Y": middle})
            self.emit_cell("inv", {"A": middle, "Y": output})
            return
        self.decomposed += max(0, len(inputs) - 2)
        current = list(inputs)
        while len(current) > 2:
            next_level: List[str] = []
            for index in range(0, len(current) - 1, 2):
                net = self.fresh_net()
                if op == "and":
                    self._lower_and2(current[index], current[index + 1], net)
                else:
                    self._lower_or2(current[index], current[index + 1], net)
                next_level.append(net)
            if len(current) % 2:
                next_level.append(current[-1])
            current = next_level
        if op == "and":
            self._lower_and2(current[0], current[1], output)
        else:
            self._lower_or2(current[0], current[1], output)

    def _lower_xor(self, inputs: List[str], output: str, invert: bool) -> None:
        if len(inputs) != 2:
            self.log.add(
                Severity.ERROR, Category.STRUCTURE_MAPPING, output,
                f"xor decomposition supports 2 inputs, got {len(inputs)}",
            )
            return
        a, b = inputs
        # Classic 4-nand XOR.
        m = self.fresh_net()
        x = self.fresh_net()
        y = self.fresh_net()
        self.decomposed += 1
        self.emit_cell("nand2", {"A": a, "B": b, "Y": m})
        self.emit_cell("nand2", {"A": a, "B": m, "Y": x})
        self.emit_cell("nand2", {"A": b, "B": m, "Y": y})
        if invert:
            pre = self.fresh_net()
            self.emit_cell("nand2", {"A": x, "B": y, "Y": pre})
            self.emit_cell("inv", {"A": pre, "Y": output})
        else:
            self.emit_cell("nand2", {"A": x, "B": y, "Y": output})

    # -- driver ---------------------------------------------------------------

    def run(self) -> NetlistConversion:
        module = self.module
        if module.always_blocks or module.assigns or module.instances:
            raise HDLError(
                f"module {module.name!r} is not a pure gate netlist; "
                "synthesize and flatten first"
            )
        lineage = get_lineage()
        for gate in module.gates:
            cells_before = self._cell_counter
            self.lower_gate(gate)
            emitted = self._cell_counter - cells_before
            if emitted:
                lineage.record(
                    "gate", gate.name, "rtl2gds", "transformed",
                    detail=f"{gate.gate} -> {emitted} cell(s)",
                    design=module.name,
                )
            else:
                lineage.record(
                    "gate", gate.name, "rtl2gds", "dropped",
                    detail=f"no mapping for gate type {gate.gate!r}",
                    design=module.name,
                )

        # Ports become pads on their nets.
        for port in module.ports:
            net = self.name_map.map(port.name)
            self._net_terminals.setdefault(net, []).append(pad_terminal(port.name))

        for net, terminals in sorted(self._net_terminals.items()):
            self.design.add_net(net, terminals)

        conversion = NetlistConversion(
            design=self.design,
            name_map=self.name_map,
            log=self.log,
            decomposed_gates=self.decomposed,
            cells_emitted=self._cell_counter,
        )
        return conversion


def gate_netlist_to_pnr(
    module: Module,
    library: CellLibrary,
    log: Optional[IssueLog] = None,
) -> NetlistConversion:
    """Lower a gate-level HDL module onto a P&R cell library.

    The module must be a pure structural netlist (the output of
    :func:`cadinterop.hdl.synth.synthesize` on combinational logic, with
    initial/testbench constructs stripped).  Gate primitives are mapped to
    cells, decomposing multi-input gates onto the 2-input library.
    """
    return _Lowerer(module, library, log if log is not None else IssueLog()).run()


#: How the sample library's cells read back as HDL gate primitives.
_CELL_TO_GATE: Dict[str, Tuple[str, Tuple[str, ...], str]] = {
    "nand2": ("nand", ("A", "B"), "Y"),
    "inv": ("not", ("A",), "Y"),
}


def pnr_to_gate_netlist(design: PnRDesign, name: str = "") -> Module:
    """Re-derive a simulatable HDL netlist from a lowered P&R design.

    The inverse hand-off, used to *verify* the lowering: simulate the
    original RTL and the re-derived cell netlist under the same stimulus
    and compare — the LVS-style closure of this flow.
    """
    module = Module(name or design.name + "_back")
    # Pads become ports; nets become wires.
    terminal_net: Dict[Tuple[str, str], str] = {}
    for net, terminals in design.nets.items():
        module.add_net(net, "wire")
        for kind, who, pin in terminals:
            if kind == "pad":
                if who not in {p.name for p in module.ports}:
                    module.add_port(who, "inout")
                # Tie the pad name to the net via a buf if names differ.
                if who != net:
                    module.add_gate(GateInst(f"pad${who}", "buf", net, [who]))
            else:
                terminal_net[(who, pin)] = net

    for instance in design.instances.values():
        mapping = _CELL_TO_GATE.get(instance.cell.name)
        if mapping is None:
            raise HDLError(
                f"cell {instance.cell.name!r} has no HDL gate equivalent"
            )
        gate_type, input_pins, output_pin = mapping
        inputs = [terminal_net[(instance.name, pin)] for pin in input_pins]
        output = terminal_net[(instance.name, output_pin)]
        module.add_gate(GateInst(instance.name, gate_type, output, inputs))
    module.validate()
    return module


def strip_testbench(module: Module) -> Module:
    """Copy a module without initial blocks (hardware only)."""
    stripped = rewrite_module(module, {})
    stripped.initial_blocks = []
    return stripped
