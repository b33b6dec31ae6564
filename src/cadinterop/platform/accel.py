"""Hardware accelerator/emulator interface variants.

Section 3.4 ("Hardware interfacing"): "The interface required between a
workstation and a special purpose hardware box such as a Quickturn emulator
or an IKOS hardware accelerator is different for different vendors.  These
interfaces differ in cabling, connectors, device drivers, installation, and
administration.  They also differ in their user interfaces.  These
differences makes it harder to change the hardware and/or software
computing environment during a project."

:class:`AcceleratorInterface` captures the five difference axes; a
:class:`Workstation` can only attach a box whose requirements it satisfies,
and :func:`migration_cost` enumerates everything that must change when
swapping boxes or hosts mid-project.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Tuple


@dataclass(frozen=True)
class AcceleratorInterface:
    """One vendor's hardware box interface requirements."""

    vendor: str
    cabling: str  # e.g. "scsi-2", "vme", "proprietary-parallel"
    connector: str
    driver: str
    install_steps: Tuple[str, ...]
    ui_command: str


EMU_BOX = AcceleratorInterface(
    vendor="emu-like",
    cabling="proprietary-parallel",
    connector="centronics-50",
    driver="emudrv",
    install_steps=("install driver", "patch kernel", "calibrate pods"),
    ui_command="emu_run -netlist {design}",
)

ACCEL_BOX = AcceleratorInterface(
    vendor="accel-like",
    cabling="scsi-2",
    connector="hd68",
    driver="accelsd",
    install_steps=("install driver", "assign scsi id"),
    ui_command="accelsim {design} -hw",
)

ALL_BOXES: Tuple[AcceleratorInterface, ...] = (EMU_BOX, ACCEL_BOX)


@dataclass
class Workstation:
    """A host with physical ports and installed drivers."""

    name: str
    ports: FrozenSet[str]
    installed_drivers: List[str] = field(default_factory=list)
    attached: Optional[AcceleratorInterface] = None

    def can_attach(self, box: AcceleratorInterface) -> Tuple[bool, List[str]]:
        problems: List[str] = []
        if box.cabling not in self.ports:
            problems.append(f"no {box.cabling} port on {self.name}")
        if box.driver not in self.installed_drivers:
            problems.append(f"driver {box.driver!r} not installed")
        return (not problems, problems)

    def install_driver(self, driver: str) -> None:
        if driver not in self.installed_drivers:
            self.installed_drivers.append(driver)

    def attach(self, box: AcceleratorInterface) -> None:
        ok, problems = self.can_attach(box)
        if not ok:
            raise RuntimeError(f"cannot attach {box.vendor}: {'; '.join(problems)}")
        self.attached = box

    def run_design(self, design: str) -> str:
        if self.attached is None:
            raise RuntimeError("no accelerator attached")
        return self.attached.ui_command.format(design=design)


def migration_cost(
    old_box: AcceleratorInterface,
    new_box: AcceleratorInterface,
) -> List[str]:
    """Everything that changes when swapping hardware boxes mid-project."""
    changes: List[str] = []
    if old_box.cabling != new_box.cabling:
        changes.append(f"recable: {old_box.cabling} -> {new_box.cabling}")
    if old_box.connector != new_box.connector:
        changes.append(f"new connector: {new_box.connector}")
    if old_box.driver != new_box.driver:
        changes.append(f"install driver {new_box.driver}, remove {old_box.driver}")
    for step in new_box.install_steps:
        changes.append(f"install step: {step}")
    if old_box.ui_command != new_box.ui_command:
        changes.append("retrain users: UI command changed")
    return changes
