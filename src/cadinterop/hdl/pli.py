"""A PLI-style extension interface with per-platform build profiles.

Section 3.4 ("Extension languages"): "Verilog simulators provide a PLI
(programming language interface), which allows the user to link custom C
language modules to the simulator.  Compiling and linking these modules
into a Verilog simulation requires the user to be familiar with the
compiler for his computing platform, and with the linking procedure for his
simulator."

Here the "C modules" are Python callables, but the *interoperability
surface* is modelled faithfully: each platform has a compiler/flags/link
convention, each simulator has a linking procedure (static relink vs
dynamic load), and registering a user task validates the combination — the
mismatches users actually hit (wrong link mode, missing compiler, ABI
flags) become checkable diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from cadinterop.common.diagnostics import Category, IssueLog, Severity


@dataclass(frozen=True)
class PlatformProfile:
    """One compute platform's C toolchain conventions."""

    name: str
    compiler: str
    compile_flags: Tuple[str, ...]
    shared_library_flag: str
    object_suffix: str = ".o"
    shared_suffix: str = ".so"


SUNOS_LIKE = PlatformProfile(
    "sunos-like", "cc", ("-O", "-KPIC"), "-G", shared_suffix=".so"
)
HPUX_LIKE = PlatformProfile(
    "hpux-like", "c89", ("-O", "+z"), "-b", shared_suffix=".sl"
)
LINUX_LIKE = PlatformProfile(
    "linux-like", "gcc", ("-O2", "-fPIC"), "-shared", shared_suffix=".so"
)

ALL_PLATFORMS: Tuple[PlatformProfile, ...] = (SUNOS_LIKE, HPUX_LIKE, LINUX_LIKE)


@dataclass(frozen=True)
class SimulatorLinkSpec:
    """How one simulator takes user PLI code."""

    simulator: str
    link_mode: str  # "static-relink" or "dynamic-load"
    veriuser_table: bool  # needs a registration table compiled in

    MODES = ("static-relink", "dynamic-load")

    def __post_init__(self) -> None:
        if self.link_mode not in self.MODES:
            raise ValueError(f"unknown link mode {self.link_mode!r}")


XL_LINK = SimulatorLinkSpec("xl-like", "static-relink", veriuser_table=True)
TURBO_LINK = SimulatorLinkSpec("turbo-like", "dynamic-load", veriuser_table=False)


@dataclass
class PliModule:
    """A user extension: system tasks implemented by callables."""

    name: str
    tasks: Dict[str, Callable[..., Any]] = field(default_factory=dict)
    #: requirements the build must satisfy
    requires_dynamic_load: bool = False
    source_platform: Optional[str] = None  # platform whose flags it was built with

    def add_task(self, task_name: str, fn: Callable[..., Any]) -> None:
        if not task_name.startswith("$"):
            raise ValueError("PLI task names start with '$'")
        if task_name in self.tasks:
            raise ValueError(f"duplicate task {task_name!r}")
        self.tasks[task_name] = fn


@dataclass
class BuildResult:
    """Outcome of 'compiling and linking' a PLI module for a target."""

    ok: bool
    command_lines: List[str] = field(default_factory=list)
    log: IssueLog = field(default_factory=IssueLog)


def build_pli(
    module: PliModule,
    platform: PlatformProfile,
    link: SimulatorLinkSpec,
) -> BuildResult:
    """Validate and describe the build of a PLI module for one target.

    Produces the command lines a user would run, plus diagnostics for the
    classic cross-platform failures.
    """
    result = BuildResult(ok=True)
    compile_cmd = (
        f"{platform.compiler} {' '.join(platform.compile_flags)} "
        f"-c {module.name}.c -o {module.name}{platform.object_suffix}"
    )
    result.command_lines.append(compile_cmd)

    if module.source_platform and module.source_platform != platform.name:
        result.ok = False
        result.log.add(
            Severity.ERROR, Category.PLATFORM, module.name,
            f"object built with {module.source_platform!r} flags cannot link on "
            f"{platform.name!r}",
            remedy="recompile from source with the target platform's compiler",
        )

    if link.link_mode == "dynamic-load":
        result.command_lines.append(
            f"{platform.compiler} {platform.shared_library_flag} "
            f"{module.name}{platform.object_suffix} "
            f"-o {module.name}{platform.shared_suffix}"
        )
    else:
        if module.requires_dynamic_load:
            result.ok = False
            result.log.add(
                Severity.ERROR, Category.TOOL_CONTROL, module.name,
                f"module requires dynamic loading but {link.simulator} uses "
                "static relinking",
                remedy="restructure the module or switch simulators",
            )
        result.command_lines.append(
            f"{link.simulator}-relink {module.name}{platform.object_suffix} "
            + ("veriuser.c" if link.veriuser_table else "")
        )
    return result


class PliRegistry:
    """Runtime task registry: what the simulator would see after linking."""

    def __init__(self) -> None:
        self._tasks: Dict[str, Callable[..., Any]] = {}
        self._origin: Dict[str, str] = {}

    def load(self, module: PliModule, build: BuildResult) -> None:
        if not build.ok:
            raise RuntimeError(f"cannot load {module.name!r}: build failed")
        for task_name, fn in module.tasks.items():
            if task_name in self._tasks:
                raise RuntimeError(
                    f"task {task_name!r} already provided by {self._origin[task_name]!r}"
                )
            self._tasks[task_name] = fn
            self._origin[task_name] = module.name

    def call(self, task_name: str, *args: Any) -> Any:
        try:
            fn = self._tasks[task_name]
        except KeyError:
            raise RuntimeError(f"unknown system task {task_name!r}") from None
        return fn(*args)

    def tasks(self) -> List[str]:
        return sorted(self._tasks)
