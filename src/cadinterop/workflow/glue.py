"""Integration-language standardization (paper Section 3.5).

"There is no standardization on the language used to integrate tools and
manage workflows.  TCL, Skill, Perl, and Unix shell are all in widespread
use.  Unless a company adopts and enforces a standard for an integration
language, sharing and reuse of design methodologies within that company
will be limited."

This module makes that limitation measurable: a :class:`GlueInventory`
collects the glue scripts a company's groups maintain (language detected
from shebang or extension), :func:`standardization_report` quantifies the
fragmentation and the reuse it forecloses, and :class:`LanguagePolicy`
enforces the adopted standard the paper recommends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from cadinterop.common.diagnostics import Category, IssueLog, Severity

#: Known integration languages and their detection signatures.
_SHEBANGS: Dict[str, str] = {
    "tclsh": "tcl",
    "wish": "tcl",
    "perl": "perl",
    "sh": "shell",
    "csh": "shell",
    "ksh": "shell",
    "bash": "shell",
    "skill": "skill",
    "python": "python",
}

_EXTENSIONS: Dict[str, str] = {
    ".tcl": "tcl",
    ".pl": "perl",
    ".sh": "shell",
    ".csh": "shell",
    ".il": "skill",
    ".ils": "skill",
    ".py": "python",
}

KNOWN_LANGUAGES: Tuple[str, ...] = ("tcl", "perl", "shell", "skill", "python")


def detect_language(name: str, content: str = "") -> Optional[str]:
    """Detect the integration language from a shebang, else the extension."""
    first_line = content.splitlines()[0].strip() if content.strip() else ""
    if first_line.startswith("#!"):
        interpreter = first_line[2:].split()[0].rsplit("/", 1)[-1]
        # '#!/usr/bin/env perl' puts the language in the argument.
        if interpreter == "env" and len(first_line.split()) > 1:
            interpreter = first_line.split()[1].rsplit("/", 1)[-1]
        for signature, language in _SHEBANGS.items():
            if interpreter.startswith(signature):
                return language
    if first_line.startswith(";") and "skill" in content.lower():
        return "skill"
    for extension, language in _EXTENSIONS.items():
        if name.endswith(extension):
            return language
    return None


@dataclass(frozen=True)
class GlueScript:
    """One piece of tool-integration glue."""

    name: str
    group: str  # the team that owns/maintains it
    language: str

    def __post_init__(self) -> None:
        if self.language not in KNOWN_LANGUAGES:
            raise ValueError(f"unknown integration language {self.language!r}")


class GlueInventory:
    """Every glue script in the company, by owning group."""

    def __init__(self) -> None:
        self._scripts: List[GlueScript] = []

    def add(self, script: GlueScript) -> GlueScript:
        self._scripts.append(script)
        return script

    def add_source(self, name: str, group: str, content: str) -> GlueScript:
        language = detect_language(name, content)
        if language is None:
            raise ValueError(f"cannot detect integration language of {name!r}")
        return self.add(GlueScript(name, group, language))

    def scripts(self) -> List[GlueScript]:
        return list(self._scripts)

    def groups(self) -> Set[str]:
        return {script.group for script in self._scripts}

    def languages_of(self, group: str) -> Set[str]:
        return {s.language for s in self._scripts if s.group == group}

    def __len__(self) -> int:
        return len(self._scripts)


@dataclass
class StandardizationReport:
    """How fragmented the integration layer is, and what it costs."""

    language_counts: Dict[str, int]
    groups: int
    #: scripts a given group cannot reuse because they are written in a
    #: language that group does not practice
    foreclosed_reuse: Dict[str, int]

    @property
    def dominant_language(self) -> Optional[str]:
        if not self.language_counts:
            return None
        return max(self.language_counts, key=lambda k: self.language_counts[k])

    @property
    def fragmentation(self) -> float:
        """1 - (share of the dominant language); 0 = fully standardized."""
        total = sum(self.language_counts.values())
        if not total:
            return 0.0
        return 1.0 - self.language_counts[self.dominant_language] / total

    @property
    def total_foreclosed(self) -> int:
        return sum(self.foreclosed_reuse.values())


def standardization_report(inventory: GlueInventory) -> StandardizationReport:
    counts: Dict[str, int] = {}
    for script in inventory.scripts():
        counts[script.language] = counts.get(script.language, 0) + 1

    foreclosed: Dict[str, int] = {}
    for group in inventory.groups():
        practiced = inventory.languages_of(group)
        foreclosed[group] = sum(
            1
            for script in inventory.scripts()
            if script.group != group and script.language not in practiced
        )
    return StandardizationReport(
        language_counts=counts,
        groups=len(inventory.groups()),
        foreclosed_reuse=foreclosed,
    )


@dataclass(frozen=True)
class LanguagePolicy:
    """The adopted company standard, with optional grandfathered languages."""

    standard: str
    grandfathered: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.standard not in KNOWN_LANGUAGES:
            raise ValueError(f"unknown language {self.standard!r}")

    def violations(self, inventory: GlueInventory, log: Optional[IssueLog] = None) -> List[GlueScript]:
        allowed = {self.standard, *self.grandfathered}
        offenders = [s for s in inventory.scripts() if s.language not in allowed]
        if log is not None:
            for script in offenders:
                log.add(
                    Severity.WARNING, Category.ENVIRONMENT, script.name,
                    f"glue script in {script.language!r}; company standard is "
                    f"{self.standard!r}",
                    remedy=f"port to {self.standard} or register as grandfathered",
                )
        return offenders
