"""Issue reporting and the interoperability checklist.

The paper closes its abstract with a promise: "the reader can develop a
checklist of potential interoperability issues in his CAD environment, and
address these issues before they cause a design schedule slip."  Every
package in this library reports problems through the same structured
:class:`Issue` type, collected in an :class:`IssueLog`; the
:func:`render_checklist` function turns a log into exactly that checklist.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence


class Severity(enum.IntEnum):
    """Ordered severity scale; comparisons follow schedule impact."""

    INFO = 10
    NOTE = 20
    WARNING = 30
    ERROR = 40
    FATAL = 50

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


class Category(enum.Enum):
    """The interoperability problem classes the paper enumerates.

    The first five are the "classic interoperability problems" named in
    Section 6 (performance, name mapping, structure mapping, semantic
    interpretation errors, and tool control); the rest cover the concrete
    mechanisms from Sections 2-5.
    """

    PERFORMANCE = "performance"
    NAME_MAPPING = "name-mapping"
    STRUCTURE_MAPPING = "structure-mapping"
    SEMANTICS = "semantic-interpretation"
    TOOL_CONTROL = "tool-control"
    SCALING = "scaling"
    PROPERTY_MAPPING = "property-mapping"
    BUS_SYNTAX = "bus-syntax"
    CONNECTIVITY = "connectivity"
    COSMETIC = "cosmetic"
    LANGUAGE_STANDARD = "language-standard"
    BACKWARD_COMPAT = "backward-compatibility"
    ENVIRONMENT = "environment"
    PLATFORM = "platform"
    VERSION_SKEW = "version-skew"
    FEATURE_GAP = "feature-gap"
    DATA_LOSS = "data-loss"
    WORKFLOW = "workflow"
    VERIFICATION = "verification"


@dataclass(frozen=True)
class Issue:
    """One interoperability finding.

    ``subject`` identifies the design object or tool pair involved;
    ``remedy`` records the workaround, mirroring the paper's issue->answer
    structure.
    """

    severity: Severity
    category: Category
    subject: str
    message: str
    tool: Optional[str] = None
    remedy: Optional[str] = None

    def __reduce__(self):
        """Pickle by constructor arguments, not the field dict: smaller and faster."""
        return (
            Issue,
            (self.severity, self.category, self.subject, self.message, self.tool, self.remedy),
        )

    def format(self) -> str:
        tool = f" [{self.tool}]" if self.tool else ""
        remedy = f" => {self.remedy}" if self.remedy else ""
        return f"{self.severity.name:7} {self.category.value:24} {self.subject}{tool}: {self.message}{remedy}"


class IssueLog:
    """An append-only collection of issues with query helpers."""

    def __init__(self) -> None:
        self._issues: List[Issue] = []

    def add(
        self,
        severity: Severity,
        category: Category,
        subject: str,
        message: str,
        tool: Optional[str] = None,
        remedy: Optional[str] = None,
    ) -> Issue:
        issue = Issue(severity, category, subject, message, tool=tool, remedy=remedy)
        self._issues.append(issue)
        return issue

    def extend(self, issues: Iterable[Issue]) -> None:
        self._issues.extend(issues)

    def merge(self, other: "IssueLog") -> None:
        self._issues.extend(other._issues)

    def __iter__(self) -> Iterator[Issue]:
        return iter(self._issues)

    def __len__(self) -> int:
        return len(self._issues)

    def __bool__(self) -> bool:
        return bool(self._issues)

    @property
    def issues(self) -> Sequence[Issue]:
        return tuple(self._issues)

    def by_category(self, category: Category) -> List[Issue]:
        return [i for i in self._issues if i.category is category]

    def by_severity(self, minimum: Severity) -> List[Issue]:
        return [i for i in self._issues if i.severity >= minimum]

    def filter(self, predicate: Callable[[Issue], bool]) -> List[Issue]:
        return [i for i in self._issues if predicate(i)]

    @property
    def worst(self) -> Optional[Severity]:
        if not self._issues:
            return None
        return max(issue.severity for issue in self._issues)

    def has_errors(self) -> bool:
        return any(issue.severity >= Severity.ERROR for issue in self._issues)

    def counts(self) -> Dict[Severity, int]:
        counts: Dict[Severity, int] = {}
        for issue in self._issues:
            counts[issue.severity] = counts.get(issue.severity, 0) + 1
        return counts

    def summary(self) -> str:
        counts = self.counts()
        if not counts:
            return "no issues"
        parts = [f"{counts[sev]} {sev.name.lower()}" for sev in sorted(counts, reverse=True)]
        return ", ".join(parts)


def render_checklist(log: IssueLog, title: str = "CAD interoperability checklist") -> str:
    """Render an issue log as the checklist the paper promises its reader.

    Issues are grouped by category and sorted by descending severity so the
    most schedule-threatening items lead.  Each line is a checkbox; remedies
    become indented action items.
    """
    lines = [title, "=" * len(title), ""]
    categories = sorted({i.category for i in log}, key=lambda c: c.value)
    if not categories:
        lines.append("(no interoperability issues found)")
        return "\n".join(lines)
    for category in categories:
        items = sorted(log.by_category(category), key=lambda i: i.severity, reverse=True)
        lines.append(f"## {category.value} ({len(items)})")
        for issue in items:
            tool = f" [{issue.tool}]" if issue.tool else ""
            lines.append(f"  [ ] ({issue.severity.name}) {issue.subject}{tool}: {issue.message}")
            if issue.remedy:
                lines.append(f"        action: {issue.remedy}")
        lines.append("")
    lines.append(f"total: {len(log)} issue(s); {log.summary()}")
    return "\n".join(lines)
