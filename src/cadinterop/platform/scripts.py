"""Script portability checking across host platforms.

Section 3.4 ("Office / home computing incompatibilities"): "Portability of
scripts from one software platform to another platform is limited...  if an
engineer is using a UNIX workstation at his office and a personal computer
at home, he require two sets of scripts...  Scripts may even not be
portable between platforms running different flavors of Unix."

:func:`check_script` scans a shell script against a target
:class:`~cadinterop.platform.hosts.HostProfile`, flagging commands the
target lacks or spells differently; :func:`translate_script` produces the
"second set of scripts" mechanically where a mapping exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from cadinterop.common.diagnostics import Category, IssueLog, Severity
from cadinterop.platform.hosts import HostProfile, INTENTS


@dataclass
class ScriptFinding:
    """One portability problem in a script."""

    line_number: int
    line: str
    intent: Optional[str]
    problem: str
    replacement: Optional[str] = None


def _intent_of_command(command: str, source: HostProfile) -> Optional[str]:
    for intent in INTENTS:
        if source.command_for(intent) == command:
            return intent
    return None


def check_script(
    script: str,
    source: HostProfile,
    target: HostProfile,
    log: Optional[IssueLog] = None,
) -> List[ScriptFinding]:
    """Find lines that will not run (or run differently) on ``target``.

    A line is examined when it matches one of the *source* platform's known
    administrative commands; the finding reports whether the target has no
    equivalent or a differently spelled one.
    """
    findings: List[ScriptFinding] = []
    for line_number, raw in enumerate(script.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        intent = _intent_of_command(line, source)
        if intent is None:
            continue
        target_command = target.command_for(intent)
        if target_command is None:
            findings.append(
                ScriptFinding(
                    line_number, line, intent,
                    f"{target.name} has no command for {intent}",
                )
            )
            if log is not None:
                log.add(
                    Severity.ERROR, Category.PLATFORM, intent,
                    f"line {line_number}: no {target.name} equivalent for {line!r}",
                    remedy="restructure the flow to avoid this step on that platform",
                )
        elif target_command != line:
            findings.append(
                ScriptFinding(
                    line_number, line, intent,
                    f"spelled differently on {target.name}",
                    replacement=target_command,
                )
            )
            if log is not None:
                log.add(
                    Severity.WARNING, Category.PLATFORM, intent,
                    f"line {line_number}: {line!r} must become {target_command!r}",
                    remedy="maintain per-platform script variants or translate",
                )
    return findings


def translate_script(script: str, source: HostProfile, target: HostProfile) -> Tuple[str, List[str]]:
    """Rewrite translatable lines; returns (new script, untranslatable lines)."""
    output_lines: List[str] = []
    untranslatable: List[str] = []
    for raw in script.splitlines():
        line = raw.strip()
        intent = _intent_of_command(line, source) if line and not line.startswith("#") else None
        if intent is None:
            output_lines.append(raw)
            continue
        target_command = target.command_for(intent)
        if target_command is None:
            untranslatable.append(line)
            output_lines.append(f"# UNPORTABLE ({target.name}): {raw}")
        else:
            output_lines.append(raw.replace(line, target_command))
    return "\n".join(output_lines) + "\n", untranslatable


def is_portable(script: str, source: HostProfile, targets: List[HostProfile]) -> bool:
    """True if the script runs unchanged on every target platform."""
    return all(not check_script(script, source, target) for target in targets)
