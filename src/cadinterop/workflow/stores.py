"""Pluggable data management: plain files, versioned store, make-like deps.

Section 5 ("Architectural separation of workflow and data management"):
"It should be possible to build a flow that contains as much data
management as is required - but no more...  In some cases, UNIX-based
utilities such as SCCS, RCS and make can provide an adequate level of data
management.  In other cases, a much more sophisticated level ... is
required.  This decision should be left to the flow developer, not the
workflow system provider."

Accordingly, all three levels share one minimal protocol (``put``/``get``/
``exists``) the engine can use, and each adds its own capabilities on top:
:class:`VersionedStore` adds RCS-style check-in history, and
:class:`MakeLikeChecker` answers "is this target up to date?".
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple


class StoreError(Exception):
    """Data management failure."""


class FileStore:
    """Level 1: a bare directory; the designer manages nothing."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, name: str) -> Path:
        return self.root / name

    def put(self, name: str, content: str) -> None:
        path = self._path(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)

    def get(self, name: str) -> str:
        path = self._path(name)
        if not path.exists():
            raise StoreError(f"no data item {name!r}")
        return path.read_text()

    def exists(self, name: str) -> bool:
        return self._path(name).exists()

    def path_of(self, name: str) -> Path:
        return self._path(name)


@dataclass
class Revision:
    """One checked-in revision of a data item."""

    number: int
    content: str
    author: str
    comment: str
    timestamp: float


class VersionedStore:
    """Level 2: RCS-like check-in/check-out with revision history and locks."""

    def __init__(self) -> None:
        self._revisions: Dict[str, List[Revision]] = {}
        self._locks: Dict[str, str] = {}  # item -> holder

    def check_in(self, name: str, content: str, author: str, comment: str = "") -> Revision:
        holder = self._locks.get(name)
        if holder is not None and holder != author:
            raise StoreError(f"{name!r} is locked by {holder!r}")
        history = self._revisions.setdefault(name, [])
        revision = Revision(
            number=len(history) + 1,
            content=content,
            author=author,
            comment=comment,
            timestamp=time.time(),
        )
        history.append(revision)
        self._locks.pop(name, None)
        return revision

    def check_out(self, name: str, author: str, lock: bool = True) -> Revision:
        history = self._revisions.get(name)
        if not history:
            raise StoreError(f"no data item {name!r}")
        if lock:
            holder = self._locks.get(name)
            if holder is not None and holder != author:
                raise StoreError(f"{name!r} is locked by {holder!r}")
            self._locks[name] = author
        return history[-1]

    def unlock(self, name: str, author: str) -> None:
        holder = self._locks.get(name)
        if holder is None:
            return
        if holder != author:
            raise StoreError(f"{name!r} is locked by {holder!r}, not {author!r}")
        del self._locks[name]

    def revision(self, name: str, number: int) -> Revision:
        history = self._revisions.get(name, [])
        for revision in history:
            if revision.number == number:
                return revision
        raise StoreError(f"{name!r} has no revision {number}")

    def history(self, name: str) -> List[Revision]:
        return list(self._revisions.get(name, []))

    # Minimal shared protocol
    def put(self, name: str, content: str) -> None:
        self.check_in(name, content, author="workflow")

    def get(self, name: str) -> str:
        history = self._revisions.get(name)
        if not history:
            raise StoreError(f"no data item {name!r}")
        return history[-1].content

    def exists(self, name: str) -> bool:
        return bool(self._revisions.get(name))


@dataclass(frozen=True)
class MakeRule:
    """target: prerequisites, with a rebuild marker."""

    target: str
    prerequisites: Tuple[str, ...]


class MakeLikeChecker:
    """Level 1.5: make-style out-of-date detection over a file store."""

    def __init__(self, store: FileStore) -> None:
        self.store = store
        self.rules: Dict[str, MakeRule] = {}

    def add_rule(self, target: str, prerequisites: Sequence[str]) -> MakeRule:
        if target in self.rules:
            raise StoreError(f"duplicate rule for {target!r}")
        rule = MakeRule(target, tuple(prerequisites))
        self.rules[target] = rule
        return rule

    def out_of_date(self, target: str) -> Tuple[bool, str]:
        """(stale?, reason) — recursive over prerequisite rules."""
        rule = self.rules.get(target)
        target_path = self.store.path_of(target)
        if not target_path.exists():
            return True, f"{target} does not exist"
        if rule is None:
            return False, f"{target} is a source"
        target_mtime = target_path.stat().st_mtime
        for prerequisite in rule.prerequisites:
            stale, reason = self.out_of_date(prerequisite)
            if stale:
                return True, f"{target} <- {reason}"
            prerequisite_path = self.store.path_of(prerequisite)
            if prerequisite_path.stat().st_mtime > target_mtime:
                return True, f"{prerequisite} newer than {target}"
        return False, f"{target} up to date"
