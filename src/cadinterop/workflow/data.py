"""Data variables and data-maturity checks.

Section 5 ("Flexible dependency management"): "Tools are integrated such
that checks can be made on their data to determine flow state.  File
existence, date/time stamps, file contents and other means can be used to
determine data maturity...  Data variables in the workflow can serve as
proxies for one or more design data items, allowing information about the
data state and/or value to be stored as metadata separate from the design
data."
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class DataSnapshot:
    """A point-in-time observation of one data item."""

    exists: bool
    mtime: Optional[float] = None
    content_hash: Optional[str] = None


def snapshot_file(path: Path, hash_contents: bool = True) -> DataSnapshot:
    """Observe a file's existence, timestamp, and content hash."""
    path = Path(path)
    if not path.exists():
        return DataSnapshot(exists=False)
    stat = path.stat()
    digest: Optional[str] = None
    if hash_contents and path.is_file():
        hasher = hashlib.sha256()
        hasher.update(path.read_bytes())
        digest = hasher.hexdigest()
    return DataSnapshot(exists=True, mtime=stat.st_mtime, content_hash=digest)


class DataVariable:
    """A metadata proxy for one or more design data items.

    Carries a value (arbitrary metadata) and the file paths it proxies;
    :meth:`observe` snapshots them, :meth:`changed_since` compares against
    a previous observation — the substrate for triggers and rerun logic.
    """

    def __init__(self, name: str, paths: Sequence[Path] = (), value: Any = None) -> None:
        self.name = name
        self.paths = [Path(p) for p in paths]
        self.value = value
        self._last: Dict[Path, DataSnapshot] = {}

    def observe(self) -> Dict[Path, DataSnapshot]:
        self._last = {path: snapshot_file(path) for path in self.paths}
        return dict(self._last)

    def changed_since(self, baseline: Dict[Path, DataSnapshot]) -> List[Path]:
        """Paths whose current state differs from ``baseline``."""
        changed: List[Path] = []
        for path in self.paths:
            now = snapshot_file(path)
            then = baseline.get(path, DataSnapshot(exists=False))
            if (now.exists, now.content_hash) != (then.exists, then.content_hash):
                changed.append(path)
        return changed


# ---------------------------------------------------------------------------
# Maturity predicates (usable as finish conditions)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FileExists:
    """Maturity: the file must exist."""

    path: Path

    def check(self, instance: "object") -> Tuple[bool, str]:
        ok = Path(self.path).exists()
        return ok, f"{self.path} {'exists' if ok else 'missing'}"


@dataclass(frozen=True)
class NewerThan:
    """Maturity: ``path`` must be newer than ``reference``."""

    path: Path
    reference: Path

    def check(self, instance: "object") -> Tuple[bool, str]:
        path, reference = Path(self.path), Path(self.reference)
        if not path.exists():
            return False, f"{path} missing"
        if not reference.exists():
            return True, f"{reference} missing; {path} trivially newer"
        ok = path.stat().st_mtime >= reference.stat().st_mtime
        return ok, f"{path} {'newer than' if ok else 'older than'} {reference}"


@dataclass(frozen=True)
class ContentContains:
    """Maturity: the file's content must contain a marker string.

    (The paper's "file contents ... can be used to determine data
    maturity" — e.g. a log must contain "0 errors".)
    """

    path: Path
    marker: str

    def check(self, instance: "object") -> Tuple[bool, str]:
        path = Path(self.path)
        if not path.exists():
            return False, f"{path} missing"
        ok = self.marker in path.read_text()
        return ok, f"{path} {'contains' if ok else 'lacks'} {self.marker!r}"


@dataclass(frozen=True)
class VariableEquals:
    """Maturity on metadata: a data variable must hold a given value."""

    variable: str
    expected: Any

    def check(self, instance: "object") -> Tuple[bool, str]:
        actual = instance.variables.get(self.variable)
        ok = actual == self.expected
        return ok, f"{self.variable}={actual!r} (want {self.expected!r})"
