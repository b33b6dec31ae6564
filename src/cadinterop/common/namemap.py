"""Collision-aware bidirectional name mapping.

Name mapping is one of the five "classic interoperability problems" the
paper names in Section 6, and the mechanism behind several Section 3
failures: eight-character truncation aliasing, keyword-clash renaming when
translating between Verilog and VHDL, and hierarchical flattening where "if
a problem is found in the flat representation, the user must map back to the
name used in hierarchical representation."

:class:`NameMap` is the shared answer: a forward map that guarantees
uniqueness of targets (uniquifying on demand), remembers every decision, and
can always be inverted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple


class NameCollisionError(ValueError):
    """Two distinct source names were forced onto the same target name."""


@dataclass(frozen=True)
class Rename:
    """A single recorded mapping decision."""

    source: str
    target: str
    reason: str


class NameMap:
    """A bidirectional source->target name map with collision handling.

    Parameters
    ----------
    transform:
        Function producing the *preferred* target for a source name.
    uniquify:
        If true, collisions are resolved by suffixing ``_2``, ``_3``, ...;
        if false, a collision raises :class:`NameCollisionError`.  The
        paper's PC-simulator truncation bug is exactly a ``uniquify=False``
        transform (tools silently aliased instead of erroring; see
        :func:`truncating_transform` and ``hdl.names`` for the demonstration).
    """

    def __init__(
        self,
        transform: Optional[Callable[[str], str]] = None,
        uniquify: bool = True,
    ) -> None:
        self._transform = transform or (lambda name: name)
        self._uniquify = uniquify
        self._forward: Dict[str, str] = {}
        self._backward: Dict[str, str] = {}
        self._renames: List[Rename] = []

    def map(self, source: str, reason: str = "") -> str:
        """Map ``source``, reusing a previous decision if one exists."""
        if source in self._forward:
            return self._forward[source]
        preferred = self._transform(source)
        target = preferred
        if target in self._backward:
            if not self._uniquify:
                raise NameCollisionError(
                    f"{source!r} and {self._backward[target]!r} both map to {target!r}"
                )
            counter = 2
            while f"{preferred}_{counter}" in self._backward:
                counter += 1
            target = f"{preferred}_{counter}"
            reason = reason or f"uniquified from {preferred!r}"
        self._forward[source] = target
        self._backward[target] = source
        if target != source or reason:
            self._renames.append(Rename(source, target, reason or "transformed"))
        return target

    def force(self, source: str, target: str, reason: str = "forced") -> None:
        """Record an explicit mapping, failing on any inconsistency."""
        if source in self._forward and self._forward[source] != target:
            raise NameCollisionError(
                f"{source!r} already maps to {self._forward[source]!r}, not {target!r}"
            )
        if target in self._backward and self._backward[target] != source:
            raise NameCollisionError(
                f"{target!r} already taken by {self._backward[target]!r}"
            )
        self._forward[source] = target
        self._backward[target] = source
        if source != target:
            self._renames.append(Rename(source, target, reason))

    def unmap(self, target: str) -> str:
        """Invert: recover the original name, the paper's flat->hierarchical need."""
        try:
            return self._backward[target]
        except KeyError:
            raise KeyError(f"no source recorded for target {target!r}") from None

    def source_of(self, target: str) -> Optional[str]:
        return self._backward.get(target)

    def target_of(self, source: str) -> Optional[str]:
        return self._forward.get(source)

    def __contains__(self, source: str) -> bool:
        return source in self._forward

    def __len__(self) -> int:
        return len(self._forward)

    def __iter__(self) -> Iterator[Tuple[str, str]]:
        return iter(self._forward.items())

    @property
    def renames(self) -> List[Rename]:
        """Every mapping that changed a name, with its reason."""
        return list(self._renames)


def truncating_transform(significant: int) -> Callable[[str], str]:
    """Transform modelling tools that only honor the first N characters."""
    if significant <= 0:
        raise ValueError("significant character count must be positive")

    def transform(name: str) -> str:
        return name[:significant]

    return transform


def hierarchical_join(path: Tuple[str, ...], separator: str = "_") -> str:
    """Join a hierarchical instance path the way flattening tools do."""
    return separator.join(path)
