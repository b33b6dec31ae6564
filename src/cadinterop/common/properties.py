"""Typed property bags with provenance.

Section 2's property mapping steps (standard and non-standard) operate on
attribute/value annotations attached to schematic objects; Section 4's pin
definitions carry "a set of connection properties".  This module provides
the shared representation: an ordered, case-preserving property bag whose
entries remember where they came from, so a migrated design can be audited
("which tool wrote this value?").
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Tuple, Union

PropertyValue = Union[str, int, float, bool]


@dataclass(frozen=True)
class Property:
    """A named annotation with optional visibility and provenance."""

    name: str
    value: PropertyValue
    visible: bool = True
    origin: str = "native"

    def renamed(self, new_name: str, origin: Optional[str] = None) -> "Property":
        return replace(self, name=new_name, origin=origin or self.origin)

    def with_value(self, value: PropertyValue, origin: Optional[str] = None) -> "Property":
        return replace(self, value=value, origin=origin or self.origin)


class PropertyBag:
    """An insertion-ordered mapping of property name -> :class:`Property`.

    Names are unique; setting an existing name replaces it in place so the
    original ordering (which some schematic tools display verbatim) is kept.
    """

    def __init__(self, properties: Optional[Dict[str, PropertyValue]] = None, origin: str = "native") -> None:
        self._items: Dict[str, Property] = {}
        if properties:
            for name, value in properties.items():
                self.set(name, value, origin=origin)

    def set(
        self,
        name: str,
        value: PropertyValue,
        visible: bool = True,
        origin: str = "native",
    ) -> Property:
        prop = Property(name, value, visible=visible, origin=origin)
        self._items[name] = prop
        return prop

    def add(self, prop: Property) -> None:
        self._items[prop.name] = prop

    def get(self, name: str, default: Optional[PropertyValue] = None) -> Optional[PropertyValue]:
        prop = self._items.get(name)
        return prop.value if prop is not None else default

    def get_property(self, name: str) -> Optional[Property]:
        return self._items.get(name)

    def remove(self, name: str) -> Optional[Property]:
        return self._items.pop(name, None)

    def rename(self, old: str, new: str, origin: Optional[str] = None) -> bool:
        """Rename a property preserving its position; returns False if absent."""
        if old not in self._items:
            return False
        rebuilt: Dict[str, Property] = {}
        for name, prop in self._items.items():
            if name == old:
                renamed = prop.renamed(new, origin=origin)
                rebuilt[new] = renamed
            else:
                rebuilt[name] = prop
        self._items = rebuilt
        return True

    def __contains__(self, name: str) -> bool:
        return name in self._items

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Property]:
        return iter(self._items.values())

    def names(self) -> List[str]:
        return list(self._items.keys())

    def items(self) -> Iterator[Tuple[str, PropertyValue]]:
        for name, prop in self._items.items():
            yield name, prop.value

    def copy(self) -> "PropertyBag":
        bag = PropertyBag()
        for prop in self:
            bag.add(prop)
        return bag

    def __reduce__(self):
        """Pickle as one flat tuple of every property's fields, in order (the
        constructor takes one origin for all, so it cannot restore a bag)."""
        fields: List[Union[PropertyValue, str]] = []
        for prop in self._items.values():
            fields += (prop.name, prop.value, prop.visible, prop.origin)
        return (_bag_from_fields, (tuple(fields),))

    def as_dict(self) -> Dict[str, PropertyValue]:
        return {name: prop.value for name, prop in self._items.items()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PropertyBag):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{n}={p.value!r}" for n, p in self._items.items())
        return f"PropertyBag({inner})"


def _bag_from_fields(fields: Tuple[Union[PropertyValue, str], ...]) -> PropertyBag:
    """The bag whose properties ``fields`` lists as ``name, value, visible,
    origin`` each, in order (how a pickled bag is restored)."""
    bag = PropertyBag()
    items = iter(fields)
    for name, value, visible, origin in zip(items, items, items, items):
        bag.add(Property(name, value, visible, origin))
    return bag
