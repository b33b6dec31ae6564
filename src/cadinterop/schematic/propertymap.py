"""Property mapping rules: standard and non-standard (a/L callbacks).

Section 2 distinguishes two kinds of property translation:

* **Standard property mapping** — declarative rules: "the addition,
  deletion, renaming or changing of property names, values, and text
  labels".  Modelled here as :class:`PropertyRule` variants applied by a
  :class:`PropertyRuleSet`.
* **Non-standard property mapping** — "special property mapping
  requirements for analog properties required the reformatting of single
  properties into multiple properties... handled by the addition of Access
  Language (a/L) callbacks for a selected set of objects."  Modelled as
  :class:`CallbackRule`, which runs an a/L program against the object.

Rules can be scoped to a symbol (by ``library/name/view`` pattern, ``*``
wildcards allowed) so callbacks apply to "a selected set of objects".
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from cadinterop.common.diagnostics import Category, IssueLog, Severity
from cadinterop.common.properties import PropertyBag, PropertyValue
from cadinterop.schematic import al
from cadinterop.schematic.model import Instance
from cadinterop.schematic.symbolmap import SymbolKey


@dataclass(frozen=True)
class Scope:
    """Which objects a rule applies to; glob patterns on the symbol key."""

    library: str = "*"
    name: str = "*"
    view: str = "*"

    def matches(self, key: SymbolKey) -> bool:
        return (
            fnmatch.fnmatchcase(key.library, self.library)
            and fnmatch.fnmatchcase(key.name, self.name)
            and fnmatch.fnmatchcase(key.view, self.view)
        )


ANY_SCOPE = Scope()


@dataclass
class AddRule:
    """Add (or overwrite) a property with a fixed value."""

    property_name: str
    value: PropertyValue
    scope: Scope = ANY_SCOPE

    def apply(self, bag: PropertyBag, log: IssueLog, subject: str) -> None:
        bag.set(self.property_name, self.value, origin="property-map")
        log.add(
            Severity.INFO, Category.PROPERTY_MAPPING, subject,
            f"added property {self.property_name!r} = {self.value!r}",
        )


@dataclass
class DeleteRule:
    """Remove a property if present."""

    property_name: str
    scope: Scope = ANY_SCOPE

    def apply(self, bag: PropertyBag, log: IssueLog, subject: str) -> None:
        if bag.remove(self.property_name) is not None:
            log.add(
                Severity.INFO, Category.PROPERTY_MAPPING, subject,
                f"deleted property {self.property_name!r}",
            )


@dataclass
class RenameRule:
    """Rename a property, preserving its value and position."""

    old_name: str
    new_name: str
    scope: Scope = ANY_SCOPE

    def apply(self, bag: PropertyBag, log: IssueLog, subject: str) -> None:
        if bag.rename(self.old_name, self.new_name, origin="property-map"):
            log.add(
                Severity.INFO, Category.PROPERTY_MAPPING, subject,
                f"renamed property {self.old_name!r} -> {self.new_name!r}",
            )


@dataclass
class ChangeValueRule:
    """Rewrite the value of an existing property via a value map or format."""

    property_name: str
    value_map: Dict[PropertyValue, PropertyValue] = field(default_factory=dict)
    format_string: Optional[str] = None
    scope: Scope = ANY_SCOPE

    def apply(self, bag: PropertyBag, log: IssueLog, subject: str) -> None:
        if self.property_name not in bag:
            return
        old = bag.get(self.property_name)
        if old in self.value_map:
            new: PropertyValue = self.value_map[old]
        elif self.format_string is not None:
            new = self.format_string.format(value=old)
        else:
            return
        if new != old:
            bag.set(self.property_name, new, origin="property-map")
            log.add(
                Severity.INFO, Category.PROPERTY_MAPPING, subject,
                f"changed {self.property_name!r}: {old!r} -> {new!r}",
            )


@dataclass
class CallbackRule:
    """Run an a/L program against the object (non-standard mapping).

    The program sees the object as ``obj`` with the full property API; this
    is how one property is reformatted into several with "no manual post
    translation cleanup".
    """

    source: str
    scope: Scope = ANY_SCOPE
    description: str = ""

    def apply_to_instance(self, instance: Instance, log: IssueLog, context: Optional[Dict[str, Any]] = None) -> None:
        try:
            al.run_callback(self.source, instance, context)
            log.add(
                Severity.INFO, Category.PROPERTY_MAPPING, instance.name,
                f"a/L callback applied{': ' + self.description if self.description else ''}",
            )
        except al.ALError as exc:
            log.add(
                Severity.ERROR, Category.PROPERTY_MAPPING, instance.name,
                f"a/L callback failed: {exc}",
                remedy="fix the callback program; object left unmodified beyond partial effects",
            )


@dataclass
class DesignCallbackRule:
    """An a/L program run once against the whole schematic.

    The program sees the schematic as ``design`` with page/instance
    navigation builtins — the paper's "interact with the entire design
    hierarchy during the migration process".
    """

    source: str
    description: str = ""

    def apply_to_design(self, schematic: Any, log: IssueLog, context: Optional[Dict[str, Any]] = None) -> None:
        try:
            al.run_design_callback(self.source, schematic, context)
            log.add(
                Severity.INFO, Category.PROPERTY_MAPPING, schematic.name,
                f"design-level a/L callback applied"
                f"{': ' + self.description if self.description else ''}",
            )
        except al.ALError as exc:
            log.add(
                Severity.ERROR, Category.PROPERTY_MAPPING, schematic.name,
                f"design-level a/L callback failed: {exc}",
                remedy="fix the callback program",
            )


PropertyRule = Union[AddRule, DeleteRule, RenameRule, ChangeValueRule]
#: The rules and the callbacks whose scope matches one symbol key.
RuleMatches = Tuple[List[PropertyRule], List[CallbackRule]]


class PropertyRuleSet:
    """Ordered rules applied to every migrated instance in sequence."""

    def __init__(
        self,
        rules: Sequence[PropertyRule] = (),
        callbacks: Sequence[CallbackRule] = (),
        design_callbacks: Sequence[DesignCallbackRule] = (),
    ) -> None:
        self.rules: List[PropertyRule] = list(rules)
        self.callbacks: List[CallbackRule] = list(callbacks)
        self.design_callbacks: List[DesignCallbackRule] = list(design_callbacks)

    def add_rule(self, rule: PropertyRule) -> None:
        self.rules.append(rule)

    def add_callback(self, callback: CallbackRule) -> None:
        self.callbacks.append(callback)

    def add_design_callback(self, callback: DesignCallbackRule) -> None:
        self.design_callbacks.append(callback)

    def apply_to_design(self, schematic: Any, log: IssueLog, context: Optional[Dict[str, Any]] = None) -> None:
        for callback in self.design_callbacks:
            callback.apply_to_design(schematic, log, context)

    def apply_to_instance(
        self,
        instance: Instance,
        symbol_key: SymbolKey,
        log: IssueLog,
        context: Optional[Dict[str, Any]] = None,
        matches: Optional[Dict[SymbolKey, RuleMatches]] = None,
    ) -> None:
        """Apply declarative rules then callbacks whose scope matches.

        ``matches`` memoizes, by symbol key, the rules and callbacks whose
        scope matches it, so each :meth:`Scope.matches` runs once per
        (scope, key).  A caller applying the rules to many instances may
        share one between calls while the rules stay the same.
        """
        found = matches.get(symbol_key) if matches is not None else None
        if found is None:
            found = (
                [rule for rule in self.rules if rule.scope.matches(symbol_key)],
                [callback for callback in self.callbacks if callback.scope.matches(symbol_key)],
            )
            if matches is not None:
                matches[symbol_key] = found
        rules, callbacks = found
        for rule in rules:
            rule.apply(instance.properties, log, instance.name)
        for callback in callbacks:
            callback.apply_to_instance(instance, log, context)
