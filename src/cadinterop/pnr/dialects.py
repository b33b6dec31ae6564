"""P&R tool dialects: what each tool accepts, and in which convention.

Section 4: "there are no common languages, syntaxes, or semantics between
these tools...  Some tools read access direction as a property, while
others try to determine it from the routing blockages...  Connection types
are also not uniformly supported.  Some tools read connection types as a
set of literal properties on the pin, others require an external file, and
a few have no predefined support for some connection types."

Each :class:`PnRDialect` records those conventions plus the floorplan and
net-rule features it can ingest.  Three synthetic tools span the space the
paper describes; the backplane maps the neutral model onto each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

#: Floorplan feature tags a dialect may support.
FLOORPLAN_FEATURES: Tuple[str, ...] = (
    "block-aspect",
    "literal-pin-location",
    "general-pin-edge",
    "placement-keepout",
    "routing-keepout",
    "power-ring",
    "power-trunk",
    "clock-spine",
)

#: Per-net topology rule fields.
NET_RULE_FEATURES: Tuple[str, ...] = ("width", "spacing", "shield")

#: Connection-property tags.
CONNECTION_FEATURES: Tuple[str, ...] = (
    "multiple-connect",
    "equivalent-connect",
    "must-connect",
    "connect-by-abutment",
)


@dataclass(frozen=True)
class PnRDialect:
    """One P&R tool's input conventions and feature support."""

    name: str
    #: "property" = reads access direction as a pin property;
    #: "derived" = infers it from routing blockages.
    pin_access_mode: str
    #: "inline" = connection types as literal pin properties;
    #: "external-file" = a side file keyed by cell/pin;
    #: "unsupported" = no predefined support.
    connection_type_mode: str
    supported_connection_features: FrozenSet[str]
    supported_floorplan_features: FrozenSet[str]
    supported_net_rules: FrozenSet[str]

    def __post_init__(self) -> None:
        if self.pin_access_mode not in ("property", "derived"):
            raise ValueError(f"bad access mode {self.pin_access_mode!r}")
        if self.connection_type_mode not in ("inline", "external-file", "unsupported"):
            raise ValueError(f"bad connection mode {self.connection_type_mode!r}")
        for collection, universe in (
            (self.supported_connection_features, CONNECTION_FEATURES),
            (self.supported_floorplan_features, FLOORPLAN_FEATURES),
            (self.supported_net_rules, NET_RULE_FEATURES),
        ):
            bad = set(collection) - set(universe)
            if bad:
                raise ValueError(f"unknown feature tags {sorted(bad)}")


#: Tool P: the rich tool — property-based access, inline connection types,
#: full net-rule vocabulary, most floorplan constructs.
TOOL_P = PnRDialect(
    name="toolP",
    pin_access_mode="property",
    connection_type_mode="inline",
    supported_connection_features=frozenset(CONNECTION_FEATURES),
    supported_floorplan_features=frozenset(
        {
            "block-aspect", "literal-pin-location", "general-pin-edge",
            "placement-keepout", "routing-keepout", "power-ring", "clock-spine",
        }
    ),
    supported_net_rules=frozenset({"width", "spacing", "shield"}),
)

#: Tool Q: derives access from blockages, wants an external connection
#: file, honors only net width.
TOOL_Q = PnRDialect(
    name="toolQ",
    pin_access_mode="derived",
    connection_type_mode="external-file",
    supported_connection_features=frozenset(
        {"multiple-connect", "must-connect"}
    ),
    supported_floorplan_features=frozenset(
        {"block-aspect", "general-pin-edge", "placement-keepout", "power-trunk"}
    ),
    supported_net_rules=frozenset({"width"}),
)

#: Tool R: property access but no connection-type support at all and no
#: net rules ("some tools can not support these requirements").
TOOL_R = PnRDialect(
    name="toolR",
    pin_access_mode="property",
    connection_type_mode="unsupported",
    supported_connection_features=frozenset(),
    supported_floorplan_features=frozenset(
        {"literal-pin-location", "placement-keepout", "routing-keepout", "power-ring"}
    ),
    supported_net_rules=frozenset(),
)

ALL_TOOLS: Tuple[PnRDialect, ...] = (TOOL_P, TOOL_Q, TOOL_R)


def feature_matrix(tools: Tuple[PnRDialect, ...] = ALL_TOOLS) -> Dict[str, Dict[str, bool]]:
    """feature tag -> tool -> supported; the paper's inconsistency, tabulated."""
    matrix: Dict[str, Dict[str, bool]] = {}
    for feature in FLOORPLAN_FEATURES:
        matrix[f"floorplan:{feature}"] = {
            tool.name: feature in tool.supported_floorplan_features for tool in tools
        }
    for feature in NET_RULE_FEATURES:
        matrix[f"netrule:{feature}"] = {
            tool.name: feature in tool.supported_net_rules for tool in tools
        }
    for feature in CONNECTION_FEATURES:
        matrix[f"connection:{feature}"] = {
            tool.name: feature in tool.supported_connection_features for tool in tools
        }
    return matrix


def universally_supported(tools: Tuple[PnRDialect, ...] = ALL_TOOLS) -> List[str]:
    """Features every tool understands — the paper's 'required set'."""
    return sorted(
        feature
        for feature, support in feature_matrix(tools).items()
        if all(support.values())
    )
