"""Schematic capture interoperability (paper Section 2).

The complete Viewdraw-like -> Composer-like migration system: data model,
dialect descriptors, grid rescaling, symbol replacement with minimal net
rip-up (Figure 1), standard and a/L-callback property mapping, bus syntax
translation, hierarchy/off-page connector synthesis, global mapping,
cosmetic text correction, and independent netlist verification.
"""

from cadinterop.schematic.busnotation import (
    BusRef,
    BusSyntax,
    BusSyntaxError,
    COMPOSER_BUS_SYNTAX,
    VIEWDRAW_BUS_SYNTAX,
    declared_buses_of,
    translate_net_name,
)
from cadinterop.schematic.connectors import (
    ConnectorReport,
    build_connector_library,
    find_floating_ends,
    insert_hierarchy_connectors,
    insert_offpage_connectors,
)
from cadinterop.schematic.dialects import (
    COMPOSER_LIKE,
    Dialect,
    FontMetrics,
    UNITS_PER_INCH,
    VIEWDRAW_LIKE,
    get_dialect,
    known_dialects,
    register_dialect,
)
from cadinterop.schematic.globals_ import GlobalMap, GlobalRule, default_global_map
from cadinterop.schematic.gridmap import rescale_schematic, scale_symbol
from cadinterop.schematic.migrate import (
    MigrationPlan,
    MigrationResult,
    Migrator,
    copy_schematic,
)
from cadinterop.schematic.model import (
    Design,
    Instance,
    Library,
    LibrarySet,
    Page,
    PinDirection,
    Port,
    Schematic,
    SchematicError,
    Symbol,
    SymbolPin,
    TextLabel,
    Wire,
    WireIndex,
)
from cadinterop.schematic.netlist import Net, Netlist, extract
from cadinterop.schematic.propertymap import (
    AddRule,
    CallbackRule,
    ChangeValueRule,
    DeleteRule,
    PropertyRuleSet,
    RenameRule,
    Scope,
)
from cadinterop.schematic.ripup import (
    BatchReplacementReport,
    ReplacementStats,
    replace_component,
)
from cadinterop.schematic.symbolmap import SymbolKey, SymbolMap, SymbolMapping
from cadinterop.schematic.verify import (
    VerificationResult,
    audit_properties,
    verify_migration,
)

__all__ = [
    "AddRule",
    "BatchReplacementReport",
    "BusRef",
    "BusSyntax",
    "BusSyntaxError",
    "COMPOSER_BUS_SYNTAX",
    "COMPOSER_LIKE",
    "CallbackRule",
    "ChangeValueRule",
    "ConnectorReport",
    "DeleteRule",
    "Design",
    "Dialect",
    "FontMetrics",
    "GlobalMap",
    "GlobalRule",
    "Instance",
    "Library",
    "LibrarySet",
    "MigrationPlan",
    "MigrationResult",
    "Migrator",
    "Net",
    "Netlist",
    "Page",
    "PinDirection",
    "Port",
    "PropertyRuleSet",
    "RenameRule",
    "ReplacementStats",
    "Schematic",
    "SchematicError",
    "Scope",
    "Symbol",
    "SymbolKey",
    "SymbolMap",
    "SymbolMapping",
    "SymbolPin",
    "TextLabel",
    "UNITS_PER_INCH",
    "VIEWDRAW_BUS_SYNTAX",
    "VIEWDRAW_LIKE",
    "VerificationResult",
    "Wire",
    "WireIndex",
    "audit_properties",
    "build_connector_library",
    "copy_schematic",
    "declared_buses_of",
    "default_global_map",
    "extract",
    "find_floating_ends",
    "get_dialect",
    "insert_hierarchy_connectors",
    "insert_offpage_connectors",
    "known_dialects",
    "register_dialect",
    "replace_component",
    "rescale_schematic",
    "scale_symbol",
    "translate_net_name",
    "verify_migration",
]
