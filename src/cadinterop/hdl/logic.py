"""Multi-valued logic systems and the value-set mappings between them.

Section 3.1 of the paper names "inconsistencies in the signal value set
(e.g. 0, 1, x, and z)" as a common source of co-simulation failures.  Two
concrete systems are implemented:

* :class:`Logic4` — the Verilog-style four-value set ``0 1 x z``;
* :class:`Logic9` — a std_logic-style nine-value set
  ``U X 0 1 Z W L H -`` with the IEEE-1164 resolution table.

Conversion between them is inherently lossy (nine values cannot round-trip
through four); :func:`to4`/:func:`to9` implement the *correct* projections,
and :func:`naive_to4` the shortcut real bridges got wrong (mapping both
``Z`` and weak values to ``0``), so the co-simulation experiments can show
the failure and the fix.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple


# -- reference (branching) operator definitions ----------------------------
#
# These are the semantic source of truth: small branching functions that
# read like the language definition.  The public :class:`Logic4` operators
# are table-driven — the tables below are built from these once at import —
# so the hot simulation path pays dict lookups instead of branches, while
# the reference implementations stay available as an equivalence oracle
# (see ``REFERENCE_OPS`` and tests/hdl/test_logic_tables.py).


def _ref_not(a: str) -> str:
    if a == "0":
        return "1"
    if a == "1":
        return "0"
    return "x"


def _ref_and(a: str, b: str) -> str:
    if a == "0" or b == "0":
        return "0"
    if a == "1" and b == "1":
        return "1"
    return "x"


def _ref_or(a: str, b: str) -> str:
    if a == "1" or b == "1":
        return "1"
    if a == "0" and b == "0":
        return "0"
    return "x"


def _ref_xor(a: str, b: str) -> str:
    if a in "xz" or b in "xz":
        return "x"
    return "1" if a != b else "0"


def _ref_eq(a: str, b: str) -> str:
    if a in "xz" or b in "xz":
        return "x"
    return "1" if a == b else "0"


def _ref_case_eq(a: str, b: str) -> str:
    return "1" if a == b else "0"


def _ref_resolve(a: str, b: str) -> str:
    if a == "z":
        return b
    if b == "z":
        return a
    if a == b:
        return a
    return "x"


def _ref_buf(a: str) -> str:
    return "x" if a in "xz" else a


_V4 = ("0", "1", "x", "z")


def _unary_table(fn) -> Dict[str, str]:
    return {a: fn(a) for a in _V4}


def _binary_table(fn) -> Dict[str, Dict[str, str]]:
    return {a: {b: fn(a, b) for b in _V4} for a in _V4}


#: Precomputed lookup tables (built once at import from the reference
#: functions above).  ``TABLE[a][b]`` — two dict hits, zero branches —
#: raising ``KeyError`` on anything outside the 4-value set.
NOT_TABLE: Dict[str, str] = _unary_table(_ref_not)
BUF_TABLE: Dict[str, str] = _unary_table(_ref_buf)
AND_TABLE: Dict[str, Dict[str, str]] = _binary_table(_ref_and)
OR_TABLE: Dict[str, Dict[str, str]] = _binary_table(_ref_or)
XOR_TABLE: Dict[str, Dict[str, str]] = _binary_table(_ref_xor)
EQ_TABLE: Dict[str, Dict[str, str]] = _binary_table(_ref_eq)
CASE_EQ_TABLE: Dict[str, Dict[str, str]] = _binary_table(_ref_case_eq)
RESOLVE_TABLE: Dict[str, Dict[str, str]] = _binary_table(_ref_resolve)

#: Reference (branching) implementations, keyed by the Logic4 method they
#: back — the oracle for the exhaustive table-equivalence tests.
REFERENCE_OPS = {
    "not_": _ref_not,
    "and_": _ref_and,
    "or_": _ref_or,
    "xor": _ref_xor,
    "eq": _ref_eq,
    "case_eq": _ref_case_eq,
    "resolve": _ref_resolve,
}


class Logic4:
    """The four-value logic system: constants and operators.

    Values are single-character strings for cheap hashing and printing.
    Operators are table lookups; out-of-set values raise ``KeyError``
    (use :meth:`validate` for a descriptive error).
    """

    ZERO = "0"
    ONE = "1"
    X = "x"
    Z = "z"
    VALUES = _V4

    @staticmethod
    def validate(value: str) -> str:
        if value not in Logic4.VALUES:
            raise ValueError(f"not a 4-value logic level: {value!r}")
        return value

    # -- operators (table-driven) -------------------------------------------

    @staticmethod
    def not_(a: str) -> str:
        return NOT_TABLE[a]

    @staticmethod
    def and_(a: str, b: str) -> str:
        return AND_TABLE[a][b]

    @staticmethod
    def or_(a: str, b: str) -> str:
        return OR_TABLE[a][b]

    @staticmethod
    def xor(a: str, b: str) -> str:
        return XOR_TABLE[a][b]

    @staticmethod
    def eq(a: str, b: str) -> str:
        """Logical equality (``==``): unknown if either side is x/z."""
        return EQ_TABLE[a][b]

    @staticmethod
    def case_eq(a: str, b: str) -> str:
        """Case equality (``===``): x and z compare literally."""
        return CASE_EQ_TABLE[a][b]

    @staticmethod
    def resolve(a: str, b: str) -> str:
        """Two drivers on one net: z yields, conflict makes x."""
        return RESOLVE_TABLE[a][b]

    @staticmethod
    def resolve_many(values: Iterable[str]) -> str:
        result = "z"
        table = RESOLVE_TABLE
        for value in values:
            result = table[result][value]
        return result


class Logic9:
    """A std_logic-style nine-value system with IEEE-1164 resolution."""

    VALUES = ("U", "X", "0", "1", "Z", "W", "L", "H", "-")

    #: IEEE 1164 resolution table, indexed by VALUES order.
    _RESOLUTION = [
        # U    X    0    1    Z    W    L    H    -
        ["U", "U", "U", "U", "U", "U", "U", "U", "U"],  # U
        ["U", "X", "X", "X", "X", "X", "X", "X", "X"],  # X
        ["U", "X", "0", "X", "0", "0", "0", "0", "X"],  # 0
        ["U", "X", "X", "1", "1", "1", "1", "1", "X"],  # 1
        ["U", "X", "0", "1", "Z", "W", "L", "H", "X"],  # Z
        ["U", "X", "0", "1", "W", "W", "W", "W", "X"],  # W
        ["U", "X", "0", "1", "L", "W", "L", "W", "X"],  # L
        ["U", "X", "0", "1", "H", "W", "W", "H", "X"],  # H
        ["U", "X", "X", "X", "X", "X", "X", "X", "X"],  # -
    ]

    _INDEX = {value: index for index, value in enumerate(VALUES)}

    @staticmethod
    def validate(value: str) -> str:
        if value not in Logic9.VALUES:
            raise ValueError(f"not a 9-value logic level: {value!r}")
        return value

    @classmethod
    def resolve(cls, a: str, b: str) -> str:
        return cls._RESOLUTION[cls._INDEX[a]][cls._INDEX[b]]

    @classmethod
    def resolve_many(cls, values: Iterable[str]) -> str:
        result = "Z"
        for value in values:
            result = cls.resolve(result, value)
        return result

    @staticmethod
    def to_binary(value: str) -> str:
        """Collapse to 0/1/x for logic evaluation (X01 subtype view)."""
        if value in ("0", "L"):
            return "0"
        if value in ("1", "H"):
            return "1"
        return "x"


#: Correct 9 -> 4 projection: weak levels keep their driven sense, true
#: high-impedance stays z, everything uninitialized/unknown becomes x.
_TO4: Dict[str, str] = {
    "U": "x", "X": "x", "0": "0", "1": "1",
    "Z": "z", "W": "x", "L": "0", "H": "1", "-": "x",
}

#: Correct 4 -> 9 embedding.
_TO9: Dict[str, str] = {"0": "0", "1": "1", "x": "X", "z": "Z"}

#: The historically buggy projection: everything not strongly driven is
#: forced to 0 — the kind of shortcut the paper says made co-simulation
#: "fall short of its targets".
_NAIVE_TO4: Dict[str, str] = {
    "U": "0", "X": "0", "0": "0", "1": "1",
    "Z": "0", "W": "0", "L": "0", "H": "1", "-": "0",
}


def to4(value: str) -> str:
    """Project a 9-value level onto the 4-value set (correct mapping)."""
    Logic9.validate(value)
    return _TO4[value]


def to9(value: str) -> str:
    """Embed a 4-value level into the 9-value set."""
    Logic4.validate(value)
    return _TO9[value]


def naive_to4(value: str) -> str:
    """The broken legacy projection (demonstrates co-sim failure modes)."""
    Logic9.validate(value)
    return _NAIVE_TO4[value]


def roundtrip_fidelity() -> Tuple[int, int]:
    """(preserved, total) count of 9-value levels whose *binary sense*
    survives 9->4->9 under the correct mapping.

    The binary sense of a level is ``Logic9.to_binary``; U/X/W/- have no
    sense and are trivially preserved by mapping to X.
    """
    preserved = 0
    for value in Logic9.VALUES:
        back = to9(to4(value))
        if Logic9.to_binary(back) == Logic9.to_binary(value):
            preserved += 1
    return preserved, len(Logic9.VALUES)
