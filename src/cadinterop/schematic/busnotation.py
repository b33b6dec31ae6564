"""Bus syntax parsing, formatting, and inter-dialect translation.

Section 2 of the paper ("Bus syntax translation"):

* the Viewdraw-like dialect allows *condensed* references — ``A0`` is
  equivalent to bit 0 of a declared bus ``A<0:15>`` — and *postfix
  indicators* such as the trailing minus in ``myBus<0:15>-``;
* the Composer-like dialect requires explicit syntax — ``A0`` is NOT
  ``A<0>`` — and rejects postfix indicators.

Translation therefore needs the set of declared buses (to disambiguate
``A0`` the scalar from ``A0`` the condensed bit reference) and a policy for
postfix indicators (fold into the base name so net names stay unique).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple

from cadinterop.common.diagnostics import Category, IssueLog, Severity

#: Condensed bit reference grammar (``A0`` == bit 0 of a declared bus ``A``),
#: compiled once at import: it used to be recompiled inside
#: ``BusSyntax._parse_condensed``, which runs once per label per migration.
_CONDENSED_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*?)(\d+)$")


class BusSyntaxError(ValueError):
    """A net name could not be parsed under the dialect's bus rules."""


@dataclass(frozen=True)
class BusRef:
    """A parsed net reference.

    ``indices`` is ``None`` for a scalar, ``(bit, bit)`` for a single-bit
    select, or ``(msb, lsb)`` for a range.  ``postfix`` records a trailing
    indicator character (e.g. ``-`` for active-low) if the source dialect
    allowed one.
    """

    base: str
    indices: Optional[Tuple[int, int]] = None
    postfix: str = ""

    @property
    def is_scalar(self) -> bool:
        return self.indices is None

    @property
    def is_single_bit(self) -> bool:
        return self.indices is not None and self.indices[0] == self.indices[1]

    @property
    def width(self) -> int:
        if self.indices is None:
            return 1
        msb, lsb = self.indices
        return abs(msb - lsb) + 1

    def bits(self) -> List[int]:
        """Bit indices in declaration order (empty for a scalar)."""
        if self.indices is None:
            return []
        msb, lsb = self.indices
        step = 1 if lsb >= msb else -1
        return list(range(msb, lsb + step, step))

    def bit(self, index: int) -> "BusRef":
        if self.indices is None:
            raise BusSyntaxError(f"{self.base} is a scalar; cannot select bit {index}")
        lo, hi = sorted(self.indices)
        if not lo <= index <= hi:
            raise BusSyntaxError(f"bit {index} outside {self.base}<{self.indices[0]}:{self.indices[1]}>")
        return BusRef(self.base, (index, index), self.postfix)


@dataclass(frozen=True)
class BusSyntax:
    """The bus-reference grammar of one schematic dialect."""

    name: str
    allows_condensed: bool
    allows_postfix: bool
    postfix_chars: str = "-~*"
    open_bracket: str = "<"
    close_bracket: str = ">"
    range_separator: str = ":"

    _NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")

    def parse(self, text: str, declared_buses: Optional[Dict[str, Tuple[int, int]]] = None) -> BusRef:
        """Parse a net label under this dialect's rules.

        ``declared_buses`` maps base name -> (msb, lsb) for buses known on
        the sheet; it is required to resolve condensed references.

        Results are memoized per ``(syntax, text, declared table)``: a sheet
        repeats the same handful of net names many times (and a corpus
        repeats them across designs), so the parse runs once per distinct
        label.  :class:`BusRef` is frozen, so sharing the cached object is
        safe.
        """
        declared_key = tuple(sorted(declared_buses.items())) if declared_buses else ()
        return _parse_memoized(self, text, declared_key)

    def _parse_impl(self, text: str, declared: Dict[str, Tuple[int, int]]) -> BusRef:
        working = text.strip()
        if not working:
            raise BusSyntaxError("empty net name")

        postfix = ""
        if working[-1] in self.postfix_chars and self.close_bracket not in working[-1]:
            if not self.allows_postfix:
                raise BusSyntaxError(
                    f"{self.name}: postfix indicator {working[-1]!r} not permitted in {text!r}"
                )
            postfix = working[-1]
            working = working[:-1]

        bracket_at = working.find(self.open_bracket)
        if bracket_at >= 0:
            if not working.endswith(self.close_bracket):
                raise BusSyntaxError(f"unterminated bus subscript in {text!r}")
            base = working[:bracket_at]
            inner = working[bracket_at + 1 : -1]
            if not self._NAME_RE.match(base):
                raise BusSyntaxError(f"illegal bus base name {base!r} in {text!r}")
            if self.range_separator in inner:
                msb_text, lsb_text = inner.split(self.range_separator, 1)
                try:
                    indices = (int(msb_text), int(lsb_text))
                except ValueError:
                    raise BusSyntaxError(f"non-numeric bus range in {text!r}") from None
            else:
                try:
                    bit = int(inner)
                except ValueError:
                    raise BusSyntaxError(f"non-numeric bus index in {text!r}") from None
                indices = (bit, bit)
            return BusRef(base, indices, postfix)

        # No bracket: scalar, or (in condensed dialects) an implicit bit ref.
        if self.allows_condensed:
            condensed = self._parse_condensed(working, declared)
            if condensed is not None:
                return BusRef(condensed[0], (condensed[1], condensed[1]), postfix)
        if not self._NAME_RE.match(working):
            raise BusSyntaxError(f"illegal net name {working!r}")
        return BusRef(working, None, postfix)

    def _parse_condensed(
        self, working: str, declared: Dict[str, Tuple[int, int]]
    ) -> Optional[Tuple[str, int]]:
        """Resolve ``A0`` to (``A``, 0) iff ``A`` is a declared bus covering bit 0."""
        match = _CONDENSED_RE.match(working)
        if not match:
            return None
        base, bit_text = match.group(1), match.group(2)
        if base not in declared:
            return None
        bit = int(bit_text)
        lo, hi = sorted(declared[base])
        if lo <= bit <= hi:
            return (base, bit)
        return None

    def format(self, ref: BusRef) -> str:
        """Render a reference in this dialect; raises if the dialect cannot."""
        if ref.postfix and not self.allows_postfix:
            raise BusSyntaxError(
                f"{self.name}: cannot render postfix indicator {ref.postfix!r}"
            )
        text = ref.base
        if ref.indices is not None:
            msb, lsb = ref.indices
            if msb == lsb:
                text += f"{self.open_bracket}{msb}{self.close_bracket}"
            else:
                text += f"{self.open_bracket}{msb}{self.range_separator}{lsb}{self.close_bracket}"
        return text + ref.postfix


@lru_cache(maxsize=16384)
def _parse_memoized(
    syntax: BusSyntax, text: str, declared_key: Tuple[Tuple[str, Tuple[int, int]], ...]
) -> BusRef:
    """Shared parse cache; keyed on the full declared-bus table so the same
    text parses differently when a base name is (un)declared.  Failed parses
    raise and are deliberately not cached (``lru_cache`` drops them)."""
    return syntax._parse_impl(text, dict(declared_key))


@dataclass
class TranslationRule:
    """Record of one bus-name rewrite performed during migration."""

    source: str
    target: str
    reason: str


def fold_postfix(ref: BusRef) -> Tuple[BusRef, Optional[str]]:
    """Fold a postfix indicator into the base name, keeping names unique.

    The paper's remedy: "the postfix indicators were adjusted to keep the
    net names unique".  ``myBus<0:15>-`` becomes ``myBus_n<0:15>`` so the
    active-low intent survives as a lexical marker the target tool accepts.
    Returns the folded ref and the suffix applied (None if nothing done).
    """
    if not ref.postfix:
        return ref, None
    suffix = {"-": "_n", "~": "_n", "*": "_n"}.get(ref.postfix, "_x")
    return BusRef(ref.base + suffix, ref.indices, ""), suffix


def translate_net_name(
    text: str,
    source: BusSyntax,
    target: BusSyntax,
    declared_buses: Optional[Dict[str, Tuple[int, int]]] = None,
    log: Optional[IssueLog] = None,
) -> Tuple[str, List[TranslationRule]]:
    """Translate one net label from ``source`` to ``target`` syntax.

    Returns the rewritten label and the rules applied.  Issues are logged
    for every semantic adjustment (condensed expansion, postfix folding).
    """
    rules: List[TranslationRule] = []
    ref = source.parse(text, declared_buses)

    if ref.is_single_bit and source.allows_condensed and not target.allows_condensed:
        # Parsing already expanded A0 -> A<0>; record it if the raw text was condensed.
        if source.open_bracket not in text:
            rules.append(
                TranslationRule(text, "", "condensed bit reference made explicit")
            )
            if log is not None:
                log.add(
                    Severity.NOTE,
                    Category.BUS_SYNTAX,
                    text,
                    f"condensed reference expanded to explicit {ref.base}"
                    f"{target.open_bracket}{ref.indices[0]}{target.close_bracket}",
                    remedy="translation rule maps condensed to explicit syntax",
                )

    if ref.postfix and not target.allows_postfix:
        folded, suffix = fold_postfix(ref)
        rules.append(
            TranslationRule(text, "", f"postfix {ref.postfix!r} folded as suffix {suffix!r}")
        )
        if log is not None:
            log.add(
                Severity.WARNING,
                Category.BUS_SYNTAX,
                text,
                f"postfix indicator {ref.postfix!r} is not understood by {target.name}",
                remedy=f"folded into base name as {folded.base!r} to keep net names unique",
            )
        ref = folded

    rendered = target.format(ref)
    for rule in rules:
        # Fill in the final target text now that all rewrites are known.
        rule.target = rendered
    return rendered, rules


def declared_buses_of(labels: Iterable[str], syntax: BusSyntax) -> Dict[str, Tuple[int, int]]:
    """Scan sheet labels for full-range bus declarations (``A<0:15>``)."""
    declared: Dict[str, Tuple[int, int]] = {}
    for label in labels:
        try:
            ref = syntax.parse(label)
        except BusSyntaxError:
            continue
        if ref.indices is not None and not ref.is_single_bit:
            existing = declared.get(ref.base)
            if existing is None:
                declared[ref.base] = ref.indices
            else:
                lo = min(min(existing), min(ref.indices))
                hi = max(max(existing), max(ref.indices))
                # Preserve the declaration direction of the first sighting.
                if existing[0] >= existing[1]:
                    declared[ref.base] = (hi, lo)
                else:
                    declared[ref.base] = (lo, hi)
    return declared


VIEWDRAW_BUS_SYNTAX = BusSyntax(name="viewdraw-like", allows_condensed=True, allows_postfix=True)
COMPOSER_BUS_SYNTAX = BusSyntax(name="composer-like", allows_condensed=False, allows_postfix=False)
