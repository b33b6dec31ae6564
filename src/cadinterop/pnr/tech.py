"""Process technology description for the physical design substrate.

Routing layers with preferred directions, widths/spacings, and capacitance
coefficients (area and coupling), plus placement site definitions.  The
coupling coefficients are what make Section 4's interconnect-topology
experiments measurable: "Coupling capacitance can causes all sorts of
problems, but can be controlled by shortening wire length, increasing
spacing, or even by shielding."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass(frozen=True)
class Layer:
    """One routing layer."""

    name: str
    index: int
    direction: str  # "horizontal" or "vertical"
    min_width: int
    min_spacing: int
    #: capacitance per unit length to substrate (fF per track unit)
    area_cap: float
    #: coupling capacitance per unit parallel run at minimum spacing
    coupling_cap: float

    def __post_init__(self) -> None:
        if self.direction not in ("horizontal", "vertical"):
            raise ValueError(f"bad layer direction {self.direction!r}")
        if self.min_width <= 0 or self.min_spacing <= 0:
            raise ValueError("layer width/spacing must be positive")

    def coupling_at(self, spacing_tracks: int) -> float:
        """Coupling per unit length when two wires sit ``spacing_tracks``
        routing tracks apart (inverse-distance falloff)."""
        if spacing_tracks < 1:
            raise ValueError("spacing must be at least one track")
        return self.coupling_cap / spacing_tracks


@dataclass(frozen=True)
class Site:
    """A placement site (row) type."""

    name: str
    width: int
    height: int


@dataclass
class Technology:
    """The full technology: layers by name plus site types."""

    name: str
    layers: Dict[str, Layer] = field(default_factory=dict)
    sites: Dict[str, Site] = field(default_factory=dict)
    #: routing grid pitch in database units
    pitch: int = 10

    def add_layer(self, layer: Layer) -> Layer:
        if layer.name in self.layers:
            raise ValueError(f"duplicate layer {layer.name!r}")
        self.layers[layer.name] = layer
        return layer

    def add_site(self, site: Site) -> Site:
        if site.name in self.sites:
            raise ValueError(f"duplicate site {site.name!r}")
        self.sites[site.name] = site
        return site

    def layer(self, name: str) -> Layer:
        try:
            return self.layers[name]
        except KeyError:
            raise KeyError(f"no layer named {name!r}") from None

    def routing_layers(self) -> List[Layer]:
        return sorted(self.layers.values(), key=lambda l: l.index)

    def layer_for_direction(self, direction: str) -> Layer:
        for layer in self.routing_layers():
            if layer.direction == direction:
                return layer
        raise KeyError(f"no layer routes {direction}")


def generic_two_layer_tech() -> Technology:
    """A representative 2-metal technology used across tests and benches."""
    # Pitch 5 keeps the pins of a 10-unit-wide cell on distinct tracks.
    tech = Technology("generic2m", pitch=5)
    tech.add_layer(
        Layer("M1", 1, "horizontal", min_width=4, min_spacing=4,
              area_cap=0.08, coupling_cap=0.12)
    )
    tech.add_layer(
        Layer("M2", 2, "vertical", min_width=4, min_spacing=4,
              area_cap=0.06, coupling_cap=0.10)
    )
    tech.add_site(Site("core", width=10, height=40))
    tech.add_site(Site("pad", width=60, height=60))
    return tech
