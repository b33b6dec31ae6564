"""Per-layer timing from the benchmark's own wrappers.

A traced round replaces each public function listed in :data:`LAYERS` with a
wrapper at every name its callers look it up by (``verify`` calls the
netlist extractor as ``cadinterop.schematic.verify.extract``, so the wrapper
goes there, not on ``cadinterop.schematic.netlist``).  Each call records a
span: layer, parent span, start and end.  A layer's self time is its span's
duration minus the union of the intervals its child spans cover.  The
wrappers also count deterministic work (wires extracted, activations, nets
routed, ...), and :meth:`LayerTracer.uninstall` puts every original back.

The wrappers live only in the benchmark; the program itself is unchanged.
"""

from __future__ import annotations

import collections
import functools
import importlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: (parent span index or -1, start, end) — the input of :func:`self_times`.
Span = Tuple[int, float, float]


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the union of its direct children's intervals.

    Children are clipped to their parent's interval; adjacent and
    overlapping children are counted once.
    """
    children: Dict[int, List[Tuple[float, float]]] = collections.defaultdict(list)
    for parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (_parent, start, end) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, reach)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        result.append((end - start) - covered)
    return result


# -- work counters taken by the wrappers --------------------------------------


def _wires(args, result, state):
    return {"schematic.netlist.wires": sum(len(page.wires) for page in args[0].pages)}


def _activations_before(args):
    return args[0].activations


def _activations(args, result, before):
    return {"hdl.simulator.activations": args[0].activations - before}


def _exchanges_before(args):
    return args[0].exchanges


def _exchanges(args, result, before):
    return {"hdl.cosim.exchanges": args[0].exchanges - before}


def _cache_lookup(args, result, state):
    return {"farm.cache.misses" if result is None else "farm.cache.hits": 1}


def _routing(args, result, state):
    return {
        "pnr.routing.nets_routed": len(result.routed),
        "pnr.routing.nets_failed": len(result.failed),
    }


def _cells(args, result, state):
    return {"rtl2gds.cells": result.cells_emitted}


@dataclass(frozen=True)
class Layer:
    """One timed public function.

    ``name`` is the metric prefix (``<module>.<function>`` under
    ``cadinterop``).  ``sites`` are the ``"module:attribute"`` names callers
    look the function up by; a ``Class.method`` attribute wraps the method
    on its class.  ``count`` maps ``(args, result, before(args))`` to
    counter increments.
    """

    name: str
    sites: Tuple[str, ...]
    before: Optional[Callable] = None
    count: Optional[Callable] = None


LAYERS: Tuple[Layer, ...] = (
    Layer("schematic.netlist.extract", ("cadinterop.schematic.verify:extract",), count=_wires),
    Layer("schematic.verify.verify_migration", ("cadinterop.schematic.migrate:verify_migration",)),
    Layer("schematic.ripup.replace_component", ("cadinterop.schematic.migrate:replace_component",)),
    Layer("schematic.gridmap.rescale_schematic", ("cadinterop.schematic.migrate:rescale_schematic",)),
    Layer(
        "schematic.propertymap.PropertyRuleSet.apply_to_instance",
        ("cadinterop.schematic.propertymap:PropertyRuleSet.apply_to_instance",),
    ),
    Layer("schematic.globals_.rename_global_nets", ("cadinterop.schematic.migrate:rename_global_nets",)),
    Layer("schematic.busnotation.translate_net_name", ("cadinterop.schematic.migrate:translate_net_name",)),
    Layer(
        "schematic.connectors.insert_offpage_connectors",
        ("cadinterop.schematic.migrate:insert_offpage_connectors",),
    ),
    Layer("schematic.text.adjust_labels", ("cadinterop.schematic.migrate:adjust_labels",)),
    Layer("schematic.migrate.copy_schematic", ("cadinterop.schematic.migrate:copy_schematic",)),
    Layer("schematic.migrate.Migrator.migrate", ("cadinterop.schematic.migrate:Migrator.migrate",)),
    Layer("farm.schematic_digest", ("cadinterop.farm.scheduler:schematic_digest",)),
    Layer("farm.plan_digest", ("cadinterop.farm.scheduler:plan_digest",)),
    Layer("farm.ResultCache.get", ("cadinterop.farm.cache:ResultCache.get",), count=_cache_lookup),
    Layer("farm.ResultCache.put", ("cadinterop.farm.cache:ResultCache.put",)),
    Layer("farm.MigrationFarm.run", ("cadinterop.farm.scheduler:MigrationFarm.run",)),
    Layer("hdl.parser.parse_module", ("cadinterop.hdl.parser:parse_module",)),
    Layer(
        "hdl.compile.compile_model",
        (
            "cadinterop.hdl.simulator:compile_model",
            "cadinterop.hdl.races:compile_model",
            "cadinterop.hdl.personalities:compile_model",
        ),
    ),
    Layer(
        "hdl.simulator.Simulator.run",
        ("cadinterop.hdl.simulator:Simulator.run",),
        before=_activations_before,
        count=_activations,
    ),
    Layer("hdl.races.detect_races", ("cadinterop.hdl.races:detect_races",)),
    Layer(
        "hdl.cosim.CoSimulation.run",
        ("cadinterop.hdl.cosim:CoSimulation.run",),
        before=_exchanges_before,
        count=_exchanges,
    ),
    Layer("hdl.synth.synthesize", ("cadinterop.hdl.synth:synthesize",)),
    Layer("rtl2gds.gate_netlist_to_pnr", ("cadinterop.rtl2gds:gate_netlist_to_pnr",), count=_cells),
    Layer("rtl2gds.pnr_to_gate_netlist", ("cadinterop.rtl2gds:pnr_to_gate_netlist",)),
    Layer("pnr.placement.RowPlacer.place", ("cadinterop.pnr.placement:RowPlacer.place",)),
    Layer(
        "pnr.routing.GridRouter.route_design",
        ("cadinterop.pnr.routing:GridRouter.route_design",),
        count=_routing,
    ),
    Layer("pnr.routing.GridRouter.route_net", ("cadinterop.pnr.routing:GridRouter.route_net",)),
    Layer("pnr.parasitics.extract", ("cadinterop.pnr.parasitics:extract",)),
)

#: Work counters, with the direction a change should move them.  The
#: wrappers take all but ``hdl.compile.compile_calls``, which is the
#: program's own compile counter (read without wrappers).
COUNTERS: Tuple[Tuple[str, str], ...] = (
    ("schematic.netlist.wires", "lower"),
    ("farm.cache.hits", "higher"),
    ("farm.cache.misses", "lower"),
    ("hdl.compile.compile_calls", "lower"),
    ("hdl.simulator.activations", "lower"),
    ("hdl.cosim.exchanges", "lower"),
    ("rtl2gds.cells", "lower"),
    ("pnr.routing.nets_routed", "higher"),
    ("pnr.routing.nets_failed", "lower"),
)


def per_layer_spec() -> List[dict]:
    """The ``per_layer`` entries of ``BENCHMARK.json``, in report order."""
    spec = []
    for layer in LAYERS:
        spec.append({"name": f"{layer.name}.calls", "unit": "count", "better": "lower"})
        spec.append({"name": f"{layer.name}.self_ms", "unit": "ms", "better": "lower"})
    for name, better in COUNTERS:
        spec.append({"name": name, "unit": "count", "better": better})
    spec.append({"name": "farm.cache.hit_ratio", "unit": "frac", "better": "higher"})
    spec.append({"name": "bench.trace_overhead_frac", "unit": "frac", "better": "lower"})
    return spec


def resolve(site: str) -> Tuple[object, str]:
    """``"pkg.module:Class.attr"`` -> (the class or module, ``"attr"``)."""
    module_name, _, path = site.partition(":")
    owner: object = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


class LayerTracer:
    """Installs the layer wrappers, records spans and counters, removes them.

    Use as a context manager around a traced round; :meth:`take` returns and
    clears what was recorded since the last call.
    """

    def __init__(self, layers: Sequence[Layer] = LAYERS) -> None:
        self.layers = tuple(layers)
        #: [layer index, parent span index or -1, start, end]
        self._spans: List[list] = []
        self._stack: List[int] = []
        self._counters: Dict[str, int] = collections.Counter()
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        for index, layer in enumerate(self.layers):
            for site in layer.sites:
                owner, attr = resolve(site)
                # The raw attribute (not getattr, which would bind a method)
                # is what uninstall() must put back.
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(index, layer, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, index: int, layer: Layer, fn: Callable) -> Callable:
        spans, stack, counters = self._spans, self._stack, self._counters
        before, count = layer.before, layer.count
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            span = [index, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if count is not None:
                for key, value in count(args, result, state).items():
                    counters[key] += value
            return result

        return wrapper

    def take(self) -> Tuple[Dict[str, Tuple[int, float]], Dict[str, int]]:
        """``({layer: (calls, self seconds)}, counters)`` since the last take."""
        selfs = self_times([(parent, start, end) for _i, parent, start, end in self._spans])
        calls = [0] * len(self.layers)
        seconds = [0.0] * len(self.layers)
        for (index, _parent, _start, _end), value in zip(self._spans, selfs):
            calls[index] += 1
            seconds[index] += value
        layers = {
            layer.name: (calls[index], seconds[index])
            for index, layer in enumerate(self.layers)
        }
        counters = dict(self._counters)
        self._spans.clear()
        self._counters.clear()
        return layers, counters
