"""Event-driven simulation kernel with a pluggable event-ordering policy.

Section 3.1: "simulation results depend on the scheduling algorithm the
simulator uses to order and process events.  Different Verilog simulators
can legitimately disagree on the outcome of the same simulation, because
the simulation cycle and processing order for simultaneous events are not
completely defined by the language."

That under-specification is made explicit here: the kernel takes an
:class:`OrderingPolicy` deciding which of the simultaneously-activated
processes runs next.  Race-free models produce identical results under
every policy; racy models legitimately diverge — which is exactly how
:mod:`cadinterop.hdl.races` detects races.

There is one scheduler.  It runs a :class:`CompiledModel`, the closures
and trigger index :mod:`cadinterop.hdl.compile` lowers a module to; the
AST interpreter survives only as the alternative lowering
:func:`~cadinterop.hdl.compile.reference_model`, scheduled by this same
loop.  The scheduler works on integer process ids: the ready queue is a
list of ids in arrival order with a ``bytearray`` of queued flags beside
it, an activation is ``model.runs[id](sim)``, and a timed event is a plain
``[time, sequence, action]`` list whose action is set to ``None`` when a
newer evaluation of an inertial driver supersedes it.  The pre-id
scheduler is kept as the oracle these must match schedule for schedule
(tests/hdl/test_scheduler_equivalence.py).

Semantics implemented (standard-conformant core):

* 4-value scalars, ``x`` initial value;
* blocking assignments take effect immediately within a process;
* nonblocking assignments are deferred to the NBA phase of the time step;
* continuous assigns and gates re-evaluate when any input changes, with
  inertial delay (a pending update is superseded by re-evaluation);
* multiple drivers on a net resolve per the 4-value resolution function;
* ``initial`` blocks support ``#delay``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from cadinterop.hdl.ast_nodes import HDLError, Module
from cadinterop.hdl.compile import CompiledModel, compile_model
from cadinterop.hdl.logic import Logic4
from cadinterop.obs import current_context, get_tracer


# ---------------------------------------------------------------------------
# Ordering policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderingPolicy:
    """Chooses which ready process activation runs next.

    ``select(ready, ordinal)`` receives the scheduler's ready list itself
    (process ids, ints, in arrival order) and the per-run activation
    ordinal, and returns the index in ``ready`` to run; the scheduler asks
    only when two or more are ready.  It must not mutate or keep the list.
    Strategies that vary their choice (e.g. seeded shuffles) derive it from
    the ordinal to stay deterministic across reruns.  All policies are
    legal readings of the standard: the choice is observable only for racy
    models.
    """

    name: str
    select: Callable[[Sequence[int], int], int]

    def choose(self, ready: Sequence[int], ordinal: int) -> int:
        return self.select(ready, ordinal)


FIFO = OrderingPolicy("fifo", lambda ready, ordinal: 0)
LIFO = OrderingPolicy("lifo", lambda ready, ordinal: len(ready) - 1)

_MASK64 = (1 << 64) - 1


def seeded_shuffle_policy(seed: int) -> OrderingPolicy:
    """A pseudo-random but *stateless* ordering policy.

    The selection is a pure function of (seed, activation ordinal), so one
    policy object reused across ensemble runs — or a rerun with a cached
    result — reproduces the same schedule every time.  (The previous
    implementation closed over a shared ``random.Random``, so reuse gave
    different selections per run.)
    """
    offset = (seed * 0x9E3779B97F4A7C15 + 1) & _MASK64

    def select(ready: Sequence[int], ordinal: int) -> int:
        # splitmix64-style integer mix of the ordinal, inlined: this runs
        # once per multi-ready activation.
        x = (offset + ordinal) & _MASK64
        x ^= x >> 30
        x = (x * 0xBF58476D1CE4E5B9) & _MASK64
        x ^= x >> 27
        x = (x * 0x94D049BB133111EB) & _MASK64
        x ^= x >> 31
        return x % len(ready)

    return OrderingPolicy(f"shuffle{seed}", select)


# ---------------------------------------------------------------------------
# The simulator
# ---------------------------------------------------------------------------


class Simulator:
    """Simulate one (flat) module under a given event-ordering policy.

    ``model`` is either a :class:`Module`, lowered through
    :func:`compile_model` first, or a pre-built :class:`CompiledModel`.
    Passing a ``CompiledModel`` skips elaboration entirely: the model is
    immutable and shared, only per-run state is built, which is what makes
    policy ensembles compile-once/run-many.
    """

    def __init__(
        self,
        model: Union[Module, CompiledModel],
        policy: OrderingPolicy = FIFO,
        trace_signals: Optional[Sequence[str]] = None,
    ) -> None:
        if not isinstance(model, CompiledModel):
            model = compile_model(model)
        module = model.module
        with get_tracer().span(
            "hdl:elaborate", module=module.name, policy=policy.name
        ) as span:
            self.module = module
            self.policy = policy
            self.now = 0
            #: Cumulative observability tallies (cheap ints, always maintained).
            self.events_executed = 0
            self.activations = 0
            #: Set by enclosing layers (e.g. co-simulation) that make many
            #: tiny ``run()`` calls: suppresses the per-run span.
            self._obs_quiet = False
            self.values: Dict[str, str] = {name: "x" for name in module.nets}
            self.waveforms: Dict[str, List[Tuple[int, str]]] = {
                name: []
                for name in (trace_signals if trace_signals is not None else module.nets)
            }

            #: Timed events, ``[time, sequence, action]``; a cancelled one
            #: has ``action`` None.  Sequences are unique, so the heap never
            #: compares actions.  An action is called with the simulator
            #: rather than closing over it, so pending events form no
            #: reference cycle and a finished run is freed at once.
            self._heap: List[list] = []
            self._sequence = 0
            #: Ready process ids in arrival order; ``_queued[id]`` is 1 while
            #: ``id`` is in ``_ready``.
            self._ready: List[int] = []
            self._queued = bytearray(len(model.runs))
            self._runs = model.runs
            self._nba: List[Tuple[str, str]] = []
            #: Activations left before :class:`HDLError`; set by each ``run``.
            self._budget = 0

            self._triggers = model.triggers
            # Driver bookkeeping for resolution on multiply-driven nets.
            self._drivers_of = model.drivers_of
            self._driver_values: Dict[int, str] = {
                i: "z" for i in range(model.driver_count)
            }
            self._pending_updates: Dict[int, list] = {}

            # Everything but always blocks runs once at time zero
            # (continuous assigns settle, initial blocks start).
            for process_id in model.startup:
                self._activate(process_id)
            span.set(processes=len(model.processes), nets=len(module.nets))

    # -- scheduling ------------------------------------------------------------

    def _activate(self, process_id: int) -> None:
        if not self._queued[process_id]:
            self._queued[process_id] = 1
            self._ready.append(process_id)

    def _schedule(self, delay: int, action: Callable[["Simulator"], None]) -> list:
        event = [self.now + delay, self._sequence, action]
        self._sequence += 1
        heapq.heappush(self._heap, event)
        return event

    # -- signal updates ----------------------------------------------------------

    def drive(self, driver_id: int, signal: str, value: str, delay: int) -> None:
        """A continuous driver (assign/gate) produces a new value."""
        if delay <= 0:
            self._apply_drive(driver_id, signal, value)
            return
        # Inertial delay: a newer evaluation supersedes the pending one.
        pending = self._pending_updates.get(driver_id)
        if pending is not None:
            pending[2] = None
        event = self._schedule(
            delay, lambda sim: sim._apply_drive(driver_id, signal, value)
        )
        self._pending_updates[driver_id] = event

    def _apply_drive(self, driver_id: int, signal: str, value: str) -> None:
        self._pending_updates.pop(driver_id, None)
        self._driver_values[driver_id] = value
        contributions = [self._driver_values[d] for d in self._drivers_of[signal]]
        self.set_signal(signal, Logic4.resolve_many(contributions))

    def set_signal(self, signal: str, value: str) -> None:
        """Update a signal value, queueing the process ids its wake table names."""
        values = self.values
        if values[signal] == value:
            return
        try:
            woken = self._triggers[signal][value]
        except KeyError:
            raise HDLError(
                f"cannot set {signal!r} to {value!r}: not a 0/1/x/z level"
            ) from None
        values[signal] = value
        waveform = self.waveforms.get(signal)
        if waveform is not None:
            waveform.append((self.now, value))
        queued = self._queued
        ready = self._ready
        for process_id in woken:
            if not queued[process_id]:
                queued[process_id] = 1
                ready.append(process_id)

    # -- procedural execution ------------------------------------------------------

    def _resume_initial(self, steps: Sequence, position: int) -> None:
        """Run initial-block steps from ``position``; ints are delays."""
        while position < len(steps):
            step = steps[position]
            position += 1
            if isinstance(step, int):
                self._schedule(
                    step,
                    lambda sim, s=steps, p=position: sim._resume_initial(s, p),
                )
                return
            step(self)

    # -- the event loop ---------------------------------------------------------------

    def _settle(self) -> None:
        """Exhaust the current simulation time (active + NBA phases).

        The active phase runs ready activations, one policy choice each,
        until none remain; only then are the deferred nonblocking updates
        applied, which may wake more.  The policy sees the ready list
        itself, and the one-ready case, the overwhelmingly common one,
        skips it (every legal policy must pick index 0 there).  The
        ordinal advances once per activation, the doomed one included, so
        stateless shuffle policies see the same stream on every run.
        """
        ready = self._ready
        queued = self._queued
        runs = self._runs
        select = self.policy.select
        set_signal = self.set_signal
        remaining = self._budget
        ordinal = self.activations
        try:
            while True:
                while ready:
                    remaining -= 1
                    if remaining < 0:
                        ordinal += 1
                        raise HDLError(
                            f"activation budget exhausted at t={self.now} "
                            "(zero-delay oscillation?)"
                        )
                    if len(ready) == 1:
                        process_id = ready.pop()
                    else:
                        process_id = ready.pop(select(ready, ordinal))
                    ordinal += 1
                    queued[process_id] = 0
                    runs[process_id](self)
                updates = self._nba
                if not updates:
                    return
                self._nba = []
                for signal, value in updates:
                    set_signal(signal, value)
        finally:
            self._budget = remaining
            self.activations = ordinal

    def run(self, until: int = 1_000_000, max_activations: int = 1_000_000) -> int:
        """Run until ``until`` or event exhaustion; returns the end time.

        ``max_activations`` bounds zero-delay oscillation (e.g. a ring of
        inverters with no delay) and raises :class:`HDLError` when hit.
        """
        context = current_context()
        if self._obs_quiet or not (context.tracer.enabled or context.metrics.enabled):
            return self._run(until, max_activations)
        # Either facility may be on alone; the other is a no-op stand-in.
        tracer, metrics = context.tracer, context.metrics
        events_before = self.events_executed
        activations_before = self.activations
        with tracer.span("hdl:sim", module=self.module.name, until=until) as span:
            end = self._run(until, max_activations)
            span.set(
                events=self.events_executed - events_before,
                activations=self.activations - activations_before,
                end_time=end,
            )
        metrics.counter("hdl.sim.runs").inc()
        metrics.counter("hdl.sim.events").inc(self.events_executed - events_before)
        metrics.counter("hdl.sim.activations").inc(
            self.activations - activations_before
        )
        return end

    def _run(self, until: int, max_activations: int) -> int:
        self._budget = max_activations
        self._settle()
        heap = self._heap
        pop = heapq.heappop
        while heap:
            event = pop(heap)
            action = event[2]
            if action is None:
                continue
            now = event[0]
            if now > until:
                heapq.heappush(heap, event)
                break
            self.now = now
            self.events_executed += 1
            action(self)
            # Drain same-time events before settling.
            while heap and heap[0][0] == now:
                action = pop(heap)[2]
                if action is not None:
                    self.events_executed += 1
                    action(self)
            self._settle()
        return self.now

    def next_event_time(self) -> Optional[int]:
        """Time of the next pending (uncancelled) event, or None."""
        heap = self._heap
        while heap and heap[0][2] is None:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    # -- results -----------------------------------------------------------------------

    def value(self, signal: str) -> str:
        return self.values[signal]

    def waveform(self, signal: str) -> List[Tuple[int, str]]:
        return list(self.waveforms[signal])


def simulate(
    module: Union[Module, CompiledModel],
    policy: OrderingPolicy = FIFO,
    until: int = 1_000_000,
    trace: Optional[Sequence[str]] = None,
) -> Simulator:
    """Convenience: build a simulator, run it, return it."""
    sim = Simulator(module, policy, trace_signals=trace)
    sim.run(until)
    return sim
