"""Equivalence tests: the integer-id scheduler vs the one it replaced.

:class:`Simulator` schedules process ids: the ready queue is a list of
ints with a ``bytearray`` of queued flags, the policy is handed the ready
list itself, timed events are plain ``[time, sequence, action]`` lists (a
cancelled one has no action), and the NBA phase is applied inside
``_settle``.  :class:`OracleSimulator` below is the scheduler as it was
before, kept verbatim apart from the lines that turn the model's id tables
back into process objects and a ``run`` without the tracing branch (the
oracle runs with observability off): a ready list of processes with a
ready *set*, ``select(range(count), ordinal)``, and ordered dataclass
events with a ``cancelled`` flag.

The lowering differential (``test_kernel_differential.py``) runs both
lowerings through the *same* scheduler, so it cannot see a scheduler
fault.  Here the same compiled model runs through both schedulers, with
every run closure wrapped to record its process id, and the two must agree
on the process id run at every activation ordinal, final values, full
waveforms, ``activations``, ``events_executed``, the time each
``run(until)`` returns, ``next_event_time()`` and the ``HDLError`` text an
exhausted activation budget raises.  Runs are stepped (``run(t1);
run(t2); ...``), and modules carry delayed (inertial) drivers, so
superseded events are cancelled and skipped on both sides.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

import pytest
from hypothesis import given, strategies as st

from test_kernel_differential import CORPUS, flat_modules, generated

from cadinterop.hdl.ast_nodes import HDLError, Module
from cadinterop.hdl.compile import (
    CompiledModel,
    CompiledProcess,
    compile_model,
    reference_model,
)
from cadinterop.hdl.logic import Logic4
from cadinterop.hdl.parser import parse_module
from cadinterop.hdl.simulator import (
    FIFO,
    LIFO,
    OrderingPolicy,
    Simulator,
    seeded_shuffle_policy,
)
from cadinterop.obs import current_context, get_tracer


# ---------------------------------------------------------------------------
# The scheduler before integer ids, kept as the oracle
# ---------------------------------------------------------------------------


@dataclass(order=True)
class _TimedEvent:
    time: int
    sequence: int
    action: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class OracleSimulator:
    """Simulate one (flat) module under a given event-ordering policy."""

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

            self._heap: List[_TimedEvent] = []
            self._sequence = 0
            self._ready: List[CompiledProcess] = []
            self._ready_set: Set[int] = set()
            self._nba: List[Tuple[str, str]] = []
            #: Activations left before :class:`HDLError`; set by each ``run``.
            self._budget = 0

            # The model's tables hold ids now; this scheduler wants objects.
            self._triggers = _process_triggers(model)
            # Driver bookkeeping for resolution on multiply-driven nets.
            self._drivers_of = model.drivers_of
            self._driver_values: Dict[int, str] = {
                i: "z" for i in range(model.driver_count)
            }
            self._pending_updates: Dict[int, _TimedEvent] = {}

            # Everything but always blocks runs once at time zero
            # (continuous assigns settle, initial blocks start).
            for process in (model.processes[i] for i in model.startup):
                self._activate(process)
            span.set(processes=len(model.processes), nets=len(module.nets))

    # -- scheduling ------------------------------------------------------------

    def _activate(self, process: CompiledProcess) -> None:
        if process.index not in self._ready_set:
            self._ready.append(process)
            self._ready_set.add(process.index)

    def _schedule(self, delay: int, action: Callable[[], None]) -> _TimedEvent:
        event = _TimedEvent(self.now + delay, self._sequence, action)
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
            pending.cancelled = True
        event = self._schedule(delay, lambda: self._apply_drive(driver_id, signal, value))
        self._pending_updates[driver_id] = event

    def _apply_drive(self, driver_id: int, signal: str, value: str) -> None:
        self._pending_updates.pop(driver_id, None)
        self._driver_values[driver_id] = value
        contributions = [self._driver_values[d] for d in self._drivers_of[signal]]
        self.set_signal(signal, Logic4.resolve_many(contributions))

    def set_signal(self, signal: str, value: str) -> None:
        """Update a signal value, waking the processes its wake table names."""
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
        ready_set = self._ready_set
        ready = self._ready
        for process in woken:
            index = process.index
            if index not in ready_set:
                ready.append(process)
                ready_set.add(index)

    # -- procedural execution ------------------------------------------------------

    def _resume_initial(self, steps: Sequence, position: int) -> None:
        """Run initial-block steps from ``position``; ints are delays."""
        while position < len(steps):
            step = steps[position]
            position += 1
            if isinstance(step, int):
                self._schedule(
                    step,
                    lambda s=steps, p=position: self._resume_initial(s, p),
                )
                return
            step(self)

    # -- the event loop ---------------------------------------------------------------

    def _run_ready(self) -> None:
        """Run ready activations, one policy choice each, until none remain."""
        ready = self._ready
        ready_set = self._ready_set
        select = self.policy.select
        remaining = self._budget
        ordinal = self.activations
        try:
            while ready:
                remaining -= 1
                if remaining < 0:
                    ordinal += 1
                    raise HDLError(
                        f"activation budget exhausted at t={self.now} "
                        "(zero-delay oscillation?)"
                    )
                count = len(ready)
                if count == 1:
                    choice = 0
                else:
                    choice = select(range(count), ordinal)
                ordinal += 1
                process = ready.pop(choice)
                ready_set.discard(process.index)
                process.run(self)
        finally:
            self._budget = remaining
            self.activations = ordinal

    def _apply_nba(self) -> bool:
        if not self._nba:
            return False
        updates, self._nba = self._nba, []
        for signal, value in updates:
            self.set_signal(signal, value)
        return True

    def _settle(self) -> None:
        """Exhaust the current simulation time (active + NBA phases)."""
        while True:
            self._run_ready()
            if not self._apply_nba() and not self._ready:
                break

    def run(self, until: int = 1_000_000, max_activations: int = 1_000_000) -> int:
        """Run until ``until`` or event exhaustion; returns the end time."""
        context = current_context()
        if self._obs_quiet or not (context.tracer.enabled or context.metrics.enabled):
            return self._run(until, max_activations)
        raise AssertionError("the oracle runs with observability off")

    def _run(self, until: int, max_activations: int) -> int:
        self._budget = max_activations
        self._settle()
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            if event.time > until:
                heapq.heappush(self._heap, event)
                break
            self.now = event.time
            self.events_executed += 1
            event.action()
            # Drain same-time events before settling.
            while self._heap and self._heap[0].time == self.now:
                follow = heapq.heappop(self._heap)
                if not follow.cancelled:
                    self.events_executed += 1
                    follow.action()
            self._settle()
        return self.now

    def next_event_time(self) -> Optional[int]:
        """Time of the next pending (uncancelled) event, or None."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None


#: The policies as they were, so a fault in the production ones shows too.
ORACLE_FIFO = OrderingPolicy("fifo", lambda ready, ordinal: 0)
ORACLE_LIFO = OrderingPolicy("lifo", lambda ready, ordinal: len(ready) - 1)

_MASK64 = (1 << 64) - 1


def oracle_shuffle_policy(seed: int) -> OrderingPolicy:
    offset = (seed * 0x9E3779B97F4A7C15 + 1) & _MASK64

    def select(ready: Sequence[int], ordinal: int) -> int:
        x = (offset + ordinal) & _MASK64
        x ^= x >> 30
        x = (x * 0xBF58476D1CE4E5B9) & _MASK64
        x ^= x >> 27
        x = (x * 0x94D049BB133111EB) & _MASK64
        x ^= x >> 31
        return x % len(ready)

    return OrderingPolicy(f"shuffle{seed}", select)


def _process_triggers(model):
    processes = model.processes
    return {
        signal: {level: tuple(processes[i] for i in ids) for level, ids in table.items()}
        for signal, table in model.triggers.items()
    }


# ---------------------------------------------------------------------------
# Running both schedulers on one model
# ---------------------------------------------------------------------------

#: Modules beyond the differential corpus: a zero-delay oscillation (the
#: budget error) and inertial drivers sharing a net, whose pending updates
#: are superseded at several times.
EXTRA = {
    "zero_delay_ring": """
        module zero_delay_ring;
          reg a; reg b; reg go;
          wire w;
          assign #2 w = a;
          always @(a or go) if (go) a = ~a;
          always @(a) b = a;
          initial begin #2 a = 0; #1 go = 1; end
        endmodule
    """,
    "inertial_bus": """
        module inertial_bus;
          reg a; reg b; reg clk; reg q;
          wire w; wire v;
          assign #2 w = a;
          assign #3 w = b;
          and #1 g1 (v, w, a);
          always @(posedge clk) q <= v;
          always @(w) b = ~a;
          initial begin a = 0; b = 1; clk = 0; #1 a = 1; #1 a = 0; clk = 1;
            #1 b = 0; #1 clk = 0; #2 a = 1; clk = 1; #5 b = 1'bz; end
        endmodule
    """,
}
MODULES = {**CORPUS, **EXTRA}

#: (name, production policy, the oracle's copy of it).
POLICIES = [
    ("fifo", FIFO, ORACLE_FIFO),
    ("lifo", LIFO, ORACLE_LIFO),
    ("shuffle11", seeded_shuffle_policy(11), oracle_shuffle_policy(11)),
    ("shuffle97", seeded_shuffle_policy(97), oracle_shuffle_policy(97)),
]
POLICY_PAIRS = [pytest.param(pair, id=pair[0]) for pair in POLICIES]

#: ``run(until)`` stop lists: one long run, and stepped runs that stop
#: between events, on an event's time, and repeat a time.
STOPS = [(1000,), (7, 7, 15, 1000), (0, 1, 2, 3, 5, 8, 13, 21, 60)]
#: Activation budgets per ``run``: tight ones exhaust mid-settle; the
#: last is ample for every module but the oscillating one.
BUDGETS = [1, 4, 15, 5_000]


def recording(model: CompiledModel, schedule: List[int]) -> CompiledModel:
    """``model`` with every run closure wrapped to append its process id."""

    def wrap(process: CompiledProcess) -> CompiledProcess:
        run, index = process.run, process.index

        def recorded(sim) -> None:
            schedule.append(index)
            run(sim)

        return CompiledProcess(index, process.kind, recorded)

    return CompiledModel(
        module=model.module,
        processes=tuple(wrap(p) for p in model.processes),
        triggers=model.triggers,
        drivers_of=model.drivers_of,
        driver_count=model.driver_count,
        startup=model.startup,
    )


def observe(scheduler, model, policy, stops, budget, peek):
    """Everything a run of ``scheduler`` shows, for comparing two of them."""
    schedule: List[int] = []
    sim = scheduler(recording(model, schedule), policy,
                    trace_signals=sorted(model.module.nets))
    returns = []
    for until in stops:
        try:
            returns.append(sim.run(until, max_activations=budget))
        except HDLError as exc:
            returns.append(str(exc))
        if peek:
            returns.append(sim.next_event_time())
    returns.append(sim.next_event_time())
    return {
        "schedule": schedule,
        "returns": returns,
        "values": sim.values,
        "waveforms": sim.waveforms,
        "activations": sim.activations,
        "events_executed": sim.events_executed,
        "now": sim.now,
    }


def assert_schedulers_agree(model, pair, stops=(1000,), budget=BUDGETS[-1], peek=False):
    _, policy, oracle_policy = pair
    expected = observe(OracleSimulator, model, oracle_policy, stops, budget, peek)
    actual = observe(Simulator, model, policy, stops, budget, peek)
    # The schedule first: a diverging id names the first wrong choice.
    assert actual["schedule"] == expected["schedule"]
    assert actual == expected
    # Every activation ran exactly one recorded closure.
    assert len(actual["schedule"]) == actual["activations"] - sum(
        isinstance(r, str) for r in actual["returns"]
    )
    return actual


class TestCorpusSchedules:
    @pytest.mark.parametrize("pair", POLICY_PAIRS)
    @pytest.mark.parametrize("stops", STOPS, ids=["single", "stepped", "fine"])
    @pytest.mark.parametrize("name", sorted(MODULES))
    def test_same_schedule(self, name, stops, pair):
        model = compile_model(parse_module(MODULES[name]))
        assert_schedulers_agree(model, pair, stops)
        assert_schedulers_agree(model, pair, stops, peek=True)

    @pytest.mark.parametrize("pair", POLICY_PAIRS)
    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("name", sorted(MODULES))
    def test_same_budget_errors(self, name, budget, pair):
        model = compile_model(parse_module(MODULES[name]))
        assert_schedulers_agree(model, pair, STOPS[1], budget)

    @pytest.mark.parametrize("pair", POLICY_PAIRS)
    def test_oscillation_raises_the_same_error(self, pair):
        model = compile_model(parse_module(EXTRA["zero_delay_ring"]))
        seen = assert_schedulers_agree(model, pair, (1000,), budget=50)
        assert seen["returns"][0] == (
            "activation budget exhausted at t=3 (zero-delay oscillation?)"
        )

    def test_peek_after_an_error_skips_the_superseded_update(self):
        # Under FIFO the oscillation re-runs the delayed assign, whose
        # superseded update at t=4 is left on top of the live one at t=5.
        model = compile_model(parse_module(EXTRA["zero_delay_ring"]))
        seen = assert_schedulers_agree(model, POLICIES[0], (1000,), budget=50)
        assert seen["returns"][1] == 5

    @pytest.mark.parametrize("pair", POLICY_PAIRS)
    def test_superseded_events_are_skipped(self, pair):
        # Inertial drivers cancel pending updates; both schedulers must
        # skip them without counting them as executed events.
        model = compile_model(parse_module(EXTRA["inertial_bus"]))
        assert_schedulers_agree(model, pair, STOPS[2], peek=True)
        sim = Simulator(model, pair[1])
        sim.run(1000)
        assert sim._sequence > sim.events_executed

    @pytest.mark.parametrize("name", sorted(MODULES))
    def test_reference_lowering_same_schedule(self, name):
        model = reference_model(parse_module(MODULES[name]))
        for pair in POLICIES:
            assert_schedulers_agree(model, pair, STOPS[1])


class TestGeneratedSchedules:
    @given(
        module=flat_modules(),
        stops=st.lists(st.integers(0, 40), min_size=1, max_size=4).map(sorted),
        budget=st.sampled_from((2, 9, 40, 400)),
        peek=st.booleans(),
    )
    @generated(150)
    def test_generated_modules_same_schedule(self, module, stops, budget, peek):
        model = compile_model(module)
        for pair in POLICIES:
            assert_schedulers_agree(model, pair, stops + [60], budget, peek)
