"""cosim-lockstep: lock-step co-simulation over a signal bridge.

Each session bridges a generated stimulus module (W registers changed at
T timed steps) into a combinational consumer computing ``x_j = i_j ^ i_j+1``
and advances the pair one joint time step per ``CoSimulation.run`` call,
reading the consumer's outputs after each step.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import List, Tuple

from cadinterop.hdl import parser
from cadinterop.hdl.ast_nodes import Module
from cadinterop.hdl.cosim import BridgeSignal, CoSimulation

from perfbench.harness import Round, Spec, cpu_clock

#: (bridged signals W, timed steps T); every pair runs SESSIONS_PER_SHAPE times.
SHAPES = list(itertools.product((8, 12, 16), (120, 200)))
SESSIONS_PER_SHAPE = 3
#: Signals flipped at every step, so each step costs the same.
FLIPS = 3
STEP = 10

SPEC = Spec(
    name="cosim-lockstep",
    seed="picks each session's initial values and the signals flipped at each step",
    why=(
        "Simulator.run is called for every joint time step plus the settle "
        "calls, so run-loop entry cost and the bridge exchange dominate "
        "rather than activations; a scheduler that batches for race-ensemble "
        "but costs per call shows here"
    ),
    success=(
        "after every step each consumer output x_j equals s_j ^ s_j+1 of the "
        "stimulus values computed in Python",
    ),
    work_counter="bench.cosim_steps",
    names={"work_per_s": "cosim_steps_per_s", "op_ms_p50": "session_ms_p50"},
)


@dataclass
class Session:
    width: int
    steps: int
    stimulus: str
    consumer: str
    left: Module
    right: Module
    #: Consumer outputs (x_0, ..., x_W-2) after each step, step 0 first.
    expected: List[Tuple[str, ...]]


def setup():
    return None


def stimulus_source(name: str, width: int, steps: int, rng: random.Random):
    """The stimulus module and its register values after every step."""
    values = [rng.randrange(2) for _ in range(width)]
    body = [f"s{j} = {v};" for j, v in enumerate(values)]
    history = [list(values)]
    for _step in range(steps):
        for position, j in enumerate(rng.sample(range(width), FLIPS)):
            values[j] ^= 1
            body.append(f"{f'#{STEP} ' if position == 0 else ''}s{j} = {values[j]};")
        history.append(list(values))
    regs = ", ".join(f"s{j}" for j in range(width))
    source = f"module {name};\n  reg {regs};\n  initial begin {' '.join(body)} end\nendmodule"
    return source, history


def consumer_source(width: int) -> str:
    wires = ", ".join([f"i{j}" for j in range(width)] + [f"x{j}" for j in range(width - 1)])
    lines = [f"module xor{width};", f"  wire {wires};"]
    for j in range(width - 1):
        lines.append(f"  assign x{j} = i{j} ^ i{j + 1};")
    lines.append("endmodule")
    return "\n".join(lines)


def generate(seed: int, shared, scale: float = 1.0) -> List[Session]:
    rng = random.Random(seed)
    copies = max(1, round(SESSIONS_PER_SHAPE * scale))
    shapes = [shape for shape in SHAPES for _ in range(copies)]
    rng.shuffle(shapes)
    sessions = []
    for index, (width, steps) in enumerate(shapes):
        source, history = stimulus_source(f"stim{index}", width, steps, rng)
        expected = [
            tuple(str(values[j] ^ values[j + 1]) for j in range(width - 1))
            for values in history
        ]
        consumer = consumer_source(width)
        sessions.append(
            Session(
                width, steps, source, consumer,
                parser.parse_module(source), parser.parse_module(consumer), expected,
            )
        )
    return sessions


def expected_counts(sessions: List[Session]) -> dict:
    """Every step advances; each session compiles both of its modules."""
    return {
        "bench.cosim_steps": sum(session.steps for session in sessions),
        "hdl.compile.compile_calls": 2 * len(sessions),
    }


def run_round(shared, sessions: List[Session]) -> Round:
    result = Round()
    result.counters = {"bench.cosim_steps": 0, "hdl.cosim.exchanges": 0}
    for session in sessions:
        left, right = session.left, session.right
        bridge = [BridgeSignal("left", f"s{j}", f"i{j}") for j in range(session.width)]
        outputs = [f"x{j}" for j in range(session.width - 1)]
        seen = []
        start = cpu_clock()
        try:
            cosim = CoSimulation(left, right, bridge)
            for step in range(session.steps + 1):
                cosim.run(step * STEP)
                seen.append(tuple(cosim.value("right", name) for name in outputs))
        except Exception as exc:  # one bad session must not stop the round
            result.check(False, f"{left.name}: {type(exc).__name__}: {exc}")
            continue
        elapsed = cpu_clock() - start
        result.op_seconds[left.name] = elapsed
        result.counters["bench.cosim_steps"] += session.steps
        result.counters["hdl.cosim.exchanges"] += cosim.exchanges
        result.check(seen == session.expected, f"{left.name}: consumer outputs differ")
    return result
