"""race-ensemble: personality-ensemble race detection on the compiled kernel.

E18-shaped clocked pipelines (a combinational cloud between flops) of
varied depth and clock-toggle count.  Half carry a designed racy writer
pair — two ``posedge`` blocks writing ``r`` with blocking assignments of
opposite values — and half are race-free: nonblocking flops, one writer,
and data that changes only on the falling edge.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import List, Tuple

from cadinterop.hdl import parser, races
from cadinterop.hdl.ast_nodes import Module

from perfbench.harness import Round, Spec, cpu_clock

#: (pipeline stages, clock toggles); every pair runs once racy, once race-free.
SHAPES = list(itertools.product((6, 8, 10, 12), (160, 240)))
#: Simulation horizon: past the last toggle (5 time units each) of any shape.
UNTIL = 10_000

SPEC = Spec(
    name="race-ensemble",
    seed=(
        "permutes the modules and picks, per module, which half of the "
        "falling edges change the data input and which flop the racy pair "
        "reads; depths and toggle counts are fixed, so every seed does about "
        "the same work"
    ),
    why=(
        "long runs put most of the time in the simulator scheduler and "
        "expression closures with one compile_model per module; this is "
        "where a change to the scheduler shows"
    ),
    success=(
        "racy modules: detect_races reports a race on exactly {r}",
        "race-free modules: detect_races reports no race",
    ),
    work_counter="hdl.simulator.activations",
    names={"work_per_s": "activations_per_s", "op_ms_p50": "module_ms_p50"},
)


@dataclass
class Case:
    source: str
    module: Module
    racy: bool


def setup():
    return None


def pipeline_source(name: str, stages: int, toggles: int, racy: bool, rng: random.Random) -> str:
    """A clocked pipeline whose race verdict is ``racy`` by construction.

    Every signal name fits in eight characters, so the eight-character
    personality simulates the same module and the ensemble compiles once.
    """
    lines = [f"module {name};", "  reg clk; reg d0; reg r;"]
    for i in range(1, stages + 1):
        lines.append(f"  reg q{i}; wire c{i};")
    lines.append("  initial begin clk = 0; d0 = 0; end")
    # d0 changes on a fixed number of falling edges (data settles long
    # before the next rising edge); the seed picks which ones, so every
    # seed drives the pipeline about equally hard.
    falling = toggles // 2
    flips = set(rng.sample(range(falling), falling // 2))
    body = []
    data = 0
    for k in range(toggles):
        body.append(f"#5 clk = {(k + 1) % 2};")
        if k % 2 and k // 2 in flips:
            data ^= 1
            body.append(f"d0 = {data};")
    lines.append("  initial begin " + " ".join(body) + " end")
    for i in range(1, stages + 1):
        src = "d0" if i == 1 else f"q{i - 1}"
        lines.append(
            f"  assign c{i} = ({src} ^ d0) | (~{src} & ({src} ^ d0)) ^ ({src} & ~d0);"
        )
        lines.append(f"  always @(posedge clk) q{i} <= c{i} ^ {src};")
    tap = rng.randrange(1, stages + 1)
    if racy:
        lines.append(f"  always @(posedge clk) r = q{tap};")
        lines.append(f"  always @(posedge clk) r = ~q{tap};")
    else:
        lines.append(f"  always @(posedge clk) r <= q{tap};")
    lines.append("endmodule")
    return "\n".join(lines)


def shapes(scale: float) -> List[Tuple[int, int, bool]]:
    """(stages, toggles, racy) for every module; ``scale`` < 1 keeps a prefix."""
    pairs = SHAPES[: max(1, round(len(SHAPES) * scale))]
    return [(stages, toggles, racy) for stages, toggles in pairs for racy in (True, False)]


def generate(seed: int, shared, scale: float = 1.0) -> List[Case]:
    rng = random.Random(seed)
    order = shapes(scale)
    rng.shuffle(order)
    cases = []
    for index, (stages, toggles, racy) in enumerate(order):
        source = pipeline_source(f"pipe{index}", stages, toggles, racy, rng)
        cases.append(Case(source, parser.parse_module(source), racy))
    return cases


def expected_counts(cases: List[Case]) -> dict:
    """One compile per module: the whole ensemble shares it."""
    return {"hdl.compile.compile_calls": len(cases)}


def run_round(shared, cases: List[Case]) -> Round:
    result = Round()
    for case in cases:
        module = case.module
        start = cpu_clock()
        try:
            report = races.detect_races(module, until=UNTIL)
        except Exception as exc:  # one bad module must not stop the round
            result.check(False, f"{module.name}: {type(exc).__name__}: {exc}")
            continue
        elapsed = cpu_clock() - start
        result.op_seconds[module.name] = elapsed
        expected = ["r"] if case.racy else []
        result.check(
            report.racy_signals == expected,
            f"{module.name}: racy signals {report.racy_signals}, expected {expected}",
        )
    return result
