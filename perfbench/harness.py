"""Runs one workload: set-up timing, a reference round, timed rounds, metrics.

Every run goes through the same steps:

1. ``setup_s``: the median CPU time of several fresh interpreters that
   import the workload and build its shared objects, started at intervals
   through the run (untraced runs only).
2. Inputs are generated from the seed; the program sees only those.
3. A *reference round* runs with the layer wrappers installed and is not
   timed.  It warms the program's caches and takes every work counter.
4. Timed rounds run until ``seconds`` have passed: all untraced for
   ``--trace 0``; alternating untraced and traced for ``--trace 1``, which
   gives both the per-layer numbers and the tracing overhead.  Each
   operation's time is its best over the rounds (see :func:`run`).

Operations and set-up are timed in CPU seconds (:data:`cpu_clock`), not
wall seconds.  The program runs single-threaded and CPU-bound in one
process, so on a quiet machine the two agree; on a virtual machine, CPU time
leaves out the time the host gives this guest's CPUs to other guests (steal
time).  A shared host also runs the guest's own code slower while other
guests load it, in spells from seconds to minutes, and that CPU time does
count.  So every reported time is scaled to a fixed machine speed: a
:class:`Calibration` kernel, independent of the program, is timed between
rounds and around every set-up probe, and times are reported at the speed
at which that kernel takes :data:`CALIBRATION_REFERENCE_S`.  A spell that
slows the whole run slows the kernel by the same factor, which cancels.

Every round checks its outputs against answers fixed at generation and
compares its work counters with the reference round's exactly, and the
reference round's counters must equal the counts each workload's
``expected_counts`` derives from its inputs; a mismatch fails the run rather
than being averaged away.
"""

from __future__ import annotations

import heapq
import importlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench.tracing import LAYERS, COUNTERS, LayerTracer

ROOT = Path(__file__).resolve().parent.parent
#: Working directory for on-disk caches, inside the checkout; each round
#: removes its own cache.
WORK_DIR = ROOT / ".perfbench_tmp"

#: Workload name -> module under ``perfbench.workloads`` (imported lazily,
#: so a set-up probe imports only its own workload).
WORKLOADS = {
    "migrate-corpus": "migrate_corpus",
    "race-ensemble": "race_ensemble",
    "rtl-to-layout": "rtl_to_layout",
    "cosim-lockstep": "cosim_lockstep",
}

#: Fresh interpreters started to measure ``setup_s``; the median is reported.
SETUP_REPEATS = 9

#: The clock operations are timed with: CPU seconds of this process.
cpu_clock = time.process_time

#: Calibration kernel time that reported times are scaled to (about its
#: best time on the faster CPU of a shared 2-vCPU x86-64 VM, CPython 3.11).
CALIBRATION_REFERENCE_S = 0.007
#: Kernel timings per calibration sample; the sample is their best.
CALIBRATION_REPEATS = 3


def calibration_kernel(size: int = 40) -> int:
    """A fixed grid search in plain Python: tuples, sets, dicts and a heap,
    the operations the program's routers, simulators and netlisters spend
    their time on.  Returns the number of nodes reached."""
    blocked = {("m1", x, y) for x in range(0, size, 3) for y in range(3, size - 3) if (7 * x + y) % 11}
    best: Dict[Tuple[str, int, int], int] = {}
    heap = [(0, 0, ("m1", 1, 1))]
    pushed = 0
    while heap:
        cost, _order, node = heapq.heappop(heap)
        if node in best:
            continue
        best[node] = cost
        layer, x, y = node
        other = "m2" if layer == "m1" else "m1"
        for step in ((layer, x + 1, y), (layer, x - 1, y), (layer, x, y + 1), (layer, x, y - 1), (other, x, y)):
            if 0 <= step[1] < size and 0 <= step[2] < size and step not in blocked and step not in best:
                pushed += 1
                heapq.heappush(heap, (cost + 1, pushed, step))
    return len(best)


def kernel_seconds() -> float:
    """CPU seconds of :func:`calibration_kernel` now: the best of a few."""
    timings = []
    for _ in range(CALIBRATION_REPEATS):
        start = cpu_clock()
        calibration_kernel()
        timings.append(cpu_clock() - start)
    return min(timings)


def pin_to_fastest_cpu() -> Optional[int]:
    """Pin this process, and the set-up probes it starts, to the allowed CPU
    on which the calibration kernel runs fastest now; returns that CPU.

    The CPUs of a shared virtual machine can run at different speeds at the
    same moment (one may share a physical core with a busy neighbour), so a
    process the scheduler moves between them mixes two speeds in one run,
    and a probe started on the other CPU measures that CPU.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    speeds = {}
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        speeds[cpu] = kernel_seconds()
    fastest = min(speeds, key=speeds.get)
    os.sched_setaffinity(0, {fastest})
    return fastest


class Calibration:
    """Samples the host's speed with :func:`calibration_kernel` during a run."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> float:
        """CPU seconds of the kernel now."""
        self.samples.append(kernel_seconds())
        return self.samples[-1]

    def scale(self) -> float:
        """Factor from this run's best-of operation times to reference speed.

        Operation times are bests over the run, so they are scaled by the
        kernel's best over the run: both come from the run's fastest spells.
        """
        return CALIBRATION_REFERENCE_S / min(self.samples)

    def time_setup(self, name: str) -> float:
        """One set-up probe, at reference speed: its CPU seconds scaled by
        the kernel's best just before and just after it."""
        before = self.sample()
        seconds = time_setup(name)
        return seconds * CALIBRATION_REFERENCE_S / min(before, self.sample())


@dataclass(frozen=True)
class Spec:
    """A workload's declaration, kept next to its generator."""

    name: str
    #: What the seed argument decides.
    seed: str
    #: Why the workload is in the benchmark: the layers it stresses.
    why: str
    #: What every round checks; a miss counts as a failed operation.
    success: Tuple[str, ...]
    #: The counter ``work_per_s`` divides by the measured time.
    work_counter: str
    #: The workload's own names for the generic end-to-end metrics.
    names: Dict[str, str]


@dataclass
class Round:
    """What one pass over the inputs produced."""

    #: CPU seconds of each timed operation (design, module, flow, session)
    #: by operation name; every round runs the same operations.  A name
    #: ``op/part`` times one part of an operation, whose time is then the
    #: sum of its parts.
    op_seconds: Dict[str, float] = field(default_factory=dict)
    #: Operation name -> class of operations doing the same work (designs
    #: of one generated shape); an operation missing here is its own class.
    op_class: Dict[str, str] = field(default_factory=dict)
    #: CPU seconds ``work_per_s`` counts besides the timed operations
    #: (the farm's own bookkeeping in migrate-corpus).
    overhead_seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Work counters readable without wrappers.
    counters: Dict[str, int] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    #: Further timings reported under their own names (e.g. ``warm_rerun_s``).
    extras: Dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        """Count one operation against its known answer."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


def load(name: str):
    return importlib.import_module(f"perfbench.workloads.{WORKLOADS[name]}")


def python_path() -> str:
    parts = [str(ROOT), str(ROOT / "src")]
    if os.environ.get("PYTHONPATH"):
        parts.append(os.environ["PYTHONPATH"])
    return os.pathsep.join(parts)


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def time_setup(name: str) -> float:
    """CPU seconds (user and system) of one fresh interpreter importing the
    workload and building its shared objects."""
    code = f"import perfbench.workloads.{WORKLOADS[name]} as w; w.setup()"
    env = dict(os.environ, PYTHONPATH=python_path())
    start = _children_cpu()
    subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
        stdout=subprocess.DEVNULL,
    )
    return _children_cpu() - start


def _run_round(workload, shared, inputs, tracer: Optional[LayerTracer]):
    """One round; returns (round, wall seconds, per-layer data or None,
    counter mismatches)."""
    from cadinterop.hdl.compile import compile_calls

    compiles = compile_calls()
    layers = None
    mismatches = []
    start = time.perf_counter()
    if tracer is None:
        result = workload.run_round(shared, inputs)
    else:
        with tracer:
            result = workload.run_round(shared, inputs)
    wall = time.perf_counter() - start
    result.counters["hdl.compile.compile_calls"] = compile_calls() - compiles
    if tracer is not None:
        layers, traced = tracer.take()
        for key, value in traced.items():
            if result.counters.setdefault(key, value) != value:
                mismatches.append(
                    f"counter {key}: wrappers saw {value}, outputs say {result.counters[key]}"
                )
    return result, wall, layers, mismatches


def _quantile(values: List[float], q: int) -> float:
    """The q-th decile (q=5 is the median) of at least two values."""
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def host_info() -> Dict[str, object]:
    return {
        "node": platform.node(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
    }


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    setup_repeats: int = SETUP_REPEATS,
) -> Tuple[dict, dict]:
    """Run one workload; returns (result line, detail record)."""
    cpu = pin_to_fastest_cpu()
    workload = load(name)
    spec: Spec = workload.SPEC
    # Import-time work and .pyc writing happen here, before any set-up probe.
    shared = workload.setup()
    inputs = workload.generate(seed, shared, scale)
    tracer = LayerTracer()
    calibration = Calibration()
    # Set-up probes are spread over the run, not taken back to back, so a
    # few seconds of host slowdown cannot move all of them.
    probes: List[float] = []
    probe_every = seconds / setup_repeats
    next_probe = time.perf_counter()

    calibration.sample()
    reference, _wall, _layers, mismatches = _run_round(workload, shared, inputs, tracer)
    expected = workload.expected_counts(inputs)
    for key, want in sorted(expected.items()):
        if reference.counters.get(key, 0) != want:
            mismatches.append(
                f"counter {key}: {reference.counters.get(key, 0)}, the generator expects {want}"
            )
    attempted, failed = reference.attempted, reference.failed
    errors = list(reference.errors)

    untraced: List[Tuple[Round, float]] = []
    traced: List[Tuple[Round, float, dict]] = []
    deadline = time.perf_counter() + seconds
    while True:
        if not trace and len(probes) < setup_repeats and time.perf_counter() >= next_probe:
            probes.append(calibration.time_setup(name))
            next_probe += probe_every
        calibration.sample()
        use_tracer = trace and len(untraced) > len(traced)
        result, wall, layers, round_mismatches = _run_round(
            workload, shared, inputs, tracer if use_tracer else None
        )
        attempted += result.attempted
        failed += result.failed
        errors.extend(result.errors)
        mismatches.extend(round_mismatches)
        # Untraced rounds can only compare the counters their outputs show.
        keys = set(result.counters) | (set(reference.counters) if use_tracer else set())
        for key in sorted(keys):
            got, want = result.counters.get(key, 0), reference.counters.get(key, 0)
            if got != want:
                mismatches.append(
                    f"counter {key}: {got} this round, {want} in the reference round"
                )
        if use_tracer:
            traced.append((result, wall, layers))
        else:
            untraced.append((result, wall))
        if time.perf_counter() >= deadline and untraced and (traced or not trace):
            break
    while not trace and len(probes) < setup_repeats:
        probes.append(calibration.time_setup(name))

    # Every round repeats the same operations, so each operation (or part)
    # takes the best time over the rounds of every operation in its class.
    # On a shared host, interference only adds time, in bursts of a few
    # seconds; the best of many repeats is what the code costs, and it
    # repeats from run to run where medians do not.  The calibration then
    # scales it to reference speed.
    speed = calibration.scale()
    best: Dict[str, float] = {}
    for result, _wall in untraced:
        for op, op_seconds in result.op_seconds.items():
            key = result.op_class.get(op, op)
            best[key] = min(op_seconds * speed, best.get(key, op_seconds * speed))
    last = untraced[-1][0]
    per_op: Dict[str, float] = {}
    for op in last.op_seconds:
        whole = op.split("/")[0]
        per_op[whole] = per_op.get(whole, 0.0) + best[last.op_class.get(op, op)]
    ops = sorted(per_op.values())
    overhead = min(result.overhead_seconds for result, _wall in untraced) * speed
    work = reference.counters.get(spec.work_counter, 0)
    generic = {
        "work_per_s": (work / (sum(ops) + overhead), "1/s"),
        "op_ms_p50": (_quantile(ops, 5) * 1e3, "ms"),
        "op_ms_p90": (_quantile(ops, 9) * 1e3, "ms"),
    }
    if trace:
        metrics = _per_layer(reference, traced, untraced)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(probes), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
        for key, (value, unit) in generic.items():
            metrics[key] = {"value": value, "unit": unit}

    named = {spec.names[key]: value for key, (value, _unit) in generic.items() if key in spec.names}
    for key in untraced[0][0].extras:
        named[key] = min(result.extras[key] for result, _wall in untraced) * speed
    detail = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "scale": scale,
        "host": host_info(),
        "spec": asdict(spec),
        "rounds": {"untraced": len(untraced), "traced": len(traced)},
        "ops": len(ops),
        "setup_probes": probes,
        "calibration": {
            "cpu": cpu,
            "reference_s": CALIBRATION_REFERENCE_S,
            "best_s": min(calibration.samples),
            "samples": len(calibration.samples),
            "scale": speed,
        },
        "counters_per_round": reference.counters,
        "expected_counts": expected,
        "named_metrics": named,
        "errors": errors[:10],
        "counter_mismatches": mismatches[:10],
    }
    if trace:
        selfs = {k[: -len(".self_ms")]: v["value"] for k, v in metrics.items() if k.endswith(".self_ms")}
        detail["largest_self"] = max(selfs, key=selfs.get)
    result_line = {
        "correct": failed == 0 and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result_line, detail


def _per_layer(reference: Round, traced, untraced) -> Dict[str, dict]:
    """Per-layer metrics: calls and self time per traced round (self time is
    the best over the traced rounds, as for operations), the reference
    round's work counters and the tracing overhead."""
    calls: Dict[str, int] = {}
    best: Dict[str, float] = {}
    for _result, _wall, layers in traced:
        for layer_name, (count, seconds) in layers.items():
            calls[layer_name] = count
            best[layer_name] = min(seconds, best.get(layer_name, seconds))
    metrics: Dict[str, dict] = {}
    for layer in LAYERS:
        metrics[f"{layer.name}.calls"] = {"value": calls[layer.name], "unit": "count"}
        metrics[f"{layer.name}.self_ms"] = {"value": best[layer.name] * 1e3, "unit": "ms"}
    for counter, _better in COUNTERS:
        metrics[counter] = {"value": reference.counters.get(counter, 0), "unit": "count"}
    hits = reference.counters.get("farm.cache.hits", 0)
    lookups = hits + reference.counters.get("farm.cache.misses", 0)
    metrics["farm.cache.hit_ratio"] = {"value": hits / lookups if lookups else 0.0, "unit": "frac"}
    overhead = min(wall for _r, wall, _l in traced) / min(wall for _r, wall in untraced) - 1.0
    metrics["bench.trace_overhead_frac"] = {"value": overhead, "unit": "frac"}
    return metrics
