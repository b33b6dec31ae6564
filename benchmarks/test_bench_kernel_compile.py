"""E18 — closure lowering vs reference lowering on the race-ensemble workload.

The simulator has one scheduler.  A module reaches it through one of two
lowerings into the same :class:`CompiledModel` layout: ``compile_model``
(closures over precomputed lookup tables, the production path) or
``reference_model`` (closures that walk the AST, the differential-test
oracle).  Ensemble runs (``detect_races``, co-simulation sweeps) execute
the *same model* once per personality, so per-activation cost is what the
closure lowering buys.  Rows: reference vs compiled ensemble wall time and
activations/second over a pipeline with combinational clouds and
deliberate write races.  Expected shape: compiled >= MIN_SPEEDUP x the
reference, identical values and waveforms per personality, equal
activation counts, and obs traces showing exactly one ``hdl:compile``
span serving all runs.
"""

import time

from cadinterop.hdl.compile import compile_calls, compile_model, reference_model
from cadinterop.hdl.parser import parse_module
from cadinterop.hdl.personalities import DEFAULT_ENSEMBLE, run_personality
from cadinterop.hdl.races import detect_races
from cadinterop.obs import ObsContext, Tracer, installed

#: Below the smallest of ten measured reference/compiled ratios (see
#: EXPERIMENTS.md E18).
MIN_SPEEDUP = 1.8
REPEATS = 5
UNTIL = 10_000


def build_workload(stages=10, toggles=40):
    """A pipeline with per-stage combinational clouds and two racy writers.

    Deep-ish expressions are the representative case: real models compute
    something between flops, and expression evaluation is exactly where
    tree-walking interpretation pays per activation.
    """
    lines = ["module ensemble_bench;", "  reg clk; reg d0;"]
    for i in range(1, stages + 1):
        lines.append(f"  reg q{i};")
        lines.append(f"  wire c{i};")
    lines.append("  initial begin clk = 0; d0 = 0; end")
    body = []
    for k in range(toggles):
        body.append(f"#5 clk = {k % 2 ^ 1};")
        if k % 3 == 0:
            body.append(f"d0 = {k % 2};")
    lines.append("  initial begin " + " ".join(body) + " end")
    for i in range(1, stages + 1):
        src = "d0" if i == 1 else f"q{i-1}"
        lines.append(
            f"  assign c{i} = ({src} ^ clk) | "
            f"(~{src} & (clk ^ {src})) ^ ({src} & ~clk);"
        )
        lines.append(f"  always @(posedge clk) q{i} = c{i} ^ {src};")
    lines.append("  reg r;")
    lines.append("  always @(posedge clk) r = q1;")
    lines.append(f"  always @(posedge clk) r = q{stages};")
    lines.append("endmodule")
    return parse_module("\n".join(lines))


def _run_ensemble(module, model):
    """One detect_races-shaped sweep: every personality over ``model``."""
    return [
        run_personality(module, personality, until=UNTIL, compiled=model)
        for personality in DEFAULT_ENSEMBLE
    ]


def _time_ensembles(module, models, rounds):
    """Best-of-REPEATS wall time and last runs per model.

    The models are timed in turn within each repeat, so a slow spell of
    the host lands on both sides of the ratio rather than on one.
    """
    for model in models:
        _run_ensemble(module, model)  # warmup
    best = [float("inf")] * len(models)
    runs = [None] * len(models)
    for _ in range(REPEATS):
        for i, model in enumerate(models):
            start = time.perf_counter()
            for _ in range(rounds):
                runs[i] = _run_ensemble(module, model)
            best[i] = min(best[i], time.perf_counter() - start)
    return best, runs


class TestLoweringSpeedup:
    def test_compiled_lowering_beats_reference_lowering(self, bench_scale):
        module = build_workload()
        rounds = 4 * bench_scale
        (reference_time, compiled_time), (reference_runs, compiled_runs) = (
            _time_ensembles(
                module, [reference_model(module), compile_model(module)], rounds
            )
        )
        speedup = reference_time / compiled_time

        # Same results first — a fast wrong lowering is worthless.
        assert detect_races(module, until=UNTIL).has_race
        for reference, compiled in zip(reference_runs, compiled_runs):
            assert reference.values == compiled.values
            assert reference.waveforms == compiled.waveforms

        rows = [
            ("reference", f"{reference_time * 1000:.1f}ms"),
            ("compiled", f"{compiled_time * 1000:.1f}ms"),
            ("speedup", f"{speedup:.2f}x"),
        ]
        print(f"\nE18 rows: {rows}")
        assert speedup >= MIN_SPEEDUP, (
            f"compiled lowering only {speedup:.2f}x over the reference "
            f"(reference {reference_time * 1000:.1f}ms, "
            f"compiled {compiled_time * 1000:.1f}ms)"
        )

    def test_activation_rates_and_counts_match(self, bench_scale):
        # Activations are the unit of simulation work; both lowerings must
        # do the same number of them (same schedule), so the speedup is
        # pure per-activation cost, not work skipped.
        module = build_workload()
        rates = {}
        for lower in (reference_model, compile_model):
            model = lower(module)
            total = 0
            start = time.perf_counter()
            for _ in range(2 * bench_scale):
                total += sum(sim.activations for sim in _run_ensemble(module, model))
            elapsed = time.perf_counter() - start
            rates[lower.__name__] = (total, total / elapsed)
        reference_total, reference_rate = rates["reference_model"]
        compiled_total, compiled_rate = rates["compile_model"]
        assert reference_total == compiled_total
        print(
            f"\nE18 rates: reference {reference_rate:,.0f} acts/s, "
            f"compiled {compiled_rate:,.0f} acts/s"
        )
        assert compiled_rate > reference_rate


class TestCompileOnceObservability:
    def test_trace_shows_one_compile_serving_all_runs(self):
        module = build_workload(stages=4, toggles=10)
        tracer = Tracer()
        before = compile_calls()
        with installed(ObsContext(tracer)):
            detect_races(module, until=1000)
        spans = tracer.spans()
        assert compile_calls() == before + 1
        compile_spans = [s for s in spans if s["name"] == "hdl:compile"]
        sim_spans = [s for s in spans if s["name"] == "hdl:sim"]
        assert len(compile_spans) == 1
        assert len(sim_spans) >= 4  # one per personality in the ensemble
