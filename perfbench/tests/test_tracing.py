"""Self-time arithmetic, wrapper installation and removal."""

import json

import pytest

from perfbench import harness
from perfbench.tracing import LAYERS, LayerTracer, per_layer_spec, resolve, self_times


def test_self_time_of_a_leaf_is_its_duration():
    assert self_times([(-1, 1.0, 4.0)]) == [3.0]


def test_self_time_subtracts_nested_children_once():
    spans = [(-1, 0.0, 10.0), (0, 2.0, 5.0), (1, 3.0, 4.0)]
    assert self_times(spans) == [7.0, 2.0, 1.0]


def test_self_time_of_adjacent_children():
    spans = [(-1, 0.0, 10.0), (0, 1.0, 2.0), (0, 2.0, 3.0)]
    assert self_times(spans)[0] == pytest.approx(8.0)


def test_self_time_counts_overlapping_children_as_their_union():
    spans = [(-1, 0.0, 10.0), (0, 1.0, 3.0), (0, 2.0, 4.0), (0, 2.5, 3.5)]
    assert self_times(spans)[0] == pytest.approx(7.0)


def test_self_time_clips_children_to_the_parent():
    spans = [(-1, 0.0, 10.0), (0, 8.0, 12.0), (0, -1.0, 1.0)]
    assert self_times(spans)[0] == pytest.approx(7.0)


def test_wrappers_time_nested_calls_and_count_work():
    tracer = LayerTracer()
    with tracer:
        from cadinterop.hdl import races
        from cadinterop.hdl.parser import parse_module

        module = parse_module(
            "module m; reg clk; reg r;"
            " initial begin clk = 0; #5 clk = 1; end"
            " always @(posedge clk) r = 1; always @(posedge clk) r = 0;"
            " endmodule"
        )
        assert races.detect_races(module).racy_signals == ["r"]
    layers, counters = tracer.take()
    assert layers["hdl.races.detect_races"][0] == 1
    assert layers["hdl.simulator.Simulator.run"][0] == 4  # one per personality
    assert layers["hdl.compile.compile_model"][0] == 1
    assert counters["hdl.simulator.activations"] > 0
    detect_self = layers["hdl.races.detect_races"][1]
    assert 0 <= detect_self < sum(seconds for _calls, seconds in layers.values())


def _originals():
    originals = {}
    for layer in LAYERS:
        for site in layer.sites:
            owner, attr = resolve(site)
            originals[site] = vars(owner)[attr]
    return originals


def test_install_replaces_and_uninstall_restores_every_site():
    before = _originals()
    with LayerTracer():
        during = _originals()
        assert all(during[site] is not before[site] for site in before)
    after = _originals()
    assert all(after[site] is before[site] for site in before)


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_every_wrapped_attribute_is_original_after_a_traced_run(workload):
    before = _originals()
    result, _detail = harness.run(workload, 3, 0.0, trace=True, scale=0.2, setup_repeats=1)
    assert result["correct"]
    after = _originals()
    assert all(after[site] is before[site] for site in before)


def test_benchmark_json_lists_every_per_layer_metric():
    declared = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert declared["per_layer"] == per_layer_spec()
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(harness.WORKLOADS)
