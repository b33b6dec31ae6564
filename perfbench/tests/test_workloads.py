"""Seeded generation, known answers and repeatable work counters."""

import pytest

from perfbench import harness


def fingerprint(name, inputs):
    """A plain-data view of a workload's generated inputs."""
    if name == "migrate-corpus":
        return [
            [
                (
                    cell.name,
                    page.number,
                    [(i.name, i.symbol.name, i.transform.offset, list(i.properties)) for i in page.instances],
                    [(tuple(w.points), w.label, w.label_position) for w in page.wires],
                    [(label.text, label.position) for label in page.labels],
                )
                for page in cell.pages
            ]
            for corpus in (inputs.cold, inputs.warm)
            for cell in corpus
        ] + [sorted(inputs.matched.items())]
    if name == "race-ensemble":
        return [(case.source, case.racy) for case in inputs]
    if name == "rtl-to-layout":
        return [(f.slices, f.source, f.placement_seed, f.vectors) for f in inputs]
    return [(s.stimulus, s.consumer, s.expected) for s in inputs]


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    workload = harness.load(name)
    shared = workload.setup()
    first = fingerprint(name, workload.generate(7, shared, 0.2))
    assert fingerprint(name, workload.generate(7, shared, 0.2)) == first
    assert fingerprint(name, workload.generate(8, shared, 0.2)) != first


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_two_tiny_runs_give_identical_counters(name):
    first, first_detail = harness.run(name, 5, 0.0, trace=False, scale=0.2, setup_repeats=1)
    second, second_detail = harness.run(name, 5, 0.0, trace=False, scale=0.2, setup_repeats=1)
    assert first["correct"] and second["correct"]
    assert first["failed"] == 0 and first["attempted"] > 0
    assert first_detail["counters_per_round"] == second_detail["counters_per_round"]
    assert first_detail["counters_per_round"][harness.load(name).SPEC.work_counter] > 0


def test_a_counter_the_generator_does_not_expect_fails_the_run(monkeypatch):
    workload = harness.load("cosim-lockstep")
    monkeypatch.setattr(workload, "expected_counts", lambda inputs: {"bench.cosim_steps": 1})
    result, detail = harness.run("cosim-lockstep", 1, 0.0, trace=False, scale=0.2, setup_repeats=1)
    assert not result["correct"] and result["failed"] == 0
    assert detail["counter_mismatches"]


def test_migrate_corpus_shape_mix_puts_p90_in_the_large_group():
    from perfbench.workloads import migrate_corpus

    shapes = migrate_corpus.shapes(1.0)
    large = sum(1 for _shape, is_large in shapes if is_large)
    assert len(shapes) >= 100
    # p90 falls among the large designs with at least ten samples beyond it.
    assert 0.1 * len(shapes) >= 10 and large > 0.1 * len(shapes)
    for (pages, chains, stages), is_large in shapes:
        wires = pages * chains * (stages + 1)
        assert (wires >= 60) if is_large else (wires < 60)


def test_race_verdicts_are_fixed_at_generation():
    from perfbench.workloads import race_ensemble

    cases = race_ensemble.generate(11, None, 1.0)
    assert sum(case.racy for case in cases) * 2 == len(cases)
    for case in cases:
        assert ("r = ~q" in case.source) == case.racy


def test_alu_reference_is_the_alu_function():
    from perfbench.workloads.rtl_to_layout import alu_reference

    values = {"a0": 1, "b0": 1, "a1": 0, "b1": 1, "sel": 1}
    assert alu_reference(2, values) == {"y0": "0", "y1": "1"}
    values["sel"] = 0
    assert alu_reference(2, values) == {"y0": "1", "y1": "0"}
