"""CPU pinning, host-speed calibration and the migration timer."""

import os

import pytest

from perfbench import harness


def test_calibration_kernel_is_deterministic():
    assert harness.calibration_kernel(12) == harness.calibration_kernel(12) > 0


def test_calibration_scales_by_the_best_sample():
    calibration = harness.Calibration()
    calibration.samples = [0.02, 0.014, 0.03]
    assert calibration.scale() == pytest.approx(harness.CALIBRATION_REFERENCE_S / 0.014)
    assert calibration.sample() > 0 and len(calibration.samples) == 4


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_pinning_picks_one_allowed_cpu():
    allowed = os.sched_getaffinity(0)
    try:
        cpu = harness.pin_to_fastest_cpu()
        assert cpu in allowed and os.sched_getaffinity(0) == {cpu}
    finally:
        os.sched_setaffinity(0, allowed)


def test_timed_migrations_records_each_design_and_restores_the_method():
    from cadinterop.schematic.migrate import Migrator
    from perfbench.workloads import migrate_corpus

    original = vars(Migrator)["migrate"]
    shared = migrate_corpus.setup()
    corpus = migrate_corpus.generate(3, shared, 0.2)
    seconds = {}
    with pytest.raises(RuntimeError):
        with migrate_corpus.timed_migrations(seconds):
            assert vars(Migrator)["migrate"] is not original
            migrator = Migrator(shared[1])
            for cell in corpus.cold[:2]:
                assert migrator.migrate(cell).clean
            raise RuntimeError("leave the block early")
    assert vars(Migrator)["migrate"] is original
    assert sorted(seconds) == sorted(cell.name for cell in corpus.cold[:2])
    assert all(value > 0 for value in seconds.values())
