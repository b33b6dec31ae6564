"""Hypothesis profiles for the simulation-kernel suites.

``kernel-stress`` runs every generated test of the lowering differential
and the scheduler oracle at 2,000 examples (the tests ask for 60 to 150
under hypothesis's default profile).  The kernel-equivalence CI job
selects it with a logged seed::

    python -m pytest tests/hdl/test_kernel_differential.py \
        tests/hdl/test_scheduler_equivalence.py \
        --hypothesis-profile=kernel-stress --hypothesis-seed=SEED
"""

from hypothesis import settings

settings.register_profile("kernel-stress", max_examples=2000, print_blob=True)
