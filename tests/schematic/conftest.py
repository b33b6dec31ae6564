"""Hypothesis profiles for the schematic suites.

``extraction-stress`` runs every generated test of ``test_wire_index.py``
at 2,000 examples (the tests ask for at least 200).  The
extraction-equivalence CI job selects it with a logged seed::

    python -m pytest tests/schematic/test_wire_index.py \
        --hypothesis-profile=extraction-stress --hypothesis-seed=SEED
"""

from hypothesis import settings

settings.register_profile("extraction-stress", max_examples=2000, print_blob=True)
