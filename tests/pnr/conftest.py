"""Hypothesis profiles for the place-and-route suites.

``routing-stress`` runs every generated router test at 2,000 examples (the
tests ask for at least 120).  The routing-equivalence CI job selects it
with a logged seed::

    python -m pytest tests/pnr/test_router_equivalence.py \
        --hypothesis-profile=routing-stress --hypothesis-seed=SEED
"""

from hypothesis import settings

settings.register_profile("routing-stress", max_examples=2000, print_blob=True)
