"""One module per workload, each exposing ``SPEC``, ``setup()``,
``generate(seed, shared, scale)``, ``expected_counts(inputs)`` and
``run_round(shared, inputs)``."""
