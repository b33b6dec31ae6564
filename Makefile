# Convenience targets for the cadinterop reproduction.

PYTHON ?= python

.PHONY: install test bench rows examples farm trace audit checklist kernels all clean

install:
	pip install -e .

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Regenerate the experiment rows recorded in EXPERIMENTS.md.
rows:
	$(PYTHON) -m pytest benchmarks/ -s --benchmark-disable

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/exar_migration.py
	$(PYTHON) examples/simulator_portability.py
	$(PYTHON) examples/pnr_backplane.py
	$(PYTHON) examples/tapeout_workflow.py
	$(PYTHON) examples/methodology_audit.py
	$(PYTHON) examples/rtl_to_layout.py
	$(PYTHON) examples/farm_migration.py

# Corpus migration demo: parallel workers + content-hash cache.
farm:
	$(PYTHON) examples/farm_migration.py

# Traced batch migration: span tree + stats table on stdout.
trace:
	$(PYTHON) -m cadinterop.cli trace migrate-batch --generate 8 --jobs 2

# Provenance audit: trace a batch migration of the demo corpus (lineage
# on), then render the per-stage/per-dialect loss matrix from the trace.
audit:
	$(PYTHON) -m cadinterop.cli trace --trace-out lineage.jsonl \
		migrate-batch --generate 8 --jobs 2
	$(PYTHON) -m cadinterop.cli audit lineage.jsonl

checklist:
	$(PYTHON) -m cadinterop.cli checklist --scenario full-asic

# Lowering equivalence (compiled vs reference lowering) + the E18 speedup row.
kernels:
	$(PYTHON) -m pytest tests/hdl/test_kernel_differential.py tests/hdl/test_scheduler_equivalence.py tests/hdl/test_expr_tables.py -q
	$(PYTHON) -m pytest benchmarks/test_bench_kernel_compile.py -s --benchmark-disable

all: test bench examples

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null || true
	rm -rf .pytest_cache .hypothesis
