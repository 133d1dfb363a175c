# Developer entry points.  `make check` is the full local gauntlet;
# `repro check` skips tools that are not installed (ruff, mypy) with a
# notice so the target works in minimal environments - CI passes
# --require-tools and installs them all.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: check lint simlint typecheck test sanitize coverage \
	bench-sanitizer trace-demo bench-telemetry bench-smoke bench-survival \
	importtime

check:
	$(PYTHON) -m repro check
	$(PYTHON) -m pytest -x -q
	@echo "check: all gates passed"

lint:
	@if $(PYTHON) -c "import ruff" 2>/dev/null || command -v ruff >/dev/null 2>&1; \
	then ruff check .; \
	else echo "lint: ruff not installed, skipping (CI runs it)"; fi

simlint:
	$(PYTHON) -m repro lint src tests benchmarks examples

typecheck:
	@if $(PYTHON) -c "import mypy" 2>/dev/null; \
	then $(PYTHON) -m mypy; \
	else echo "typecheck: mypy not installed, skipping (CI runs it)"; fi

test:
	$(PYTHON) -m pytest -x -q

# Run the tier-1 suite with the runtime sanitizer armed everywhere.
sanitize:
	REPRO_SANITIZE=1 $(PYTHON) -m pytest -x -q

# Statement coverage with the same floor CI enforces (the floor lives
# here so local runs and the CI coverage job can never disagree).
COV_FLOOR ?= 90
coverage:
	@if $(PYTHON) -c "import pytest_cov" 2>/dev/null; \
	then $(PYTHON) -m pytest -q --cov=repro --cov-report=term-missing \
		--cov-report=json --cov-fail-under=$(COV_FLOOR); \
	else echo "coverage: pytest-cov not installed, skipping (CI runs it)"; fi

# Sanitizer overhead + bit-identity report.
bench-sanitizer:
	$(PYTHON) -m repro lint --bench

# Trace one run end to end and leave a Perfetto-openable bundle behind.
trace-demo:
	REPRO_SCALE=0.2 $(PYTHON) examples/trace_a_run.py lbm trace_demo_bundle
	@echo "trace-demo: open trace_demo_bundle/trace.chrome.json at https://ui.perfetto.dev"

# Telemetry overhead + bit-identity gate (same check CI runs).
bench-telemetry:
	$(PYTHON) benchmarks/check_telemetry_overhead.py

# Every benchmark workload at tiny sizes, untraced and traced (CI's
# bench-smoke job runs the same command).
bench-smoke:
	$(PYTHON) bench/run.py --smoke

# The survival study with per-layer timing; its checkpoint probe times
# a single run's checkpoint.save_ms / restore_ms / snapshot_kb.
bench-survival:
	$(PYTHON) bench/run.py --workload survival --trace

# The 15 costliest imports of a plain run, by own import time (CI's
# tier-1 job writes the same list to its summary; it gates nothing).
importtime:
	$(PYTHON) benchmarks/importtime.py
