PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: check test perfbench-test lint typecheck analyze explain-examples bench-quick bench loc

# Tier-1 gate plus lint, typecheck, static analysis, explain-plan smoke,
# the end-to-end benchmark's self-tests and the quick benchmark pass; CI
# runs exactly this.
check: lint typecheck analyze explain-examples test perfbench-test bench-quick

test:
	$(PYTHON) -m pytest -x -q

# The perfbench harness's own tests (about a second); bare pytest does not
# collect them (testpaths=tests).
perfbench-test:
	$(PYTHON) -m pytest perfbench/tests -q

# Ruff is configured in pyproject.toml but is not part of the runtime
# image; skip with a notice when it is unavailable (CI installs it).
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests; \
	else \
		echo "ruff not installed; skipping lint (CI runs it)"; \
	fi

# Gradual typing (configured in pyproject.toml: repro.analysis and
# repro.datalog are checked, the rest is exempt until migrated).  Like
# ruff, mypy is not part of the runtime image; skip with a notice when it
# is unavailable (CI installs it).
typecheck:
	@if $(PYTHON) -m mypy --version >/dev/null 2>&1; then \
		$(PYTHON) -m mypy; \
	else \
		echo "mypy not installed; skipping typecheck (CI runs it)"; \
	fi

# Static-analysis smoke gate: every example program must be free of
# error-severity diagnostics (see docs/ANALYSIS.md for the rule catalog).
analyze:
	$(PYTHON) -m repro.analysis examples

# Explain-plan smoke gate: --explain must render a plan (or a clean
# "not explainable" verdict for non-core Elog wrappers) for every
# embedded example program without crashing.
explain-examples:
	$(PYTHON) -m repro.analysis --explain examples

# Also writes BENCH_engine.json (workload -> median seconds) at the repo
# root; CI uploads it as the engine perf-trajectory artifact.
bench-quick:
	$(PYTHON) -m pytest benchmarks -x -q --quick --benchmark-disable

bench:
	$(PYTHON) -m pytest benchmarks -q --benchmark-only

# Total lines of Python under src/: the size ROADMAP.md scores a change by
# (net lines removed from src/).
loc:
	@find src -name '*.py' | xargs cat | wc -l
