# Convenience targets; `make test` is the tier-1 verification command.
PYTHON ?= python
export PYTHONPATH := src

.PHONY: test bench-smoke bench-engine bench-selftest install dev-install clean

test:
	$(PYTHON) -m pytest -x -q

# Writes the machine-readable summary to the repo root (committed, so
# the perf trajectory is reviewable across PRs).
bench-smoke:
	$(PYTHON) benchmarks/bench_engine.py --quick --json BENCH_engine.json

bench-engine:
	$(PYTHON) benchmarks/bench_engine.py --json BENCH_engine.json

# Self-test of the served-fleet benchmark in perfbench/ (outside the
# tier-1 testpaths): tiny runs of every workload, untraced and traced.
bench-selftest:
	$(PYTHON) -m pytest -q perfbench

install:
	pip install .

dev-install:
	pip install -e ".[test]"

clean:
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
	rm -rf .pytest_cache build dist *.egg-info src/*.egg-info
