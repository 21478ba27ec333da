# Convenience targets for the FarGo reproduction.

PYTHON ?= python3

.PHONY: install test bench realpath-quick examples experiments loc clean

install:
	$(PYTHON) setup.py develop

test:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest tests/

# Source lines per src/repro package (the table shrink PRs quote in CHANGES.md).
loc:
	@for package in $$(ls -d src/repro/*/ | grep -v __pycache__); do \
		printf '%-24s %6d\n' "$$package" "$$(find "$$package" -name '*.py' | xargs cat | wc -l)"; \
	done
	@printf '%-24s %6d\n' "src/repro/*.py" "$$(cat src/repro/*.py | wc -l)"
	@printf '%-24s %6d\n' "total" "$$(find src -name '*.py' | xargs cat | wc -l)"

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# The wall-clock benchmark of BENCHMARK.json at 2 s per run, then its own unit
# tests: fails when a transport change breaks a name benchmarks/realpath/sut.py
# wraps, or fails an op.
realpath-quick:
	$(PYTHON) benchmarks/realpath/run.py --quick
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest -q benchmarks/realpath/tests

# Benchmark run with the experiment tables printed (EXPERIMENTS.md data).
experiments:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) "$$script" || exit 1; \
		echo; \
	done

clean:
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
