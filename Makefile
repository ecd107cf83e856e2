# Development entry points.  Everything runs from the source tree
# (PYTHONPATH=src), no install required.

PYTHON  ?= python
PYPATH  := PYTHONPATH=src
JOBS    ?=

.PHONY: test fuzz bench profile clean

## Run the tier-1 test suite.
test:
	$(PYPATH) $(PYTHON) -m pytest -q

## Fuzz seeded scenarios through the invariant oracle (tier 2).
## FUZZ_ARGS overrides, e.g. `make fuzz FUZZ_ARGS="--runs 1000 --seed 9"`.
FUZZ_ARGS ?= --runs 200 --seed 1
fuzz:
	$(PYPATH) $(PYTHON) -m repro verify fuzz $(FUZZ_ARGS)

## Run the paper-artefact benchmark suite (uses the on-disk result cache;
## REPRO_NO_CACHE=1 disables it, `make clean` drops it).
bench:
	$(PYPATH) $(PYTHON) -m pytest benchmarks -q -p no:cacheprovider

## Time the Fig. 5 configure sweep with per-layer spans; every run's
## digest is checked, so the last line must report "correct": true.
profile:
	$(PYTHON) simbench/run.py --workload configure-suite --seed 1 --trace 1

clean:
	rm -rf .repro-cache .pytest_cache .simbench
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
