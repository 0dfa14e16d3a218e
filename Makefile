# Development entry points.  `make check` is the pre-merge gate: the
# tier-1 test suite (which includes the rule-maintenance and sharding
# differential gates), the fault-injection differential subset, the
# persisted-benchmark perf smoke gate, and the
# discovery/detection/sharding line-coverage gate.

PYTHON ?= python

.PHONY: check test fault-differential perf-gate coverage bench bench-remote bench-suite

check: test fault-differential perf-gate coverage

# The remote object-client gate: unit tests for the retry policy, HTTP
# client and fault injector, plus the differential harness run through
# the fault-injected HTTP client (identical rules and violations under
# injected faults, zero leaked objects after session close).  A subset
# of `test`, kept addressable on its own for quick iteration on the
# remote layer.
fault-differential:
	PYTHONPATH=src $(PYTHON) -m pytest -q \
		tests/sharding/test_remote.py tests/sharding/test_remote_differential.py

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# Validates the speedups recorded in BENCH_hotpath.json (runs no
# benches); fails loudly when any has regressed below its floor (1.0x;
# 2.0x for the sharded-detection and sharded-discovery benches; 3.0x
# for the rule-maintenance edit loop) or when a required
# bench is missing.  Re-measure with `make bench` after perf-relevant
# changes.
perf-gate:
	PYTHONPATH=src $(PYTHON) benchmarks/run_bench.py --check

# Line-coverage floor for the discovery, detection, sharding, and
# execution engines, measured with the stdlib trace module (no
# dependency; ~45s).
# Per-file table: `python tools/coverage_gate.py --report`.
coverage:
	PYTHONPATH=src $(PYTHON) tools/coverage_gate.py

bench:
	PYTHONPATH=src $(PYTHON) benchmarks/run_bench.py

# Only the remote-path benches: sharded detection with shard bytes
# behind the fault-injected loopback HTTP object client, sequential
# (remote_object_faults) and through the prefetching reader
# (pipelined_remote).  Prints the I/O-vs-compute overlap breakdown.
bench-remote:
	PYTHONPATH=src $(PYTHON) benchmarks/run_bench.py \
		--only remote_object_faults_64000 pipelined_remote_64000

# The full paper-experiment benchmark suite (pytest-benchmark, slow).
bench-suite:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ -q
