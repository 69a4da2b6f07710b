# Development conveniences for the SPLIT reproduction.

.PHONY: install test coverage typecheck bench-check profile profile-serve experiments results examples serve net-test chaos-test clean

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

# The same coverage gate CI enforces (needs pytest-cov: pip install -e .[test]).
coverage:
	pytest tests/ -q --cov=repro --cov-report=term-missing:skip-covered --cov-fail-under=85

# Strict typing on the kernel-facing layers (the CI gate; pip install
# -e .[typecheck] to get mypy). Skips gracefully where mypy is absent so
# the target is safe in minimal containers.
typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy --strict src/repro/runtime src/repro/robustness; \
	else \
		echo "mypy not installed; skipping (pip install -e .[typecheck])"; \
	fi

# Tier-1 tests plus every benchmark's assertions with the timing
# collection disabled, plus the throughput floors (SPLIT_BENCH_PIN=1;
# see benchmarks/test_bench_regression.py): each end-to-end workload,
# run in-process, must reach a third of its median in
# benchmarks/e2e/baseline.json. Then a short end-to-end run of all five
# workloads at seed 0 (benchmarks/e2e), which exits 1 when any output
# check fails or any seed-0 digest differs from benchmarks/e2e/digests.json.
bench-check:
	pytest tests/ -q
	SPLIT_BENCH_PIN=1 pytest benchmarks/ -q --benchmark-disable
	python3 benchmarks/e2e --seed 0 --seconds 3

# The 100k streaming cell under cProfile (top-25 by cumulative time) —
# the loop the fast-lane optimisation work is steered by. Accepts
# N/TOP overrides: make profile N=200000 TOP=40
N ?= 100000
TOP ?= 25
profile:
	python -m benchmarks.profile_stream $(N) $(TOP)

# The wire replay loop under cProfile — client and server endpoints on
# one profiled event loop (the kernel's engine thread is `make profile`'s
# job). CODEC/BATCH select the wire path: make profile-serve CODEC=json BATCH=1
SERVE_N ?= 5000
CODEC ?= binary-v2
BATCH ?= 512
profile-serve:
	python -m benchmarks.profile_serve $(SERVE_N) $(TOP) $(CODEC) $(BATCH)

# The wire-level serving suite (differential replay, protocol fuzzing,
# concurrency stress, backpressure) — CI runs this three times in a row
# as a flake gate; see docs/serving.md.
net-test:
	pytest tests/server -m net -q

# The fault-injection / failover suites across the same 3-seed matrix
# CI runs (SPLIT_CHAOS_SEED re-parametrizes the fault plans); see
# docs/robustness.md.
chaos-test:
	for seed in 5 11 23; do \
		echo "=== chaos suite seed=$$seed ==="; \
		SPLIT_CHAOS_SEED=$$seed pytest tests/ -m chaos -q -p no:cacheprovider || exit 1; \
	done

# Serve the framed TCP protocol locally (Ctrl-C to stop); see
# docs/serving.md for the client side. HOST/PORT/SCALE/MODELS overrides:
# make serve PORT=7200 MODELS=yolov2,resnet50
HOST ?= 127.0.0.1
PORT ?= 7100
SCALE ?= 1e-5
MODELS ?= yolov2,vgg19
serve:
	python -m repro.server.net --host $(HOST) --port $(PORT) --scale $(SCALE) --models $(MODELS)

experiments:
	python -m repro.experiments all

results:
	python -m repro.experiments all --out results/

examples:
	python examples/quickstart.py
	python examples/autonomous_driving.py
	python examples/splitting_explorer.py
	python examples/qos_comparison.py
	python examples/edge_cluster.py

clean:
	rm -rf results/ .pytest_cache .split-cache src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
