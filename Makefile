PYTHONPATH := src
export PYTHONPATH

.PHONY: check test paper bench bench-pairs outcome-diff chaos trace recover e2e-quick e2e-selftest

# The fast gate for every push: tier-1 minus the slow full-campaign
# tests (the run-lifecycle test, tests/evaluation/test_run_lifecycle.py,
# is in the first line), plus the slow half of the parallel-campaign
# determinism regression (its fast half already ran in the first line).
check:
	python -m pytest -q -m "not slow"
	python -m pytest -q -m slow tests/evaluation/test_parallel_campaign.py

# Seeded API-plane chaos regression (severe profile, zero crashed runs).
chaos:
	python -m pytest -q -m "chaos and not slow"

# Closed-loop recovery smoke: seeded recover-enabled campaign regressions
# (terminal classes per fault type, serial == parallel, chaos never crashes).
recover:
	python -m pytest -q -m "recovery and not slow"

# Observability smoke: traced seeded 8-run campaign, JSON export +
# span tree.  Fails if any pipeline stage stops producing spans.
trace:
	python -m repro trace-export --json trace.json --max-spans 40

# The complete tier-1 suite (what the roadmap's verify command runs).
test:
	python -m pytest -x -q

# The paper's tables and figures (Table I, Fig. 2/5/6/7, §II, §V.D,
# ablations) on the seeded 160-run campaign, run once per session and
# printing each one, and the fault-tree coverage table
# (tests/paper/coverage.py, checked by tests/paper/test_walk_replay.py
# while it replays every report of that campaign), which
# `make check` skips as slow.
paper:
	python -m pytest -q tests/paper -s

# The performance ledger (BENCHMARK.json, benchmarks/e2e/).  `e2e-quick`
# is a schema smoke of every workload; with `e2e-selftest` it fails when
# a boundary entry point the ledger wraps (Engine.step,
# AsgController.reconcile, CloudAPI.*, ...) was renamed — which would
# otherwise turn that layer's traced metrics into null without failing
# anything until a later benchmark run.
e2e-quick:
	python3 benchmarks/e2e/run.py --quick

e2e-selftest:
	python -m pytest benchmarks/e2e/tests -q

# The one performance harness: a full ledger run (all four workloads).
bench:
	python3 benchmarks/e2e/run.py

# What a performance claim rests on: alternating parent/change pairs of
# one ledger workload, each checkout running its own benchmarks/e2e/run.py.
#   make bench-pairs PARENT=/path/to/parent-checkout [W=campaign_paper N=10 SEED=2014]
W ?= campaign_paper
N ?= 10
SEED ?= 2014
bench-pairs:
	python3 tools/bench_pairs.py $(PARENT) . --workload $(W) --pairs $(N) --seed $(SEED)

# What a "no behaviour change" claim rests on: the seed's four campaigns in
# both checkouts, outcome by outcome; prints each campaign's differing JSON
# paths and exits 0 only when none differs.
#   make outcome-diff PARENT=/path/to/parent-checkout [SEED=2014]
outcome-diff:
	python3 tools/outcome_diff.py $(PARENT) . --seed $(SEED)
