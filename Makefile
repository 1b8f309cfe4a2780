.PHONY: all build test lint bench-smoke bench-sweep bench-daemon bench-failures bench-cold bench-edit bench-gate check clean

all: build

build:
	dune build

test:
	dune runtest

# Lint the shipped example fixtures with every registered pass.
lint: build
	dune exec bin/batfish_cli.exe -- lint --strict examples/configs/clean_small

# Fast benchmark subset: exercises the sharded parallel verification engine
# (and fails if parallel results ever diverge from the sequential engine) and
# writes machine-readable BENCH_results.json for the perf trajectory.
# Fails (exit 1) when any parallel/incremental record diverges from the
# sequential engine, or when a single-edit incremental.* record reports
# nodes_reused = 0 — the per-node route-delta reuse must actually engage.
bench-smoke: build
	dune exec bench/main.exe -- smoke --scale 1

# Interchangeable-source grouping scale sweep (schema 8 "sweep" section of
# BENCH_results.json): all-pairs wall time one pass per start vs one pass
# per group, start and group counts, peak RSS and BDD node counts across
# several NET12 scale factors. Exits 1 if grouped rows ever differ from the
# per-start rows, if grouping fails to win at the largest factor, or if it
# wins by less than 2x at >= 500 devices. --scale 2 adds the ~1k-device
# point.
bench-sweep: build
	dune exec bench/main.exe -- sweep --scale 1

# The daemon workload of the pipeline benchmark (perfbench/): two clients
# querying `batfish_cli serve --domains 2` over NET12 x2. At seed 1 every
# response's bytes are checked against the committed digests in
# perfbench/digests/, so a rendering or encoding change that alters a
# single answer byte fails here. Prints the one-line JSON result.
bench-daemon:
	python3 perfbench/run.py --workload daemon-queries --seed 1

# The failure-sweep workload of the pipeline benchmark (perfbench/):
# `verify --failures 1` on seeded NET7 x0.25 variants, the only workload
# running atom pruning. At seed 1 every op's answers and counters, bdd.nodes
# included, are checked against perfbench/digests/, so an atomization change
# that creates a single node more, fewer or in another order fails here.
# Prints the one-line JSON result.
bench-failures:
	python3 perfbench/run.py --workload failure-sweep --seed 1

# The cold-snapshot workload of the pipeline benchmark (perfbench/): a fresh
# session per op over a seeded NET8 x0.5 variant, every scratch stage from
# parse to lint. At seed 1 every op's answers and counters, bdd.nodes
# included, are checked against perfbench/digests/, so a BDD kernel change
# that creates a single node more, fewer or in another order fails here.
# Prints the one-line JSON result.
bench-cold:
	python3 perfbench/run.py --workload cold-snapshot --seed 1

# The edit-stream workload of the pipeline benchmark (perfbench/): seeded
# three-edit change sets applied to one NET11 base with Batfish.update, then
# all-pairs and multipath re-answered. At seed 1 every op's answers and
# counters, dataplane.simulated_nodes and bdd.nodes included, are checked
# against perfbench/digests/, so a route-delta change that visits one node
# more or fewer fails here. Prints the one-line JSON result.
bench-edit:
	python3 perfbench/run.py --workload edit-stream --seed 1

# All four digest gates in turn: cold-snapshot, edit-stream, daemon-queries
# and failure-sweep at seed 1. Each result line is printed; the first run
# that fails or whose result is not "correct":true stops the target with
# exit 1.
bench-gate:
	@for t in bench-cold bench-edit bench-daemon bench-failures; do \
	  out=$$($(MAKE) -s --no-print-directory $$t) || { echo "bench-gate: $$t failed" >&2; exit 1; }; \
	  echo "$$out"; \
	  echo "$$out" | tail -n 1 | grep -q '"correct":true' \
	    || { echo "bench-gate: $$t is not correct" >&2; exit 1; }; \
	done

# The full gate: everything compiles, every test passes (which includes
# linting the example fixtures via the runtest alias), and the bench smoke
# subset runs to completion.
check:
	dune build
	dune runtest
	$(MAKE) bench-smoke

clean:
	dune clean
