.PHONY: all build test lint bench-smoke bench-sweep bench-daemon check clean

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

# Quotient-compression scale sweep (schema 8 "sweep" section of
# BENCH_results.json): compressed vs uncompressed wall time, peak RSS, BDD
# node counts and compression ratio across several NET12 scale factors.
# Exits 1 if compressed answers ever differ from uncompressed, or if
# compression fails to win at the largest factor. --scale 2 adds the
# ~1k-device point.
bench-sweep: build
	dune exec bench/main.exe -- sweep --scale 1

# The daemon workload of the pipeline benchmark (perfbench/): two clients
# querying `batfish_cli serve --domains 2` over NET12 x2. At seed 1 every
# response's bytes are checked against the committed digests in
# perfbench/digests/, so a rendering or encoding change that alters a
# single answer byte fails here. Prints the one-line JSON result.
bench-daemon:
	python3 perfbench/run.py --workload daemon-queries --seed 1

# The full gate: everything compiles, every test passes (which includes
# linting the example fixtures via the runtest alias), and the bench smoke
# subset runs to completion.
check:
	dune build
	dune runtest
	$(MAKE) bench-smoke

clean:
	dune clean
