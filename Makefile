.PHONY: build test lint bench check telemetry chaos scale trace serve

build:
	cargo build --release

# Tier-1 gate: build + full workspace test suite (which includes the
# repo lint, tests/repo_lint.rs).
test:
	cargo build --release
	cargo test -q --release --workspace

lint:
	cargo test -q --release --test repo_lint

# The benchmark command of BENCHMARK.json: four workloads at the
# default seed (benchmark/README.md). Compare two runs' results files
# with `benchmark compare`.
bench:
	cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml --bin benchmark --

# Everything `test` gates on, plus the benchmark's own suite (unit
# tests and a 1 s smoke run of every workload), so the one benchmark
# harness cannot rot outside the tier-1 path.
check: test
	cargo test --release --offline --manifest-path benchmark/Cargo.toml

# 10M-attack scale path (DESIGN.md §9): per-stage peak-RSS probes in
# separate processes (VmHWM is monotone, so stages must not share one;
# they also print generate and execute attacks/s), and the ignored 10M
# release smoke test.
scale:
	DDOS_SCALE_TARGET=10000000 DDOS_SCALE_STAGE=generate \
		cargo run --release --example scale_probe
	DDOS_SCALE_TARGET=10000000 \
		cargo run --release --example scale_probe
	cargo test -q --release --test scale_smoke -- --ignored

# Query-service smoke (DESIGN.md §12): the end-to-end suite boots real
# `ddoscovery serve` children, proves served bytes identical to CLI
# stdout, sheds a burst past a parked pool, survives chaos-injected
# handler panics, and drains cleanly inside the deadline.
serve:
	cargo test -q --release -p ddoscovery --test http_service
	cargo test -q --release -p ddoscovery-serve
	@echo "serve: ok (byte-identical payloads, shedding, chaos 500s, drain)"

# Fault-injection suite: the chaos tests run every fault plan at 1, 4
# and 8 workers (cfg.workers) and assert byte-identical output across
# them, so one run covers every pool width.
chaos:
	cargo test -q --release --test chaos

# Quick-scale instrumented run: emits telemetry.json (run manifest with
# per-stage latency histograms, per-observatory counts, and pool
# utilization) plus a human-readable summary table on stderr.
telemetry:
	cargo run --release -p ddoscovery --bin ddoscovery -- \
		trends --quick --telemetry telemetry.json
	@cat telemetry.json

# Flight-recorder smoke: a quick traced run writes trace.json (Chrome
# trace-event JSON, loadable in Perfetto / chrome://tracing), then
# trace_check validates it — parses, every span closes, and the pool
# fan-out produced at least two distinct worker lanes. Workers are
# pinned so the lane check holds even on single-core machines.
trace:
	cargo run --release -p ddoscovery --bin ddoscovery -- \
		trends --quick --workers 4 --trace trace.json
	cargo run --release --example trace_check -- trace.json
