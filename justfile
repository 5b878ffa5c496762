# Development commands. `just ci` is the full gate; individual recipes below.

# Everything CI runs, in order.
ci: fmt-check lint doc surface build test examples bench-quick

# Formatting gate.
fmt-check:
    cargo fmt --all -- --check

# Reformat in place.
fmt:
    cargo fmt --all

# Lint gate: warnings are errors, across every target — the workspace's
# `unreachable_pub` (Cargo.toml) included, so `pub` stays on what another
# crate can name and `dead_code` sees the rest. `redundant_clone` is opted
# in (it is off by default) to keep the zero-copy delivery pipeline honest
# about stray payload copies.
lint:
    cargo clippy --workspace --all-targets -- -D warnings -W clippy::redundant_clone

# Rustdoc gate: every intra-doc link resolves and no public documentation
# links to a private item.
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Declared-once lints: no run knob declared twice under
# crates/{transport,core,workload}/src, no second copy of routing / trace
# emission / the round clock, no [dependencies] edge a crate's src/ never
# uses; prints the public-item count.
surface:
    tools/surface.sh

# Tier-1 build.
build:
    cargo build --release

# Full test suite (unit + property + integration + doc tests), every crate.
test:
    cargo test -q --workspace

# Run every example: each is a self-checking scenario that asserts what it
# prints (`cargo test` only compiles them).
examples:
    for example in examples/*.rs; do cargo run -q --release --example "$(basename "$example" .rs)" || exit 1; done

# Serial-vs-parallel determinism gate (jobs=1 ≡ jobs=4).
exec-equivalence:
    cargo test -q --test exec_equivalence

# Bounded chaos smoke campaign (fixed seed) — the CI gate.
chaos:
    cargo run --release -p opr-bench --bin chaos -- --seed 42 --runs 200 --budget mixed --jobs 4

# Long randomized chaos soak (override with `just chaos-soak SEED=7 RUNS=50000 JOBS=8`).
chaos-soak SEED="1" RUNS="20000" JOBS="4":
    cargo run --release -p opr-bench --bin chaos -- --seed {{SEED}} --runs {{RUNS}} --budget mixed --jobs {{JOBS}}

# Large-N soak: full Alg1 at N=1024, t=300 under a wall-clock ceiling,
# printing its wall time and peak RSS.
large-n:
    cargo test --release -q --test large_n -- --ignored --nocapture

# Replay a repro with the protocol recorder attached and print every
# process's decision waterfall (`just explain my-repro.json --events e.jsonl`).
explain FILE="tests/data/chaos-repro.json" *ARGS:
    cargo run --release -p opr-bench --bin chaos -- explain {{FILE}} {{ARGS}}

# Renaming-as-a-service demo: a short multi-shard epoch run with recycling,
# judged by the ledger oracle suite.
service:
    cargo run --release -p opr-bench --bin service

# Service soak gate: seeded ≥1000-epoch run across 4 shards with recycling;
# must be oracle-clean and bit-identical across jobs.
service-soak EPOCHS="1000":
    cargo run --release -p opr-bench --bin service -- --soak --epochs {{EPOCHS}}

# Metrics demo: a short instrumented service run writing a Prometheus
# exposition (wall plane overlaid on the deterministic fold) and printing
# the ANSI dashboard.
metrics OUT="metrics.prom":
    cargo run --release -p opr-bench --bin service -- --epochs 20 --metrics {{OUT}} --watch

# Regenerate every experiment table (`just tables t1 f3` for a subset).
tables *ARGS:
    cargo run --release -p opr-bench --bin tables -- {{ARGS}}

# The repo benchmark in its checking form (< 20 s after build): correctness,
# workload digests and the metric-name set. Never valid for numbers.
bench-quick:
    benchmark/run.sh --quick

# The full benchmark: every workload, timed + traced pass, 5 sets
# (writes benchmark/out/result.json).
bench-full:
    benchmark/run.sh --sets 5

# Where each benchmark workload shape's allocations go, per instance and per
# name, on a new and on a warm run arena (DESIGN.md §15's census table).
alloc-census:
    cargo test --release -q --test alloc_gates -- --ignored --nocapture alloc_census

# Interleaved pairs of the declared benchmark command, a revision against
# the index (`just bench-pairs HEAD run-n64-alg1 --pairs 10 --seed 7`).
bench-pairs REV WORKLOAD *ARGS:
    tools/bench-pairs.sh {{REV}} {{WORKLOAD}} {{ARGS}}

# Compare a result against the committed baseline (or any two result files).
bench-compare BASE="benchmark/baseline.json" NEW="benchmark/out/result.json":
    benchmark/run.sh --compare {{BASE}} {{NEW}}
