# Development commands. `just ci` is the full gate; individual recipes below.

# Everything CI runs, in order.
ci: fmt-check lint doc surface build test bench-quick

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

# Cross-backend equivalence suite only.
equivalence:
    cargo test -q --test backend_equivalence

# Serial-vs-parallel determinism gate (jobs=1 ≡ jobs=4, both backends).
exec-equivalence:
    cargo test -q --test exec_equivalence

# Bounded chaos smoke campaign (fixed seed, sim cross-checked against pooled) — the CI gate.
chaos:
    cargo run --release -p opr-bench --bin chaos -- --seed 42 --runs 200 --budget mixed --backend both --jobs 4

# Long randomized chaos soak (override with `just chaos-soak SEED=7 RUNS=50000 JOBS=8`).
chaos-soak SEED="1" RUNS="20000" JOBS="4":
    cargo run --release -p opr-bench --bin chaos -- --seed {{SEED}} --runs {{RUNS}} --budget mixed --backend both --jobs {{JOBS}}

# Large-N soak of the pooled schedule (Network::step_on): full Alg1 at
# N=1024, t=300 under a wall-clock ceiling, bit-identical to the simulator,
# plus the N=512 sim-vs-pooled cross-check over adversaries and worker
# counts.
pool-soak:
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
# must be oracle-clean and bit-identical across jobs and backends.
service-soak EPOCHS="1000":
    cargo run --release -p opr-bench --bin service -- --soak --epochs {{EPOCHS}}

# Service-layer chaos smoke: seeded epoch-engine specs judged by the ledger
# oracles, with a jobs-determinism cross-check per spec.
chaos-service RUNS="40":
    cargo run --release -p opr-bench --bin chaos -- --service --seed 42 --runs {{RUNS}}

# Guided adversary search: beam-search the attack-schedule space for the
# configured fitness signal, emit the top-K finds as replayable repro files
# (`just search FITNESS=rounds EVALS=256`).
search SEED="42" FITNESS="margin" EVALS="96" JOBS="4":
    cargo run --release -p opr-bench --bin chaos -- --search --seed {{SEED}} --budget at --backend both --jobs {{JOBS}} --fitness {{FITNESS}} --evals {{EVALS}} --baseline

# Guided search over service-spec space, judged by ledger shard-pressure
# margins.
search-service SEED="42" EVALS="48":
    cargo run --release -p opr-bench --bin chaos -- --search --service --seed {{SEED}} --evals {{EVALS}}

# Metrics demo: a short instrumented service run writing a Prometheus
# exposition (wall plane overlaid on the deterministic fold) and printing
# the ANSI dashboard.
metrics OUT="metrics.prom":
    cargo run --release -p opr-bench --bin service -- --epochs 20 --metrics {{OUT}} --watch

# Regenerate every experiment table (add `--backend pooled` to switch substrate).
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

# Compare a result against the committed baseline (or any two result files).
bench-compare BASE="benchmark/baseline.json" NEW="benchmark/out/result.json":
    benchmark/run.sh --compare {{BASE}} {{NEW}}
