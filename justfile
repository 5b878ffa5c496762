# Development commands. `just ci` is the full gate; individual recipes below.

# Everything CI runs, in order.
ci: fmt-check lint build test

# Formatting gate.
fmt-check:
    cargo fmt --all -- --check

# Reformat in place.
fmt:
    cargo fmt --all

# Lint gate: warnings are errors, across every target. `redundant_clone` is
# opted in (it is off by default) to keep the zero-copy delivery pipeline
# honest about stray payload copies.
lint:
    cargo clippy --workspace --all-targets -- -D warnings -W clippy::redundant_clone

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

# Serial-vs-parallel executor throughput (writes crates/bench/BENCH_exec.json).
bench-exec:
    cargo run --release -p opr-bench --bin chaos -- --bench-exec crates/bench/BENCH_exec.json --seed 42 --runs 200 --budget mixed --backend both

# Broadcast fan-out allocation profile: sealed-shared vs per-link-cloned
# payloads (writes crates/bench/BENCH_fanout.json).
bench-fanout:
    cargo run --release -p opr-bench --bin fanout -- --out crates/bench/BENCH_fanout.json

# Round-engine comparison: PooledBackend (workers 1/4/8) vs sim at
# N in {128, 512, 1024} (writes crates/bench/BENCH_pool.json).
bench-pool:
    cargo run --release -p opr-bench --bin pool -- --out crates/bench/BENCH_pool.json

# Flood-core comparison: interned slot-bitset Echo/Ready accumulation vs the
# seed BTree set path on identical inputs at N in {128, 512, 1024} (writes
# crates/bench/BENCH_flood.json, ns/round + allocs/round). `--check` gates
# on the bitset core being >=4x the seed path at N=1024.
bench-flood:
    cargo run --release -p opr-bench --bin flood -- --out crates/bench/BENCH_flood.json --check

# Large-N soak: full Alg1 at N=1024, t=300 on the pooled backend under a
# wall-clock ceiling, bit-identical to the simulator, plus the N=512
# sim-vs-pooled cross-check over adversaries and worker counts.
pool-soak:
    cargo test --release -q --test large_n -- --ignored --nocapture

# Replay a repro with the protocol recorder attached and print every
# process's decision waterfall (`just explain my-repro.json --events e.jsonl`).
explain FILE="tests/data/chaos-repro.json" *ARGS:
    cargo run --release -p opr-bench --bin chaos -- explain {{FILE}} {{ARGS}}

# Recorder overhead profile: the `obs` group of BENCH_fanout.json (full
# Alg1 runs, recorder off vs on, with the zero-cost-when-off assertion).
bench-obs:
    cargo run --release -p opr-bench --bin fanout -- --out crates/bench/BENCH_fanout.json

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

# Search throughput + trajectory report (writes crates/bench/BENCH_search.json).
bench-search:
    cargo run --release -p opr-bench --bin chaos -- --search --seed 42 --budget at --backend both --jobs 4 --evals 96 --generations 6 --beam 4 --init 24 --top-k 3 --out-dir target --search-report crates/bench/BENCH_search.json --baseline --timing

# Service throughput matrix: names-assigned/sec over shards x jobs x backend
# (writes crates/bench/BENCH_service.json).
bench-service:
    cargo run --release -p opr-bench --bin service -- --bench crates/bench/BENCH_service.json

# Metrics demo: a short instrumented service run writing a Prometheus
# exposition (wall plane overlaid on the deterministic fold) and printing
# the ANSI dashboard.
metrics OUT="metrics.prom":
    cargo run --release -p opr-bench --bin service -- --epochs 20 --metrics {{OUT}} --watch

# Metrics overhead gate: hot-path writes must be allocation-free and the
# registry-off path alloc-identical; writes crates/bench/BENCH_metrics.json
# (per-op ns + snapshot cost at N in {64, 256, 1024} metrics).
bench-metrics:
    cargo run --release -p opr-bench --bin metrics -- --out crates/bench/BENCH_metrics.json

# Regenerate every experiment table (add `--backend pooled` to switch substrate).
tables *ARGS:
    cargo run --release -p opr-bench --bin tables -- {{ARGS}}

# Wall-clock benchmarks (writes BENCH_<target>.json per bench target).
bench:
    cargo bench
