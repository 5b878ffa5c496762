#!/usr/bin/env bash
# The repo benchmark, one command (see benchmark/README.md):
#
#   benchmark/run.sh [--seed S]            every workload, timed + traced pass,
#                                          every check, benchmark/out/result.json
#   benchmark/run.sh --quick               one short block each: checks only
#   benchmark/run.sh --compare a.json b.json
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#                                          one pass (what BENCHMARK.json's
#                                          command runs)
#
# Builds the benchmark package in release mode from source, offline, then
# hands every argument to it. Runs from the repository root whatever the
# caller's directory, so relative paths (BENCHMARK.json, benchmark/out) hold.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# A relative CARGO_TARGET_DIR is relative to the caller's directory.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cd "$root"
# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$target/release/opr-benchmark" "$@"
