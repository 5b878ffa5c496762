#!/usr/bin/env bash
# Interleaved benchmark pairs: a git revision against the index.
#
#   tools/bench-pairs.sh REV WORKLOAD [--pairs 10] [--seed 42]
#
# Exports REV (`git archive`) and the index (`git checkout-index`, so staged
# changes count and `benchmark/run.sh` cannot rewrite the working tree's
# `benchmark/Cargo.lock`) into a temporary directory, builds each with its
# own CARGO_TARGET_DIR, then runs
#
#   benchmark/run.sh --workload WORKLOAD --seed S --seconds 20 --trace 0
#
# once per side per pair, the side that goes first alternating. Prints every
# run's six end-to-end metrics, each side's median [quartiles] per metric
# (Python's exclusive quartiles, the benchmark's own spread rule), then one
# verdict line per end-to-end metric of BENCHMARK.json, read the way the
# metric's `better` direction and `bound` say:
#   * in how many pairs the change beats REV (a tie counts for neither);
#   * whether the medians differ by more than REV's interquartile spread;
#   * how much better or worse the change's median is, as a share of REV's,
#     and `WORSE THAN BOUND` when it is worse by more than the bound.
# A claimed gain and the no-regression rule are read off these lines. The
# exit status does not depend on them. Writes nothing inside the
# repository; the temporary directory is removed on exit. Needs jq.
#
# The sides are named `parent` and `change`: names of equal length, so both
# binaries run by paths (argv[0]) of equal length. That length shifts the
# allocator's heap layout, and with it svc-n7-churn's `peak_rss_mb`, between
# fixed levels (the same binary read 45.3 MiB run by a long path and
# 53.6 MiB by a short one); unequal names would compare path lengths, not
# code.
set -euo pipefail

usage() {
    echo "usage: tools/bench-pairs.sh REV WORKLOAD [--pairs N] [--seed S]" >&2
    exit 2
}

[ $# -ge 2 ] || usage
rev=$1 workload=$2
shift 2
pairs=10 seed=42
while [ $# -gt 0 ]; do
    case $1 in
        --pairs) [ $# -ge 2 ] || usage; pairs=$2; shift 2 ;;
        --seed) [ $# -ge 2 ] || usage; seed=$2; shift 2 ;;
        *) usage ;;
    esac
done
case $pairs in '' | *[!0-9]* | 0) usage ;; esac
case $seed in '' | *[!0-9]*) usage ;; esac
command -v jq >/dev/null || { echo "bench-pairs: jq not found" >&2; exit 2; }

repo=$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)
commit=$(git -C "$repo" rev-parse --verify --quiet "$rev^{commit}") ||
    { echo "bench-pairs: $rev is not a commit" >&2; exit 2; }
metrics=$(jq -r '.end_to_end[].name' "$repo/BENCHMARK.json")
jq -e --arg w "$workload" 'any(.workloads[]; .name == $w)' "$repo/BENCHMARK.json" >/dev/null ||
    { echo "bench-pairs: unknown workload $workload" >&2; exit 2; }

work=$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent" "$work/change"
git -C "$repo" archive "$commit" | tar -x -C "$work/parent"
git -C "$repo" checkout-index -a --prefix="$work/change/"

build() {
    echo "bench-pairs: building $1" >&2
    (cd "$work/$1" && CARGO_TARGET_DIR="$work/$1-target" \
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
}
build parent
build change

# One timed pass; appends its contract line (the last line of stdout) to
# $work/<side>.jsonl.
run() {
    local side=$1 line
    # A pass that fails its checks exits 1 but still prints its line.
    line=$(cd "$work/$side" && CARGO_TARGET_DIR="$work/$side-target" \
        bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds 20 --trace 0 |
        tail -n 1) || true
    echo "$line" | jq -e .metrics >/dev/null 2>&1 ||
        { echo "bench-pairs: the $side run printed no result" >&2; exit 1; }
    echo "$line" >>"$work/$side.jsonl"
    local label=$side
    [ "$side" = parent ] && label="${commit:0:7}"
    printf 'pair %2d %-7s %s\n' "$pair" "$label" "$(echo "$line" | jq -r --arg m "$metrics" '
        [($m | split("\n"))[] as $k | "\($k)=\(.metrics[$k].value)"]
        + ["failed=\(.failed)/\(.attempted)", "correct=\(.correct)"] | join("  ")')"
}

echo "bench-pairs: $workload, seed $seed, $pairs pairs, ${commit:0:7} (parent) against the index (change)"
for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run parent
        run change
    else
        run change
        run parent
    fi
done

jq -rn --slurpfile parent "$work/parent.jsonl" --slurpfile change "$work/change.jsonl" \
    --slurpfile spec "$repo/BENCHMARK.json" '
    def median: sort as $v | ($v | length) as $n
        | ($v[(($n - 1) / 2 | floor)] + $v[(($n - 1) / 2 | ceil)]) / 2;
    def quartile($i): sort as $v | ($v | length) as $n
        | ([([($i * ($n + 1) / 4 | floor), 1] | max), $n - 1] | min) as $j
        | ($i * ($n + 1) - $j * 4) as $d
        | ($v[$j - 1] * (4 - $d) + $v[$j] * $d) / 4;
    def summary: if length >= 2
        then "\(median) [\(quartile(1)), \(quartile(3))]"
        else "\(median)" end;
    def pct: . * 1000 | round / 10;
    def magnitude: if . < 0 then -. else . end;
    $spec[0].end_to_end as $metrics
    | ($metrics[].name as $k
        | "\($k): parent \([$parent[].metrics[$k].value] | summary)  change \([$change[].metrics[$k].value] | summary)"),
      ($metrics[] as $m
        | [$parent[].metrics[$m.name].value] as $p
        | [$change[].metrics[$m.name].value] as $c
        # +1 when higher is better: (change - parent) * $up > 0 is a win.
        | (if $m.better == "higher" then 1 else -1 end) as $up
        | ([range($p | length) | select(($c[.] - $p[.]) * $up > 0)] | length) as $wins
        | ($p | median) as $pm | ($c | median) as $cm
        | (if ($p | length) >= 2 then ($p | quartile(3)) - ($p | quartile(1)) else 0 end) as $iqr
        | (if $pm == 0 then 0 else ($pm - $cm) * $up / $pm end) as $worse
        | "verdict \($m.name) (\($m.better) is better, bound \($m.bound | pct) %):"
          + " change ahead in \($wins) / \($p | length) pairs;"
          + " medians \($pm) -> \($cm), "
          + (if ($cm - $pm | magnitude) > $iqr then "beyond" else "within" end)
          + " the parent IQR \($iqr);"
          + (if $worse > 0 then " \($worse | pct) % worse" else " \(-$worse | pct) % better" end)
          + (if $worse > $m.bound then "  WORSE THAN BOUND" else "" end))'

# The two levels (ROADMAP, "How to measure"): a process runs at one of a few
# speed levels for its whole life, so a side's median follows how many of
# its processes drew the fast one. Pool both sides' op_ms_p50, split the
# pool at its largest gap, and print each side's run count per level and
# every end-to-end metric's median within each level.
jq -rn --slurpfile parent "$work/parent.jsonl" --slurpfile change "$work/change.jsonl" \
    --slurpfile spec "$repo/BENCHMARK.json" '
    def median: sort as $v | ($v | length) as $n
        | if $n == 0 then "-"
          else ($v[(($n - 1) / 2 | floor)] + $v[(($n - 1) / 2 | ceil)]) / 2 end;
    ([$parent[], $change[]] | map(.metrics.op_ms_p50.value) | sort) as $pool
    | if ($pool | length) < 2 then "levels: fewer than two runs, no split"
      else ([range(1; $pool | length) | {gap: ($pool[.] - $pool[. - 1]), low: $pool[. - 1], high: $pool[.]}]
            | max_by(.gap)) as $split
        | def at($level): map(select((.metrics.op_ms_p50.value <= $split.low) == ($level == "low")));
        "levels: pooled op_ms_p50 split at its largest gap, \($split.gap) ms, between \($split.low) and \($split.high)",
        (("low", "high") as $level
          | ($parent | at($level)) as $p | ($change | at($level)) as $c
          | "level \($level): parent \($p | length) runs, change \($c | length) runs",
            ($spec[0].end_to_end[].name as $k
              | "level \($level) \($k): parent \([$p[].metrics[$k].value] | median)  change \([$c[].metrics[$k].value] | median)"))
      end'
