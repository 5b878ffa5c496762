#!/usr/bin/env bash
# The declared-once lints (DESIGN.md §2). Fails if
#  * a run knob is declared on a line of its own — as a struct field is —
#    more than once under crates/{transport,core,workload}/src;
#  * routing, trace emission or the round clock grows a second copy
#    ("routed once": one round engine);
#  * a crate's [dependencies] names an opr-* crate its src/ never uses;
#  * the public-item count under crates/ exceeds MAX_PUBLIC_ITEMS, or
#    crates/ holds more than MAX_CRATES packages — `pub` hides an item from
#    `dead_code`, so the surface only shrinks unless a PR raises the
#    ceiling on purpose.
# Prints both counts. `just surface` and CI run it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

MAX_PUBLIC_ITEMS=505
MAX_CRATES=15

status=0
for knob in \
    'faults: FaultPlan' \
    'payload_cap: Option<u64>' \
    'trace_capacity: Option<usize>' \
    'spans: Option<SharedSpanLog>' \
    'metrics: Option<MetricsRegistry>' \
    'allow_fault_overrun: bool' \
    'record_events: bool'; do
    hits=$(grep -rEn "^\s*(pub )?$knob," crates/transport/src crates/core/src crates/workload/src || true)
    count=$(printf '%s' "$hits" | grep -c . || true)
    if [ "$count" -gt 1 ]; then
        echo "surface: '$knob' is declared $count times (embed ExecOptions / RunOptions instead):" >&2
        echo "$hits" >&2
        status=1
    fi
done

# Routed once: between 1 and `max` lines under the given paths may contain
# the literal — the malformed-send constructions of the one routing loop,
# the one trace emission site, the one round-clock histogram name. A literal
# found nowhere fails too: a rename must re-point its rule, not disable it.
routed_once() {
    local max=$1 literal=$2
    shift 2
    local hits count
    hits=$(grep -rnF -- "$literal" "$@" || true)
    count=$(printf '%s' "$hits" | grep -c . || true)
    if [ "$count" -eq 0 ]; then
        echo "surface: '$literal' appears nowhere under $* (re-point this rule to the renamed site)" >&2
        status=1
    elif [ "$count" -gt "$max" ]; then
        echo "surface: '$literal' appears more than $max time(s) (route through opr_sim::Network / run_job instead):" >&2
        echo "$hits" >&2
        status=1
    fi
}
routed_once 3 'kind: MalformedKind::' crates/sim/src crates/transport/src
routed_once 1 'trace.record_with(|| TraceEvent {' crates
routed_once 1 '"opr_round_ns"' crates

# No stale edges: every opr-x under a crate's [dependencies] is named as
# opr_x somewhere in that crate's src/.
for manifest in crates/*/Cargo.toml; do
    deps=$(awk '/^\[dependencies\]/ { on = 1; next } /^\[/ { on = 0 } on && /^opr-/ { print $1 }' "$manifest")
    for dep in $deps; do
        if ! grep -rqw -- "${dep//-/_}" "$(dirname "$manifest")/src"; then
            echo "surface: $manifest depends on $dep but its src/ never names ${dep//-/_}" >&2
            status=1
        fi
    done
done

[ "$status" -eq 0 ] && echo "surface: every run knob is declared at most once, routing is in one place, no stale dependency edges"

items=$(grep -rEn "^\s*pub (fn|struct|enum|trait|type|const|static|mod) " crates --include='*.rs' | wc -l)
crates=$(ls crates/*/Cargo.toml | wc -l)
echo "surface: $items public items under crates/ (ceiling $MAX_PUBLIC_ITEMS), $crates crates (ceiling $MAX_CRATES)"
if [ "$items" -gt "$MAX_PUBLIC_ITEMS" ]; then
    echo "surface: $items public items exceed the ceiling of $MAX_PUBLIC_ITEMS (make what no other crate names pub(crate))" >&2
    status=1
fi
if [ "$crates" -gt "$MAX_CRATES" ]; then
    echo "surface: $crates packages under crates/ exceed the ceiling of $MAX_CRATES" >&2
    status=1
fi
exit $status
