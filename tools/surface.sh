#!/usr/bin/env bash
# The declared-once lint of the run surface (DESIGN.md §2, "Run surface"):
# fails if any run knob is declared on a line of its own — as a struct
# field is — more than once under crates/{transport,core,workload}/src,
# then prints the workspace's public-item count. `just surface` and CI run
# it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

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

items=$(grep -rEn "^\s*pub (fn|struct|enum|trait|type|const|static|mod) " crates --include='*.rs' | wc -l)
[ "$status" -eq 0 ] && echo "surface: every run knob is declared at most once"
echo "surface: $items public items under crates/"
exit $status
