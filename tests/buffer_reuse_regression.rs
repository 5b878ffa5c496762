//! Pins that sim-network round-buffer reuse changes zero observable
//! behaviour.
//!
//! `tests/data/chaos-repro.json` is a stored chaos reproducer (an injected
//! failure shrunk as `tests/chaos_campaign.rs` does), and `tests/data/chaos-repro.trace` is the full
//! rendering of its replay — every delivery event the network performed,
//! plus the diagnosis, metrics and verdict digest — recorded *before* the
//! network started reusing its per-round inbox/outbox buffers. Replaying
//! the repro now must reproduce that file byte-for-byte:
//! buffer reuse is an allocation strategy, not a semantic change, and this
//! gate is what makes that claim checkable instead of asserted.
//!
//! To re-bless after an *intentional* observable change (message format,
//! delivery order, metrics definition), run with `BLESS_TRACE=1` and commit
//! the regenerated golden file.

use opr::chaos::engine::digests_overlap;
use opr::chaos::{standard_suite, Repro};
use opr::workload::DiagnosedRun;
use std::fmt::Write as _;

const REPRO: &str = include_str!("data/chaos-repro.json");
const GOLDEN_PATH: &str = "tests/data/chaos-repro.trace";
const TRACE_CAPACITY: usize = 1 << 20;

/// Renders everything observable about a traced replay, one stable line at
/// a time, so a diff of golden vs current reads like a protocol log.
fn render(run: &DiagnosedRun) -> String {
    let mut out = String::new();
    let trace = run.trace.as_ref().expect("trace requested");
    writeln!(
        out,
        "# rounds={} digest={}",
        run.rounds,
        run.degraded.digest()
    )
    .unwrap();
    writeln!(
        out,
        "# messages={} bits={} max_message_bits={}",
        run.metrics.messages_correct(),
        run.metrics.bits_correct(),
        run.metrics.max_message_bits()
    )
    .unwrap();
    writeln!(
        out,
        "# malformed={} excluded={} effective_faults={}",
        run.malformed.len(),
        run.excluded.len(),
        run.effective_faults()
    )
    .unwrap();
    writeln!(
        out,
        "# events={} dropped={}",
        trace.events().len(),
        trace.dropped()
    )
    .unwrap();
    for event in trace.events() {
        writeln!(out, "{event}").unwrap();
    }
    out
}

fn replay_rendering() -> String {
    let repro = Repro::from_json(REPRO).expect("stored repro must parse");
    let run = repro
        .schedule
        .to_run()
        .and_then(|run| run.trace(TRACE_CAPACITY).run_diagnosed())
        .expect("stored repro must replay");
    render(&run)
}

#[test]
fn replayed_repro_trace_matches_the_pre_reuse_golden_file() {
    let current = replay_rendering();
    if std::env::var_os("BLESS_TRACE").is_some() {
        std::fs::write(GOLDEN_PATH, &current).expect("write golden trace");
        return;
    }
    let golden = include_str!("data/chaos-repro.trace");
    assert_eq!(
        golden, current,
        "replayed delivery stream diverged from the golden trace \
         (if the change was intentional, re-bless with BLESS_TRACE=1)"
    );
}

/// The repro's verdict digest is part of the pinned surface too: replaying
/// through the normal (untraced) engine path must keep reproducing the
/// recorded failure.
#[test]
fn replayed_repro_keeps_its_recorded_digest() {
    let repro = Repro::from_json(REPRO).expect("stored repro must parse");
    let digest = repro.replay(&standard_suite()).digest();
    assert!(
        digests_overlap(&digest, &repro.digest),
        "replay digest '{digest}' shares no kind with recorded '{}'",
        repro.digest
    );
}

/// Tracing itself must be an observer, not a participant: the traced and
/// untraced replays of the same schedule agree on every judged observable.
#[test]
fn tracing_does_not_perturb_the_replay() {
    let repro = Repro::from_json(REPRO).expect("stored repro must parse");
    let traced = repro
        .schedule
        .to_run()
        .and_then(|run| run.trace(TRACE_CAPACITY).run_diagnosed())
        .expect("replay");
    let untraced = repro.schedule.run().expect("replay");
    assert!(untraced.trace.is_none());
    assert_eq!(untraced.degraded, traced.degraded);
    assert_eq!(untraced.full_outcome, traced.full_outcome);
    assert_eq!(untraced.metrics, traced.metrics);
    assert_eq!(untraced.malformed, traced.malformed);
}
