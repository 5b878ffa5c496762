//! `chaos explain`: replay a repro file with the protocol recorder attached
//! and render every correct process's decision waterfall.
//!
//! The waterfall is built purely from the deterministic layer — the
//! [`RunLog`] event stream and the run's network counters — so explaining
//! the same repro file always prints the same text (the golden test in
//! `tests/` pins it byte-for-byte). Wall-clock spans never appear here.

use crate::repro::Repro;
use opr_obs::{ProtocolEvent, RunLog, ValidityViolation};
use opr_types::RenamingError;
use opr_workload::DiagnosedRun;
use std::fmt::Write as _;

/// A replayed-and-rendered repro: the observed run (events attached) plus
/// the decision waterfall built from it.
#[derive(Clone, Debug)]
pub struct Explained {
    /// The replayed run, with [`DiagnosedRun::events`] populated.
    pub run: DiagnosedRun,
    /// The rendered per-process decision waterfall.
    pub text: String,
}

/// Replays `repro`'s schedule on its reference backend with the recorder
/// attached and renders the decision waterfall.
///
/// # Errors
///
/// Returns [`RenamingError`] only when the schedule cannot start (a
/// corrupt repro file) — the same conditions as
/// [`crate::schedule::ChaosSchedule::run_on`].
pub fn explain_repro(repro: &Repro) -> Result<Explained, RenamingError> {
    let (reference, _) = repro.backend.backends();
    let run = repro.schedule.run_observed(reference)?;
    let text = render_waterfall(repro, &run);
    Ok(Explained { run, text })
}

/// Renders the decision waterfall for an observed run of `repro`'s
/// schedule. Deterministic: a pure function of the repro header and the
/// run's deterministic observables.
pub fn render_waterfall(repro: &Repro, run: &DiagnosedRun) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "schedule: {}", repro.schedule.describe());
    let _ = writeln!(
        out,
        "captured: digest '{}' under {} budget on {} (campaign seed {}, run #{})",
        repro.digest, repro.budget, repro.backend, repro.campaign_seed, repro.run_index
    );
    if let Some(metrics) = &repro.metrics {
        let _ = writeln!(
            out,
            "recorded: {} rounds at capture; {}+{} msgs correct+faulty, {} bits correct, max msg {} bits",
            metrics.rounds_executed(),
            metrics.messages_correct(),
            metrics.messages_faulty(),
            metrics.bits_correct(),
            metrics.max_message_bits()
        );
    }
    let reference = repro.backend.backends().0;
    let _ = writeln!(
        out,
        "replayed: {} rounds on {reference:?}; {}+{} msgs correct+faulty, {} bits correct, max msg {} bits",
        run.rounds,
        run.metrics.messages_correct(),
        run.metrics.messages_faulty(),
        run.metrics.bits_correct(),
        run.metrics.max_message_bits()
    );
    let faulty: Vec<usize> = run
        .faulty_mask
        .iter()
        .enumerate()
        .filter_map(|(i, &f)| f.then_some(i))
        .collect();
    let excluded: Vec<u64> = run.excluded.iter().map(|id| id.raw()).collect();
    let _ = writeln!(
        out,
        "faults:   byzantine indices {faulty:?}, transport-excluded ids {excluded:?}, {} malformed sends",
        run.malformed.len()
    );
    let margins = crate::oracle::suite_margins(&repro.schedule, run, reference);
    if !margins.is_empty() {
        let rendered: Vec<String> = margins
            .iter()
            .map(|(name, margin)| format!("{name}={margin}"))
            .collect();
        let _ = writeln!(out, "margins:  {}", rendered.join(", "));
    }
    match &run.events {
        None => {
            out.push_str("\n(no event log recorded)\n");
        }
        Some(log) => render_processes(&mut out, log),
    }
    render_metrics_block(&mut out, run, &margins);
    out
}

/// The deterministic metrics summary appended after the waterfall: the
/// run's counter/gauge fold plus the oracle margins, in stable order.
/// Purely derived from deterministic artefacts, so golden-safe.
fn render_metrics_block(out: &mut String, run: &DiagnosedRun, margins: &[(&'static str, i64)]) {
    let snapshot = run.metrics_snapshot();
    out.push_str("\nmetrics:\n");
    for (name, value) in &snapshot.counters {
        let _ = writeln!(out, "  {name:<44} {value}");
    }
    for (name, value) in &snapshot.gauges {
        let _ = writeln!(out, "  {name:<44} {value}");
    }
    for (name, hist) in &snapshot.histograms {
        let _ = writeln!(out, "  {:<44} {}", format!("{name}_count"), hist.count);
        let _ = writeln!(out, "  {:<44} {}", format!("{name}_sum"), hist.sum);
    }
    for (name, margin) in margins {
        let _ = writeln!(
            out,
            "  {:<44} {margin}",
            format!("oracle_margin{{name=\"{name}\"}}")
        );
    }
}

fn render_processes(out: &mut String, log: &RunLog) {
    for plog in &log.processes {
        let decision = plog.events.iter().rev().find_map(|e| match e {
            ProtocolEvent::Decided { step, name } => Some((*step, *name)),
            _ => None,
        });
        let _ = match decision {
            Some((step, name)) => writeln!(
                out,
                "\nprocess id {} -> name {} @ step {}",
                plog.id.raw(),
                name.raw(),
                step
            ),
            None => writeln!(out, "\nprocess id {} -> undecided", plog.id.raw()),
        };
        for event in &plog.events {
            let _ = writeln!(
                out,
                "  step {:>2} | {:<16} | {}",
                event.step(),
                event.kind(),
                describe_event(event)
            );
        }
    }
}

fn describe_violation(violation: &ValidityViolation) -> String {
    match violation {
        ValidityViolation::MissingTimelyId { id } => {
            format!("missing timely id {}", id.raw())
        }
        ValidityViolation::MalformedVector => "malformed vector".to_string(),
        ValidityViolation::InsufficientSpacing {
            prev,
            prev_rank,
            id,
            rank,
            spacing,
        } => format!(
            "ids {}@{:.9} and {}@{:.9} closer than spacing {:.9}",
            prev.raw(),
            prev_rank.value(),
            id.raw(),
            rank.value(),
            spacing
        ),
    }
}

/// One human line per event: the counts, the threshold they were compared
/// against, and which way the decision went.
pub(crate) fn describe_event(event: &ProtocolEvent) -> String {
    match event {
        ProtocolEvent::IdSeen { link, id, .. } => {
            format!("id {} arrived on link {}", id.raw(), link.label())
        }
        ProtocolEvent::EchoThreshold {
            id,
            echoes,
            quorum,
            kept,
            ..
        } => format!(
            "id {}: {echoes} echoes vs quorum {quorum} -> {}",
            id.raw(),
            if *kept { "kept" } else { "dropped" }
        ),
        ProtocolEvent::ReadyThreshold {
            id,
            readies,
            quorum,
            weak_quorum,
            timely,
            relayed,
            ..
        } => format!(
            "id {}: {readies} readies vs quorum {quorum} (weak {weak_quorum}) -> {}{}",
            id.raw(),
            if *timely { "timely" } else { "not timely" },
            if *relayed { ", relayed ready" } else { "" }
        ),
        ProtocolEvent::AcceptThreshold {
            id,
            readies,
            quorum,
            accepted,
            ..
        } => format!(
            "id {}: {readies} readies vs quorum {quorum} -> {}",
            id.raw(),
            if *accepted {
                "accepted"
            } else {
                "not accepted"
            }
        ),
        ProtocolEvent::VoteVectorSent { ids, .. } => {
            let list = ids
                .iter()
                .map(|id| id.raw().to_string())
                .collect::<Vec<_>>()
                .join(", ");
            format!("broadcast vector over {} ids [{list}]", ids.len())
        }
        ProtocolEvent::VoteAccepted { link, entries, .. } => format!(
            "link {}: {entries}-entry vector passed isValid",
            link.label()
        ),
        ProtocolEvent::VoteRejected {
            link, violation, ..
        } => format!(
            "link {}: vector rejected — {}",
            link.label(),
            describe_violation(violation)
        ),
        ProtocolEvent::IdDropped {
            id, votes, needed, ..
        } => format!(
            "id {}: only {votes} of {needed} needed votes -> dropped",
            id.raw()
        ),
        ProtocolEvent::TrimmedMean {
            id, votes, rank, ..
        } => format!("id {}: {votes} votes -> rank {:.9}", id.raw(), rank.value()),
        ProtocolEvent::EchoCounted {
            link, ids, valid, ..
        } => format!(
            "link {}: {ids}-id echo {}",
            link.label(),
            if *valid {
                "counted"
            } else {
                "invalid, ignored"
            }
        ),
        ProtocolEvent::NameOffset {
            id,
            echoes,
            clamped,
            name,
            ..
        } => format!(
            "id {}: {echoes} echoes, clamped offset {clamped} -> name {}",
            id.raw(),
            name.raw()
        ),
        ProtocolEvent::Decided { name, .. } => format!("name {}", name.raw()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::BackendChoice;
    use crate::generator::generate_schedule;
    use crate::schedule::BudgetRegime;

    fn sample() -> Repro {
        Repro {
            campaign_seed: 7,
            run_index: 0,
            budget: BudgetRegime::InBudget,
            backend: BackendChoice::Both,
            digest: "clean".into(),
            schedule: generate_schedule(per_seed(), BudgetRegime::InBudget),
            metrics: None,
        }
    }

    fn per_seed() -> u64 {
        crate::engine::per_run_seed(7, 0)
    }

    #[test]
    fn explain_is_deterministic_and_covers_every_process() {
        let repro = sample();
        let a = explain_repro(&repro).unwrap();
        let b = explain_repro(&repro).unwrap();
        assert_eq!(a.text, b.text);
        let log = a.run.events.as_ref().expect("recorder attached");
        for plog in &log.processes {
            assert!(
                a.text.contains(&format!("process id {}", plog.id.raw())),
                "missing process {} in:\n{}",
                plog.id.raw(),
                a.text
            );
        }
        assert!(a.text.starts_with("schedule: "), "{}", a.text);
        assert!(a.text.contains("replayed: "), "{}", a.text);
    }

    #[test]
    fn waterfall_surfaces_oracle_margins() {
        let explained = explain_repro(&sample()).unwrap();
        assert!(
            explained.text.contains("margins:  "),
            "no margins line in:\n{}",
            explained.text
        );
        for name in ["namespace=", "termination=", "quorum-edge="] {
            assert!(
                explained.text.contains(name),
                "{name} missing:\n{}",
                explained.text
            );
        }
    }

    #[test]
    fn waterfall_shows_thresholds_and_decisions() {
        let repro = sample();
        let explained = explain_repro(&repro).unwrap();
        assert!(
            explained.text.contains("vs quorum"),
            "no threshold lines in:\n{}",
            explained.text
        );
        assert!(
            explained.text.contains("-> name"),
            "no decision headers in:\n{}",
            explained.text
        );
    }
}
