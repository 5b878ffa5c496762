//! Fitness signals for the guided adversary search.
//!
//! A fitness score is an `i64`; *higher is more adversarial*. Every signal
//! is a pure, deterministic function of a schedule and its observed run
//! (the [`ProtocolEvent`](opr_obs::ProtocolEvent) stream plus the
//! diagnosis), so the same schedule always scores the same on both
//! backends and at any `--jobs` — the bedrock of the search's
//! bit-determinism contract.
//!
//! The signals, from crudest to sharpest:
//!
//! * [`FitnessKind::Rounds`] — communication steps consumed;
//! * [`FitnessKind::Namespace`] — the largest decided name (namespace
//!   pressure against the `N + t − 1` / `N` / `N²` bound);
//! * [`FitnessKind::Spread`] — the widest AA trimmed-mean disagreement
//!   across processes for any `(step, id)`, in fixed-point (×10⁹);
//! * [`FitnessKind::Drops`] — admission damage: quorum rejections,
//!   `isValid` vote rejects and AA id drops;
//! * [`FitnessKind::Margin`] — the key signal: how close the run came to
//!   a violation, from oracle slack ([`suite_margins`]) and quorum
//!   flip distances ([`quorum_pressure`]). Minimizing slack = maximizing
//!   fitness.

use crate::oracle::{quorum_pressure, suite_margins};
use crate::schedule::ChaosSchedule;
use opr_obs::ProtocolEvent;
use opr_transport::BackendKind;
use opr_workload::DiagnosedRun;
use std::collections::BTreeMap;
use std::fmt;

/// Which signal the search optimizes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FitnessKind {
    /// Communication steps the run consumed.
    Rounds,
    /// The largest decided name.
    Namespace,
    /// The widest AA trimmed-mean spread, fixed-point ×10⁹.
    Spread,
    /// Admission damage: failed thresholds, vote rejects, id drops.
    Drops,
    /// Proximity to violation: negated minimum oracle/quorum slack.
    Margin,
}

impl FitnessKind {
    /// Every kind, in reporting order.
    pub const ALL: [FitnessKind; 5] = [
        FitnessKind::Rounds,
        FitnessKind::Namespace,
        FitnessKind::Spread,
        FitnessKind::Drops,
        FitnessKind::Margin,
    ];

    /// The stable CLI/JSON label.
    pub fn label(self) -> &'static str {
        match self {
            FitnessKind::Rounds => "rounds",
            FitnessKind::Namespace => "namespace",
            FitnessKind::Spread => "spread",
            FitnessKind::Drops => "drops",
            FitnessKind::Margin => "margin",
        }
    }

    /// Parses a [`FitnessKind::label`].
    pub fn parse(s: &str) -> Option<FitnessKind> {
        FitnessKind::ALL.into_iter().find(|k| k.label() == s)
    }
}

impl fmt::Display for FitnessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A fitness score; higher is more adversarial. Ordering is the search's
/// selection pressure.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Fitness(pub i64);

impl fmt::Display for Fitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The fitness a repro file records alongside its schedule, so a replayed
/// regression seed can prove the score still reproduces.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FitnessRecord {
    /// The signal that scored the schedule.
    pub kind: FitnessKind,
    /// The recorded score.
    pub score: i64,
}

/// Scores one observed run. Event-derived signals score `0` when the run
/// carries no recorded events (the search always records; the constant
/// keeps the function total).
pub fn evaluate(
    kind: FitnessKind,
    schedule: &ChaosSchedule,
    run: &DiagnosedRun,
    backend: BackendKind,
) -> Fitness {
    match kind {
        FitnessKind::Rounds => Fitness(i64::from(run.rounds)),
        FitnessKind::Namespace => Fitness(run.full_outcome.max_name().map_or(0, |name| name.raw())),
        FitnessKind::Spread => Fitness(spread_fixed_point(run)),
        FitnessKind::Drops => Fitness(admission_drops(run)),
        FitnessKind::Margin => Fitness(margin_pressure(schedule, run, backend)),
    }
}

/// The widest trimmed-mean disagreement across processes for any
/// `(step, id)` AA cell, in fixed-point ×10⁹ (ranks live in `[0, 1]`-ish
/// space; the scale keeps sub-epsilon spreads ordinal without floats in
/// the score).
fn spread_fixed_point(run: &DiagnosedRun) -> i64 {
    let Some(log) = run.events.as_ref() else {
        return 0;
    };
    let mut cells: BTreeMap<(u32, u64), (f64, f64)> = BTreeMap::new();
    for process in &log.processes {
        for event in &process.events {
            if let ProtocolEvent::TrimmedMean { step, id, rank, .. } = event {
                let value = rank.value();
                let entry = cells.entry((*step, id.raw())).or_insert((value, value));
                entry.0 = entry.0.min(value);
                entry.1 = entry.1.max(value);
            }
        }
    }
    cells
        .values()
        .map(|&(min, max)| ((max - min) * 1e9) as i64)
        .max()
        .unwrap_or(0)
}

/// How many admission decisions went *against* a candidate: quorum
/// thresholds missed, `isValid` rejections, AA id drops, invalid two-step
/// echoes.
fn admission_drops(run: &DiagnosedRun) -> i64 {
    let Some(log) = run.events.as_ref() else {
        return 0;
    };
    let mut drops = 0i64;
    for process in &log.processes {
        for event in &process.events {
            let dropped = match *event {
                ProtocolEvent::EchoThreshold { kept, .. } => !kept,
                ProtocolEvent::ReadyThreshold { timely, .. } => !timely,
                ProtocolEvent::AcceptThreshold { accepted, .. } => !accepted,
                ProtocolEvent::VoteRejected { .. } | ProtocolEvent::IdDropped { .. } => true,
                ProtocolEvent::EchoCounted { valid, .. } => !valid,
                _ => false,
            };
            drops += i64::from(dropped);
        }
    }
    drops
}

/// Scale separating the min-slack term from the on-the-edge tiebreaker.
const MARGIN_SCALE: i64 = 4096;
/// Slack clamp: beyond this the exact distance stops mattering.
const MARGIN_CLAMP: i64 = 1_000_000;

/// Violation proximity: the negated minimum slack across every oracle
/// margin, scaled, plus the number of quorum decisions that sat exactly on
/// the edge as a tiebreaker. An actual violation (negative slack) scores
/// higher than any near-miss.
fn margin_pressure(schedule: &ChaosSchedule, run: &DiagnosedRun, backend: BackendKind) -> i64 {
    let margins = suite_margins(schedule, run, backend);
    let Some(min_slack) = margins.iter().map(|&(_, m)| m).min() else {
        return 0;
    };
    let edges = quorum_pressure(run).map_or(0, |(_, edges)| edges) as i64;
    (MARGIN_CLAMP - min_slack.clamp(-MARGIN_CLAMP, MARGIN_CLAMP)) * MARGIN_SCALE
        + edges.min(MARGIN_SCALE - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate_schedule;
    use crate::schedule::BudgetRegime;

    #[test]
    fn labels_round_trip() {
        for kind in FitnessKind::ALL {
            assert_eq!(FitnessKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(FitnessKind::parse("nonsense"), None);
    }

    #[test]
    fn every_signal_is_backend_invariant() {
        let schedule = generate_schedule(7, BudgetRegime::AtBudget);
        let sim = schedule.run_observed(BackendKind::Sim).unwrap();
        let pooled = schedule.run_observed(BackendKind::Pooled).unwrap();
        for kind in FitnessKind::ALL {
            assert_eq!(
                evaluate(kind, &schedule, &sim, BackendKind::Sim),
                evaluate(kind, &schedule, &pooled, BackendKind::Pooled),
                "{kind}"
            );
        }
    }

    #[test]
    fn rounds_and_namespace_need_no_events() {
        let schedule = generate_schedule(7, BudgetRegime::InBudget);
        let run = schedule.run_on(BackendKind::Sim).unwrap();
        assert!(evaluate(FitnessKind::Rounds, &schedule, &run, BackendKind::Sim).0 > 0);
        assert!(evaluate(FitnessKind::Namespace, &schedule, &run, BackendKind::Sim).0 > 0);
    }

    #[test]
    fn margin_scores_higher_under_more_pressure() {
        // An at-budget attack leaves less slack than a fault-free run of
        // the same shape.
        let attacked = generate_schedule(7, BudgetRegime::AtBudget);
        let mut calm = attacked.clone();
        calm.byzantine = 0;
        calm.events.clear();
        let run_a = attacked.run_observed(BackendKind::Sim).unwrap();
        let run_c = calm.run_observed(BackendKind::Sim).unwrap();
        let fit_a = evaluate(FitnessKind::Margin, &attacked, &run_a, BackendKind::Sim);
        let fit_c = evaluate(FitnessKind::Margin, &calm, &run_c, BackendKind::Sim);
        assert!(
            fit_a >= fit_c,
            "attacked {fit_a} should press at least as hard as calm {fit_c}"
        );
    }
}
