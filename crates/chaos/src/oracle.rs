//! The pluggable invariant-oracle suite.
//!
//! Each oracle inspects one diagnosed run (plus, when the campaign executes
//! a schedule on both backends, the second run) and reports the breaches it
//! owns. The property oracles project out of the runner's own diagnosis
//! ([`DegradedOutcome::diagnose`](opr_types::DegradedOutcome::diagnose)
//! already judges the healthy correct processes); the cross-backend oracle
//! compares the two executions observable-by-observable and demands
//! bit-equality.
//!
//! Beyond the boolean verdict, oracles with a numeric notion of slack
//! expose [`Oracle::margin`] — the distance to violation. A margin of `0`
//! means "on the edge" (one name, round or message from breaking), negative
//! means "violated by that much". `chaos explain` prints every margin
//! beside the decision waterfall.

use crate::schedule::ChaosSchedule;
use opr_obs::ProtocolEvent;
use opr_transport::BackendKind;
use opr_types::{PropertyViolation, Violation};
use opr_workload::DiagnosedRun;

/// What a campaign hands every oracle for one executed schedule.
pub struct OracleInput<'a> {
    /// The schedule that ran.
    pub schedule: &'a ChaosSchedule,
    /// The reference execution's diagnosis.
    pub reference: &'a DiagnosedRun,
    /// Which backend produced the reference.
    pub reference_backend: BackendKind,
    /// The cross-check execution, when the campaign compares backends
    /// ([`BackendChoice::Both`](crate::BackendChoice::Both)).
    pub cross_check: Option<(BackendKind, &'a DiagnosedRun)>,
}

/// One paper invariant, checkable against an executed schedule.
pub trait Oracle {
    /// A short stable name for reports.
    fn name(&self) -> &'static str;
    /// The violations of this oracle's invariant, empty when it holds.
    fn check(&self, input: &OracleInput<'_>) -> Vec<Violation>;
    /// The distance to violation, when this oracle has a numeric notion of
    /// slack: `0` is on the edge, negative is violated by that much, `None`
    /// when the invariant is purely boolean or the run carries no signal
    /// (e.g. no decisions, no recorded events).
    fn margin(&self, _input: &OracleInput<'_>) -> Option<i64> {
        None
    }
}

/// The stable kind tag of a violation (matching
/// [`DegradedOutcome::digest`](opr_types::DegradedOutcome::digest)).
pub(crate) fn violation_kind(v: &Violation) -> &'static str {
    match v {
        Violation::Property(PropertyViolation::Validity { .. }) => "validity",
        Violation::Property(PropertyViolation::Termination { .. }) => "termination",
        Violation::Property(PropertyViolation::Uniqueness { .. }) => "uniqueness",
        Violation::Property(PropertyViolation::OrderPreservation { .. }) => "order",
        Violation::NamespaceExceeded { .. } => "namespace",
        Violation::StepCountMismatch { .. } => "steps",
        Violation::MissedTermination { .. } => "missed-termination",
        Violation::CorrectMalformed(_) => "correct-malformed",
        Violation::BackendDivergence { .. } => "backend-divergence",
    }
}

/// Projects the reference diagnosis onto the kinds an oracle owns.
fn project(input: &OracleInput<'_>, kinds: &[&str]) -> Vec<Violation> {
    input
        .reference
        .degraded
        .violations
        .iter()
        .filter(|v| kinds.contains(&violation_kind(v)))
        .cloned()
        .collect()
}

/// No two healthy correct processes decide the same name.
pub(crate) struct UniquenessOracle;

impl Oracle for UniquenessOracle {
    fn name(&self) -> &'static str {
        "uniqueness"
    }
    fn check(&self, input: &OracleInput<'_>) -> Vec<Violation> {
        project(input, &["uniqueness"])
    }
}

/// Names of healthy correct processes are ordered like their original ids.
pub(crate) struct OrderPreservationOracle;

impl Oracle for OrderPreservationOracle {
    fn name(&self) -> &'static str {
        "order-preservation"
    }
    fn check(&self, input: &OracleInput<'_>) -> Vec<Violation> {
        project(input, &["order"])
    }
}

/// Every decided name lies in the algorithm's namespace (`N + t − 1`, `N`
/// or `N²`); validity breaches ride along (a name outside the permitted
/// range is the same contract).
pub(crate) struct NamespaceOracle;

impl Oracle for NamespaceOracle {
    fn name(&self) -> &'static str {
        "namespace"
    }
    fn check(&self, input: &OracleInput<'_>) -> Vec<Violation> {
        project(input, &["namespace", "validity"])
    }
    /// Names left below the bound: `bound − max_name` over every decided
    /// correct process (excluded ones included — they consume namespace).
    fn margin(&self, input: &OracleInput<'_>) -> Option<i64> {
        let bound = input
            .schedule
            .cfg()
            .ok()?
            .namespace_bound(input.schedule.regime) as i64;
        let max = input.reference.full_outcome.max_name()?;
        Some(bound - max.raw())
    }
}

/// The run took the algorithm's exact step count.
pub(crate) struct StepCountOracle;

impl Oracle for StepCountOracle {
    fn name(&self) -> &'static str {
        "step-count"
    }
    fn check(&self, input: &OracleInput<'_>) -> Vec<Violation> {
        project(input, &["steps"])
    }
    /// `−|got − expected|`: the step-count contract is exact, so the only
    /// slack is zero and any drift is already a violation by that much.
    /// `None` while the run has not completed (the contract is unjudged).
    fn margin(&self, input: &OracleInput<'_>) -> Option<i64> {
        if !input.reference.degraded.completed {
            return None;
        }
        let expected = input
            .schedule
            .cfg()
            .ok()?
            .total_steps(input.schedule.regime) as i64;
        let got = input.reference.rounds as i64;
        Some(-(expected - got).abs())
    }
}

/// Every healthy correct process decided within the round budget.
pub(crate) struct TerminationOracle;

impl Oracle for TerminationOracle {
    fn name(&self) -> &'static str {
        "termination"
    }
    fn check(&self, input: &OracleInput<'_>) -> Vec<Violation> {
        project(input, &["termination", "missed-termination"])
    }
    /// Rounds of budget left when the last process decided (`budget −
    /// latest decision step`, from the event stream); `−1` when some
    /// recorded process never decided. `None` without recorded events.
    fn margin(&self, input: &OracleInput<'_>) -> Option<i64> {
        let log = input.reference.events.as_ref()?;
        let budget = input
            .schedule
            .cfg()
            .ok()?
            .total_steps(input.schedule.regime) as i64;
        let mut worst: Option<i64> = None;
        for process in &log.processes {
            let decided = process
                .events
                .iter()
                .filter_map(|e| match e {
                    ProtocolEvent::Decided { step, .. } => Some(i64::from(*step)),
                    _ => None,
                })
                .max();
            let slack = match decided {
                Some(step) => budget - step,
                None => -1,
            };
            worst = Some(worst.map_or(slack, |w: i64| w.min(slack)));
        }
        worst
    }
}

/// No *correct* process produced a transport-rejected send (Byzantine
/// processes may; a correct one doing so is a protocol or harness bug in
/// any budget regime).
pub(crate) struct MalformedOracle;

impl Oracle for MalformedOracle {
    fn name(&self) -> &'static str {
        "correct-malformed"
    }
    fn check(&self, input: &OracleInput<'_>) -> Vec<Violation> {
        project(input, &["correct-malformed"])
    }
}

/// Every compared backend produced observables bit-equal to the reference:
/// outcome, rounds, message/bit metrics, the malformed-send ledger and the
/// diagnosis itself.
pub(crate) struct CrossBackendOracle;

impl Oracle for CrossBackendOracle {
    fn name(&self) -> &'static str {
        "cross-backend"
    }
    fn check(&self, input: &OracleInput<'_>) -> Vec<Violation> {
        let a = input.reference;
        let mut out = Vec::new();
        if let Some((_, other)) = input.cross_check {
            let mut diverge = |observable: &'static str, left: String, right: String| {
                if left != right {
                    out.push(Violation::BackendDivergence {
                        observable,
                        reference: left,
                        other: right,
                    });
                }
            };
            diverge(
                "outcome",
                format!("{:?}", a.full_outcome),
                format!("{:?}", other.full_outcome),
            );
            diverge("rounds", a.rounds.to_string(), other.rounds.to_string());
            diverge(
                "messages",
                a.metrics.messages_total().to_string(),
                other.metrics.messages_total().to_string(),
            );
            diverge(
                "bits",
                a.metrics.bits_correct().to_string(),
                other.metrics.bits_correct().to_string(),
            );
            diverge(
                "max-message-bits",
                a.metrics.max_message_bits().to_string(),
                other.metrics.max_message_bits().to_string(),
            );
            diverge(
                "malformed",
                format!("{:?}", a.malformed),
                format!("{:?}", other.malformed),
            );
            diverge(
                "diagnosis",
                format!("{:?}", a.degraded.violations),
                format!("{:?}", other.degraded.violations),
            );
        }
        out
    }
}

/// How far one threshold decision sat from flipping: `count − quorum` when
/// it passed, `quorum − count − 1` when it failed. Both are `≥ 0`; `0`
/// means one message either way would have changed the admission.
fn flip_distance(count: usize, quorum: usize, passed: bool) -> i64 {
    if passed {
        count as i64 - quorum as i64
    } else {
        quorum as i64 - count as i64 - 1
    }
}

/// The flip distance of one event's quorum comparison, for the variants
/// that carry one (ECHO/READY/ACCEPT thresholds and AA vote admission).
fn event_flip_distance(event: &ProtocolEvent) -> Option<i64> {
    match *event {
        ProtocolEvent::EchoThreshold {
            echoes,
            quorum,
            kept,
            ..
        } => Some(flip_distance(echoes, quorum, kept)),
        ProtocolEvent::ReadyThreshold {
            readies,
            quorum,
            timely,
            ..
        } => Some(flip_distance(readies, quorum, timely)),
        ProtocolEvent::AcceptThreshold {
            readies,
            quorum,
            accepted,
            ..
        } => Some(flip_distance(readies, quorum, accepted)),
        ProtocolEvent::IdDropped { votes, needed, .. } => Some(flip_distance(votes, needed, false)),
        _ => None,
    }
}

/// The quorum landscape of one recorded run: the minimum flip distance
/// across every threshold decision. `None` when the run carries no events
/// or no threshold events.
fn quorum_pressure(run: &DiagnosedRun) -> Option<i64> {
    run.events
        .as_ref()?
        .processes
        .iter()
        .flat_map(|process| &process.events)
        .filter_map(event_flip_distance)
        .min()
}

/// Every quorum comparison held with room to spare — or didn't. No boolean
/// invariant of its own (a quorum exactly met is legal); exists for its
/// [`Oracle::margin`]: the minimum flip distance over all recorded
/// threshold decisions.
pub(crate) struct QuorumEdgeOracle;

impl Oracle for QuorumEdgeOracle {
    fn name(&self) -> &'static str {
        "quorum-edge"
    }
    fn check(&self, _input: &OracleInput<'_>) -> Vec<Violation> {
        Vec::new()
    }
    fn margin(&self, input: &OracleInput<'_>) -> Option<i64> {
        quorum_pressure(input.reference)
    }
}

/// The full standard suite, in reporting order: the four renaming
/// properties, the step count, correct-process hygiene, cross-backend
/// bit-equality, and the (margin-only) quorum edge.
pub fn standard_suite() -> Vec<Box<dyn Oracle>> {
    vec![
        Box::new(UniquenessOracle),
        Box::new(OrderPreservationOracle),
        Box::new(NamespaceOracle),
        Box::new(TerminationOracle),
        Box::new(StepCountOracle),
        Box::new(MalformedOracle),
        Box::new(CrossBackendOracle),
        Box::new(QuorumEdgeOracle),
    ]
}

/// Every oracle's margin for one single-backend execution, in suite order,
/// skipping oracles with no numeric slack on this run.
pub(crate) fn suite_margins(
    schedule: &ChaosSchedule,
    run: &DiagnosedRun,
    backend: BackendKind,
) -> Vec<(&'static str, i64)> {
    let input = OracleInput {
        schedule,
        reference: run,
        reference_backend: backend,
        cross_check: None,
    };
    standard_suite()
        .iter()
        .filter_map(|oracle| oracle.margin(&input).map(|m| (oracle.name(), m)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate_schedule;
    use crate::schedule::BudgetRegime;

    fn input_for<'a>(
        schedule: &'a ChaosSchedule,
        reference: &'a DiagnosedRun,
        other: Option<&'a DiagnosedRun>,
    ) -> OracleInput<'a> {
        OracleInput {
            schedule,
            reference,
            reference_backend: BackendKind::Sim,
            cross_check: other.map(|o| (BackendKind::Pooled, o)),
        }
    }

    #[test]
    fn clean_run_satisfies_every_oracle() {
        let schedule = generate_schedule(3, BudgetRegime::AtBudget);
        let sim = schedule.run_on(BackendKind::Sim).unwrap();
        let pooled = schedule.run_on(BackendKind::Pooled).unwrap();
        let input = input_for(&schedule, &sim, Some(&pooled));
        for oracle in standard_suite() {
            let violations = oracle.check(&input);
            assert!(violations.is_empty(), "{}: {violations:?}", oracle.name());
        }
    }

    #[test]
    fn cross_backend_oracle_flags_divergence() {
        let schedule = generate_schedule(3, BudgetRegime::AtBudget);
        let sim = schedule.run_on(BackendKind::Sim).unwrap();
        let mut forged = sim.clone();
        forged.rounds += 1;
        let input = input_for(&schedule, &sim, Some(&forged));
        let violations = CrossBackendOracle.check(&input);
        assert!(violations.iter().any(|v| matches!(
            v,
            Violation::BackendDivergence {
                observable: "rounds",
                ..
            }
        )));
    }

    #[test]
    fn oracles_project_the_runner_diagnosis() {
        // An over-budget schedule that misses termination must surface via
        // the termination oracle and no other property oracle.
        let schedule = ChaosSchedule {
            regime: opr_types::Regime::LogTime,
            n: 7,
            t: 2,
            id_dist: opr_workload::IdDistribution::EvenSpaced,
            id_seed: 4,
            adversary: opr_adversary::AdversarySpec::Silent,
            byzantine: 3,
            run_seed: 2,
            events: Vec::new(),
            payload_cap: None,
        };
        let sim = schedule.run_on(BackendKind::Sim).unwrap();
        let input = input_for(&schedule, &sim, None);
        if sim.degraded.is_clean() {
            // 3 silent processes may still allow termination; nothing to do.
            return;
        }
        let term = TerminationOracle.check(&input);
        let uniq = UniquenessOracle.check(&input);
        assert!(!term.is_empty());
        assert!(uniq.is_empty());
    }

    #[test]
    fn suite_names_are_distinct() {
        let mut names: Vec<&str> = standard_suite().iter().map(|o| o.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn margins_are_positive_on_a_clean_observed_run() {
        let mut saw_quorum_edge = false;
        for seed in 0..8u64 {
            let schedule = generate_schedule(seed, BudgetRegime::InBudget);
            let run = schedule.run_observed(BackendKind::Sim).unwrap();
            let margins = suite_margins(&schedule, &run, BackendKind::Sim);
            let lookup = |name: &str| margins.iter().find(|(n, _)| *n == name).map(|&(_, m)| m);
            // A clean in-budget run sits inside every numeric bound.
            assert!(lookup("namespace").unwrap() >= 0, "seed {seed}");
            assert!(lookup("termination").unwrap() >= 0, "seed {seed}");
            assert_eq!(lookup("step-count").unwrap(), 0, "seed {seed}");
            // Two-step schedules record no quorum-threshold events, so the
            // quorum-edge margin is present only for Algorithm 1 regimes.
            if let Some(edge) = lookup("quorum-edge") {
                assert!(edge >= 0, "seed {seed}");
                saw_quorum_edge = true;
            }
        }
        assert!(saw_quorum_edge, "no seed exercised the quorum-edge margin");
    }

    #[test]
    fn margins_need_events_where_events_are_the_signal() {
        let schedule = generate_schedule(3, BudgetRegime::InBudget);
        let run = schedule.run_on(BackendKind::Sim).unwrap();
        let margins = suite_margins(&schedule, &run, BackendKind::Sim);
        // Without a recorded event stream the event-derived margins vanish
        // but the outcome-derived ones survive.
        assert!(margins.iter().any(|(n, _)| *n == "namespace"));
        assert!(margins.iter().all(|(n, _)| *n != "termination"));
        assert!(margins.iter().all(|(n, _)| *n != "quorum-edge"));
    }

    #[test]
    fn flip_distance_is_zero_exactly_on_the_edge() {
        // Passed with exactly the quorum, or failed one short of it.
        assert_eq!(flip_distance(5, 5, true), 0);
        assert_eq!(flip_distance(4, 5, false), 0);
        assert_eq!(flip_distance(7, 5, true), 2);
        assert_eq!(flip_distance(2, 5, false), 2);
    }
}
