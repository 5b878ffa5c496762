//! Graceful-degradation taxonomy: what a run reports when the paper's
//! assumptions are stretched or broken.
//!
//! The theorems hold while at most `t` processes misbehave. Outside that
//! envelope — the chaos campaign's deliberately over-budget regime — a run
//! must still *diagnose* itself instead of aborting: which invariant broke,
//! which processes never decided, which sends were malformed. Three pieces
//! encode that contract:
//!
//! * [`MalformedSend`] — a transport-rejected send (out-of-range link label,
//!   duplicate multicast link, oversized payload). Recorded and dropped by
//!   the transport instead of panicking the engine.
//! * [`Violation`] — one diagnosed breach of a paper invariant (a renaming
//!   [`PropertyViolation`], the namespace bound, the fixed step count,
//!   missed termination, or a malformed send by a *correct* process).
//! * [`DegradedOutcome`] — a completed diagnosis: the outcome that was
//!   reached plus every violation found. "Degraded but diagnosed" is a pass
//!   in the over-budget regime; a panic never is.

use crate::ids::{NewName, OriginalId, ProcessIndex, Round};
use crate::outcome::{PropertyViolation, RenamingOutcome};
use std::fmt;

/// Why the transport rejected a send.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MalformedKind {
    /// The outgoing link label exceeds `N`.
    LinkOutOfRange {
        /// The offending 1-based label.
        label: usize,
        /// The system size (labels are `1 ⋯ N`).
        n: usize,
    },
    /// Two messages on the same link in one round (the model allows one).
    DuplicateLink {
        /// The 1-based label used twice.
        label: usize,
    },
    /// The message exceeds the job's payload cap.
    OversizedPayload {
        /// The message size in bits.
        bits: u64,
        /// The configured cap in bits.
        cap: u64,
    },
}

impl fmt::Display for MalformedKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MalformedKind::LinkOutOfRange { label, n } => {
                write!(f, "link label {label} out of range for N={n}")
            }
            MalformedKind::DuplicateLink { label } => {
                write!(f, "duplicate message on link {label}")
            }
            MalformedKind::OversizedPayload { bits, cap } => {
                write!(f, "payload of {bits} bits exceeds the {cap}-bit cap")
            }
        }
    }
}

/// One send the transport refused to route. The message is dropped (for the
/// receiver this is indistinguishable from a link fault); the rejection is
/// recorded so the caller can decide whether the sender was within its
/// rights (Byzantine) or buggy (correct).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MalformedSend {
    /// The sending process.
    pub sender: ProcessIndex,
    /// The round of the attempted send.
    pub round: Round,
    /// Why the send was rejected.
    pub kind: MalformedKind,
}

impl fmt::Display for MalformedSend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} in {:?}: {}", self.sender, self.round, self.kind)
    }
}

/// One diagnosed breach of a paper invariant.
#[derive(Clone, PartialEq, Debug)]
pub enum Violation {
    /// A renaming property failed (validity, termination, uniqueness, order
    /// preservation) over the processes the oracle holds to the spec.
    Property(PropertyViolation),
    /// The largest decided name exceeds the algorithm's namespace bound.
    NamespaceExceeded {
        /// The largest name any in-scope process decided.
        max_name: NewName,
        /// The algorithm's bound `M` (`N + t − 1`, `N`, or `N²`).
        bound: u64,
    },
    /// The run did not take the algorithm's exact step count.
    StepCountMismatch {
        /// The paper's fixed step count for this `(algorithm, N, t)`.
        expected: u32,
        /// Rounds actually executed.
        got: u32,
    },
    /// In-scope processes failed to decide within the round budget.
    MissedTermination {
        /// The round budget that was exhausted.
        budget: u32,
        /// The original ids that never decided.
        undecided: Vec<OriginalId>,
    },
    /// A *correct* process produced a transport-rejected send — a protocol
    /// or harness bug, never legal behaviour.
    CorrectMalformed(MalformedSend),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Property(p) => write!(f, "{p}"),
            Violation::NamespaceExceeded { max_name, bound } => {
                write!(f, "namespace: {max_name:?} exceeds bound {bound}")
            }
            Violation::StepCountMismatch { expected, got } => {
                write!(f, "steps: executed {got}, algorithm specifies {expected}")
            }
            Violation::MissedTermination { budget, undecided } => {
                write!(
                    f,
                    "termination: {} process(es) undecided after {budget} rounds",
                    undecided.len()
                )
            }
            Violation::CorrectMalformed(m) => write!(f, "correct process sent malformed: {m}"),
        }
    }
}

/// The structured report of a run that may have left the paper's envelope:
/// the outcome that was reached, how it ran, and every invariant breach
/// diagnosed against the algorithm's own bounds.
///
/// Construct with [`DegradedOutcome::diagnose`], which runs the standard
/// invariant checks, or assemble manually from oracle output.
#[derive(Clone, PartialEq, Debug)]
pub struct DegradedOutcome {
    /// Decisions of the processes held to the spec.
    pub outcome: RenamingOutcome,
    /// Rounds actually executed.
    pub rounds: u32,
    /// Whether every in-scope process decided within the budget.
    pub completed: bool,
    /// Every diagnosed invariant breach (empty ⇒ the run upheld the paper).
    pub violations: Vec<Violation>,
}

impl DegradedOutcome {
    /// Diagnoses `outcome` against the algorithm's contract: the four
    /// renaming properties within namespace `bound`, the exact step count
    /// `expected_rounds`, termination within `budget`, and the absence of
    /// malformed sends from correct processes.
    pub fn diagnose(
        outcome: RenamingOutcome,
        rounds: u32,
        completed: bool,
        budget: u32,
        expected_rounds: u32,
        bound: u64,
        correct_malformed: &[MalformedSend],
    ) -> Self {
        let mut violations: Vec<Violation> = Vec::new();
        let undecided: Vec<OriginalId> = outcome
            .decisions()
            .iter()
            .filter(|(_, d)| d.is_none())
            .map(|(&id, _)| id)
            .collect();
        if !undecided.is_empty() {
            violations.push(Violation::MissedTermination { budget, undecided });
        }
        for v in outcome.verify(bound) {
            // Termination is reported once, aggregated, above.
            if !matches!(v, PropertyViolation::Termination { .. }) {
                violations.push(Violation::Property(v));
            }
        }
        if let Some(max_name) = outcome.max_name() {
            if !max_name.in_namespace(bound) {
                violations.push(Violation::NamespaceExceeded { max_name, bound });
            }
        }
        if completed && rounds != expected_rounds {
            violations.push(Violation::StepCountMismatch {
                expected: expected_rounds,
                got: rounds,
            });
        }
        violations.extend(
            correct_malformed
                .iter()
                .map(|&m| Violation::CorrectMalformed(m)),
        );
        DegradedOutcome {
            outcome,
            rounds,
            completed,
            violations,
        }
    }

    /// Whether the run upheld every checked invariant.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// A one-line digest suitable for logs and repro files: violation kinds
    /// in order, or `"clean"`.
    pub fn digest(&self) -> String {
        if self.violations.is_empty() {
            return "clean".to_string();
        }
        let kinds: Vec<&'static str> = self
            .violations
            .iter()
            .map(|v| match v {
                Violation::Property(PropertyViolation::Validity { .. }) => "validity",
                Violation::Property(PropertyViolation::Termination { .. }) => "termination",
                Violation::Property(PropertyViolation::Uniqueness { .. }) => "uniqueness",
                Violation::Property(PropertyViolation::OrderPreservation { .. }) => "order",
                Violation::NamespaceExceeded { .. } => "namespace",
                Violation::StepCountMismatch { .. } => "steps",
                Violation::MissedTermination { .. } => "missed-termination",
                Violation::CorrectMalformed(_) => "correct-malformed",
            })
            .collect();
        kinds.join("+")
    }
}

impl fmt::Display for DegradedOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} after {} rounds ({} violation(s))",
            if self.is_clean() { "clean" } else { "degraded" },
            self.rounds,
            self.violations.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(id: u64, name: i64) -> (OriginalId, Option<NewName>) {
        (OriginalId::new(id), Some(NewName::new(name)))
    }

    #[test]
    fn clean_run_diagnoses_clean() {
        let outcome = RenamingOutcome::new([pair(3, 1), pair(9, 2)]);
        let d = DegradedOutcome::diagnose(outcome, 7, true, 7, 7, 4, &[]);
        assert!(d.is_clean());
        assert_eq!(d.digest(), "clean");
        assert!(d.to_string().contains("clean"));
    }

    #[test]
    fn missed_termination_aggregates_undecided() {
        let outcome = RenamingOutcome::new([
            pair(3, 1),
            (OriginalId::new(9), None),
            (OriginalId::new(11), None),
        ]);
        let d = DegradedOutcome::diagnose(outcome, 7, false, 7, 7, 4, &[]);
        assert!(!d.is_clean());
        let missed = d
            .violations
            .iter()
            .find_map(|v| match v {
                Violation::MissedTermination { undecided, .. } => Some(undecided.len()),
                _ => None,
            })
            .expect("missed-termination violation");
        assert_eq!(missed, 2);
        // No per-process Termination duplicates alongside the aggregate.
        assert!(!d.violations.iter().any(|v| matches!(
            v,
            Violation::Property(PropertyViolation::Termination { .. })
        )));
    }

    #[test]
    fn namespace_and_steps_diagnosed() {
        let outcome = RenamingOutcome::new([pair(3, 1), pair(9, 99)]);
        let d = DegradedOutcome::diagnose(outcome, 9, true, 12, 7, 4, &[]);
        assert!(d
            .violations
            .iter()
            .any(|v| matches!(v, Violation::NamespaceExceeded { .. })));
        assert!(d
            .violations
            .iter()
            .any(|v| matches!(v, Violation::StepCountMismatch { .. })));
        assert!(d.digest().contains("namespace"));
        assert!(d.digest().contains("steps"));
    }

    #[test]
    fn step_count_not_checked_on_incomplete_runs() {
        let outcome = RenamingOutcome::new([(OriginalId::new(3), None)]);
        let d = DegradedOutcome::diagnose(outcome, 3, false, 3, 7, 4, &[]);
        assert!(!d
            .violations
            .iter()
            .any(|v| matches!(v, Violation::StepCountMismatch { .. })));
    }

    #[test]
    fn correct_malformed_is_reported() {
        let outcome = RenamingOutcome::new([pair(3, 1)]);
        let m = MalformedSend {
            sender: ProcessIndex::new(2),
            round: Round::new(1),
            kind: MalformedKind::DuplicateLink { label: 3 },
        };
        let d = DegradedOutcome::diagnose(outcome, 7, true, 7, 7, 4, &[m]);
        assert!(matches!(
            d.violations.as_slice(),
            [Violation::CorrectMalformed(_)]
        ));
        assert!(d.violations[0].to_string().contains("duplicate"));
    }

    #[test]
    fn displays_are_informative() {
        for kind in [
            MalformedKind::LinkOutOfRange { label: 9, n: 4 },
            MalformedKind::DuplicateLink { label: 2 },
            MalformedKind::OversizedPayload {
                bits: 4096,
                cap: 1024,
            },
        ] {
            assert!(!kind.to_string().is_empty());
        }
        let v = Violation::StepCountMismatch {
            expected: 10,
            got: 11,
        };
        assert!(v.to_string().contains("executed 11"));
    }
}
