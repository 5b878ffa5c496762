//! Invariant probes: per-process observations the experiments aggregate.
//!
//! The lemma-validation experiment (T4) and the convergence figure (F1) need
//! to see *inside* correct processes: their `timely`/`accepted` sets and the
//! evolution of their rank vectors per voting step. Correct actors write
//! snapshots into a shared, simulator-thread-local sink
//! (`SharedProcessProbe`); the runner aggregates the sinks into
//! [`Alg1Probe`] / [`TwoStepProbe`] after the run.

use crate::ranks::RankVector;
use opr_types::{NewName, OriginalId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

/// One correct process's view at the end of a step of Algorithm 1.
#[derive(Clone, Debug, PartialEq)]
pub struct VotingSnapshot {
    /// The communication step this snapshot was taken after (4 = end of id
    /// selection, 5.. = voting steps).
    pub step: u32,
    /// The process's rank vector.
    pub ranks: RankVector,
    /// The process's `timely` set (constant after step 4, so every
    /// snapshot of a process shares one).
    pub timely: Arc<BTreeSet<OriginalId>>,
    /// The process's `accepted` set (may shrink during voting; shared
    /// between snapshots until it does).
    pub accepted: Arc<BTreeSet<OriginalId>>,
}

/// Sink one correct Algorithm 1 process writes into.
#[derive(Clone, Debug, Default)]
pub struct ProcessProbe {
    /// Snapshots, in step order.
    pub snapshots: Vec<VotingSnapshot>,
    /// Votes rejected by `isValid` (or malformed) at this process.
    pub rejected_votes: u64,
    /// The communication step the process produced its output at (differs
    /// from the schedule end only under the early-output extension).
    pub decided_at_step: Option<u32>,
}

/// Shared handle to a [`ProcessProbe`]. `Arc<Mutex<…>>` so actors stay
/// `Send` (`Network::step_on` may step them on worker threads); every run
/// steps them on one thread, where the lock is uncontended and effectively
/// free.
pub(crate) type SharedProcessProbe = Arc<Mutex<ProcessProbe>>;

/// Creates a fresh shared probe.
pub fn shared_probe() -> SharedProcessProbe {
    Arc::new(Mutex::new(ProcessProbe::default()))
}

/// Aggregated observations of all correct processes in one Algorithm 1 run.
#[derive(Clone, Debug, Default)]
pub struct Alg1Probe {
    /// One entry per correct process, in the order their ids were supplied.
    pub processes: Vec<ProcessProbe>,
}

impl From<Vec<ProcessProbe>> for Alg1Probe {
    fn from(processes: Vec<ProcessProbe>) -> Self {
        Alg1Probe { processes }
    }
}

impl Alg1Probe {
    /// Sizes of the final `accepted` sets, one per correct process.
    pub fn accepted_sizes(&self) -> Vec<usize> {
        self.processes
            .iter()
            .filter_map(|p| p.snapshots.last().map(|s| s.accepted.len()))
            .collect()
    }

    /// Sizes of the `timely` sets (taken at the earliest snapshot).
    pub fn timely_sizes(&self) -> Vec<usize> {
        self.processes
            .iter()
            .filter_map(|p| p.snapshots.first().map(|s| s.timely.len()))
            .collect()
    }

    /// Lemma IV.1 cross-check: every id timely at *some* correct process is
    /// accepted at *every* correct process (checked on the post-id-selection
    /// snapshots). Returns the number of violating (id, process) pairs.
    pub fn containment_violations(&self) -> usize {
        let firsts: Vec<&VotingSnapshot> = self
            .processes
            .iter()
            .filter_map(|p| p.snapshots.first())
            .collect();
        let timely_union: BTreeSet<OriginalId> = firsts
            .iter()
            .flat_map(|s| s.timely.iter().copied())
            .collect();
        firsts
            .iter()
            .map(|s| timely_union.difference(&s.accepted).count())
            .sum()
    }

    /// For each voting step, the largest cross-process rank spread over the
    /// ids in the union of timely sets — the measured `Δ_r` series of
    /// Lemma IV.8 / experiment F1. Index 0 is the initial (post-step-4)
    /// spread `Δ₅`.
    pub fn spread_series(&self) -> Vec<f64> {
        let timely_union: BTreeSet<OriginalId> = self
            .processes
            .iter()
            .filter_map(|p| p.snapshots.first())
            .flat_map(|s| s.timely.iter().copied())
            .collect();
        let steps = self
            .processes
            .iter()
            .map(|p| p.snapshots.len())
            .min()
            .unwrap_or(0);
        (0..steps)
            .map(|k| {
                let mut max_spread: f64 = 0.0;
                for &id in &timely_union {
                    let ranks: Vec<f64> = self
                        .processes
                        .iter()
                        .filter_map(|p| p.snapshots[k].ranks.get(id))
                        .map(|r| r.value())
                        .collect();
                    if ranks.len() >= 2 {
                        let lo = ranks.iter().copied().fold(f64::INFINITY, f64::min);
                        let hi = ranks.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                        max_spread = max_spread.max(hi - lo);
                    }
                }
                max_spread
            })
            .collect()
    }

    /// Total `isValid` rejections across correct processes.
    pub fn total_rejected_votes(&self) -> u64 {
        self.processes.iter().map(|p| p.rejected_votes).sum()
    }

    /// The step each correct process decided at (schedule end unless the
    /// early-output extension fired earlier).
    pub fn decision_steps(&self) -> Vec<Option<u32>> {
        self.processes.iter().map(|p| p.decided_at_step).collect()
    }

    /// The latest decision step across correct processes, if all decided.
    pub fn last_decision_step(&self) -> Option<u32> {
        self.processes
            .iter()
            .map(|p| p.decided_at_step)
            .collect::<Option<Vec<u32>>>()
            .and_then(|steps| steps.into_iter().max())
    }
}

/// One correct process's view at the end of Algorithm 4.
#[derive(Clone, Debug, Default)]
pub struct TwoStepProcessProbe {
    /// The locally-estimated new names for every accepted id (the paper
    /// stores these "only for clarity of the proofs" — we store them for
    /// exactly that purpose: checking Lemmas VI.1 and VI.2).
    pub newid: BTreeMap<OriginalId, NewName>,
    /// The process's `timely` set.
    pub timely: BTreeSet<OriginalId>,
    /// Echo messages rejected by the validity check.
    pub rejected_echoes: u64,
}

/// Shared handle for a [`TwoStepProcessProbe`].
pub(crate) type SharedTwoStepProbe = Arc<Mutex<TwoStepProcessProbe>>;

/// Aggregated observations of one Algorithm 4 run.
#[derive(Clone, Debug, Default)]
pub struct TwoStepProbe {
    /// One entry per correct process.
    pub processes: Vec<TwoStepProcessProbe>,
}

impl From<Vec<TwoStepProcessProbe>> for TwoStepProbe {
    fn from(processes: Vec<TwoStepProcessProbe>) -> Self {
        TwoStepProbe { processes }
    }
}

impl TwoStepProbe {
    /// The measured `Δ` of Lemma VI.1: the largest discrepancy between any
    /// two correct processes' estimates of the same *correct* id's new name.
    pub fn max_discrepancy(&self, correct_ids: &BTreeSet<OriginalId>) -> i64 {
        let mut max_delta = 0i64;
        for &id in correct_ids {
            let estimates: Vec<i64> = self
                .processes
                .iter()
                .filter_map(|p| p.newid.get(&id))
                .map(|n| n.raw())
                .collect();
            if let (Some(&lo), Some(&hi)) = (estimates.iter().min(), estimates.iter().max()) {
                max_delta = max_delta.max(hi - lo);
            }
        }
        max_delta
    }

    /// Lemma VI.2 check: within each correct process's table, consecutive
    /// correct ids are at least `N − t` apart. Returns the smallest observed
    /// gap (or `i64::MAX` when fewer than two correct ids exist).
    pub fn min_correct_gap(&self, correct_ids: &BTreeSet<OriginalId>) -> i64 {
        let mut min_gap = i64::MAX;
        for p in &self.processes {
            let names: Vec<i64> = correct_ids
                .iter()
                .filter_map(|id| p.newid.get(id))
                .map(|n| n.raw())
                .collect();
            for w in names.windows(2) {
                min_gap = min_gap.min(w[1] - w[0]);
            }
        }
        min_gap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opr_types::Rank;

    fn snapshot(
        step: u32,
        pairs: &[(u64, f64)],
        timely: &[u64],
        accepted: &[u64],
    ) -> VotingSnapshot {
        VotingSnapshot {
            step,
            ranks: pairs
                .iter()
                .map(|&(id, r)| (OriginalId::new(id), Rank::new(r)))
                .collect(),
            timely: Arc::new(timely.iter().map(|&x| OriginalId::new(x)).collect()),
            accepted: Arc::new(accepted.iter().map(|&x| OriginalId::new(x)).collect()),
        }
    }

    #[test]
    fn spread_series_tracks_max_over_timely_union() {
        let probe = Alg1Probe {
            processes: vec![
                ProcessProbe {
                    snapshots: vec![
                        snapshot(4, &[(1, 1.0), (2, 2.0)], &[1, 2], &[1, 2]),
                        snapshot(5, &[(1, 1.1), (2, 2.1)], &[1, 2], &[1, 2]),
                    ],
                    rejected_votes: 1,
                    decided_at_step: None,
                },
                ProcessProbe {
                    snapshots: vec![
                        snapshot(4, &[(1, 1.5), (2, 2.2)], &[1, 2], &[1, 2]),
                        snapshot(5, &[(1, 1.2), (2, 2.15)], &[1, 2], &[1, 2]),
                    ],
                    rejected_votes: 0,
                    decided_at_step: None,
                },
            ],
        };
        let series = probe.spread_series();
        assert_eq!(series.len(), 2);
        assert!((series[0] - 0.5).abs() < 1e-12);
        assert!((series[1] - 0.1).abs() < 1e-9);
        assert_eq!(probe.total_rejected_votes(), 1);
        assert_eq!(probe.accepted_sizes(), vec![2, 2]);
        assert_eq!(probe.timely_sizes(), vec![2, 2]);
        assert_eq!(probe.containment_violations(), 0);
    }

    #[test]
    fn containment_violation_detected() {
        let probe = Alg1Probe {
            processes: vec![
                ProcessProbe {
                    snapshots: vec![snapshot(4, &[], &[1, 9], &[1, 9])],
                    rejected_votes: 0,
                    decided_at_step: None,
                },
                ProcessProbe {
                    // Missing id 9 from accepted although it is timely at
                    // the other process.
                    snapshots: vec![snapshot(4, &[], &[1], &[1])],
                    rejected_votes: 0,
                    decided_at_step: None,
                },
            ],
        };
        assert_eq!(probe.containment_violations(), 1);
    }

    #[test]
    fn two_step_discrepancy_and_gap() {
        let mk = |pairs: &[(u64, i64)]| TwoStepProcessProbe {
            newid: pairs
                .iter()
                .map(|&(id, n)| (OriginalId::new(id), NewName::new(n)))
                .collect(),
            timely: BTreeSet::new(),
            rejected_echoes: 0,
        };
        let probe = TwoStepProbe {
            processes: vec![mk(&[(1, 10), (2, 20)]), mk(&[(1, 12), (2, 19)])],
        };
        let correct: BTreeSet<OriginalId> = [1u64, 2].iter().map(|&x| OriginalId::new(x)).collect();
        assert_eq!(probe.max_discrepancy(&correct), 2);
        assert_eq!(probe.min_correct_gap(&correct), 7);
    }

    #[test]
    fn empty_probes_are_benign() {
        let probe = Alg1Probe::default();
        assert!(probe.spread_series().is_empty());
        assert_eq!(probe.containment_violations(), 0);
        let ts = TwoStepProbe::default();
        assert_eq!(ts.max_discrepancy(&BTreeSet::new()), 0);
        assert_eq!(ts.min_correct_gap(&BTreeSet::new()), i64::MAX);
    }
}
