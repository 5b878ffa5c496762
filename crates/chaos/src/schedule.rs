//! One fully-determined chaos run: the schedule and its execution bridge.

use opr_adversary::AdversarySpec;
use opr_core::fault_placement;
use opr_transport::{FaultEvent, FaultPlan};
use opr_types::{Regime, RenamingError, SystemConfig};
use opr_workload::{DiagnosedRun, IdDistribution, RenamingRun};
use std::fmt;

/// Where a schedule's effective fault load sits relative to the bound `t`.
///
/// The *effective* load counts Byzantine processes plus correct processes
/// whose outgoing links the transport fault plan disturbs (to every
/// receiver the two are indistinguishable).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum BudgetRegime {
    /// Strictly fewer than `t` effective faults — the comfortable interior
    /// of the paper's envelope.
    InBudget,
    /// Exactly `t` effective faults — the envelope's boundary, where every
    /// theorem still holds with zero slack.
    AtBudget,
    /// More than `t` effective faults — outside the envelope. The paper
    /// promises nothing; the implementation promises a structured diagnosis
    /// instead of a panic.
    OverBudget,
}

impl BudgetRegime {
    /// All regimes, in escalating order.
    pub const ALL: [BudgetRegime; 3] = [
        BudgetRegime::InBudget,
        BudgetRegime::AtBudget,
        BudgetRegime::OverBudget,
    ];

    /// A short stable label (`"in"`, `"at"`, `"over"`).
    pub fn label(&self) -> &'static str {
        match self {
            BudgetRegime::InBudget => "in",
            BudgetRegime::AtBudget => "at",
            BudgetRegime::OverBudget => "over",
        }
    }

    /// Parses a [`BudgetRegime::label`].
    pub fn parse(label: &str) -> Option<BudgetRegime> {
        BudgetRegime::ALL
            .iter()
            .copied()
            .find(|b| b.label() == label)
    }
}

impl fmt::Display for BudgetRegime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Everything needed to reproduce one chaos run bit-for-bit: the system
/// shape, the workload, the Byzantine adversary, the transport fault
/// schedule and the seed. Schedules serialize to `chaos-repro.json` (see
/// [`Repro`](crate::Repro)) and are the unit the shrinker minimizes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosSchedule {
    /// Which algorithm/regime runs.
    pub regime: Regime,
    /// System size `N`.
    pub n: usize,
    /// Fault bound `t`.
    pub t: usize,
    /// Original-id layout of the correct processes.
    pub id_dist: IdDistribution,
    /// Seed for id generation.
    pub id_seed: u64,
    /// Byzantine strategy of the faulty actors.
    pub adversary: AdversarySpec,
    /// How many actors run the adversary.
    pub byzantine: usize,
    /// Run seed: topology labels, Byzantine placement, randomized
    /// strategies. Placement is `fault_placement(n, byzantine, run_seed)`.
    pub run_seed: u64,
    /// Transport fault schedule, as canonical events.
    pub events: Vec<FaultEvent>,
    /// Optional transport payload cap in bits.
    pub payload_cap: Option<u64>,
}

impl ChaosSchedule {
    /// The system configuration (`N`, `t`) this schedule runs on.
    ///
    /// # Errors
    ///
    /// Returns [`RenamingError::Config`] for an invalid `(n, t)` pair.
    pub(crate) fn cfg(&self) -> Result<SystemConfig, RenamingError> {
        Ok(SystemConfig::new(self.n, self.t)?)
    }

    /// The transport fault plan assembled from [`ChaosSchedule::events`].
    pub(crate) fn fault_plan(&self) -> FaultPlan {
        FaultPlan::from_events(self.events.iter().copied())
    }

    /// The Byzantine placement mask this schedule's run will use
    /// (`true` = faulty index).
    pub(crate) fn placement(&self) -> Vec<bool> {
        fault_placement(self.n, self.byzantine, self.run_seed)
    }

    /// The effective fault load: Byzantine actors plus *correct* processes
    /// whose outgoing links the fault plan disturbs. Fault events aimed at
    /// Byzantine indices do not count twice.
    pub(crate) fn effective_faults(&self) -> usize {
        let mask = self.placement();
        let disturbed_correct = self
            .fault_plan()
            .disturbed_senders()
            .into_iter()
            .filter(|&s| s < self.n && !mask[s])
            .count();
        self.byzantine + disturbed_correct
    }

    /// Which budget regime the schedule actually lands in (the generator
    /// aims for one, but shrinking can move a schedule downward).
    pub(crate) fn budget_regime(&self) -> BudgetRegime {
        let effective = self.effective_faults();
        if effective < self.t {
            BudgetRegime::InBudget
        } else if effective == self.t {
            BudgetRegime::AtBudget
        } else {
            BudgetRegime::OverBudget
        }
    }

    /// The schedule as a ready-to-run [`RenamingRun`] — the one place a
    /// schedule becomes a run (ids, adversary, seed, fault plan, payload
    /// cap, fault overrun). Callers that want more than
    /// [`ChaosSchedule::run`] / [`ChaosSchedule::run_observed`] attach it
    /// through the builder (`.trace(..)`, `.spans(..)`, `.metrics(..)`).
    ///
    /// # Errors
    ///
    /// Returns [`RenamingError`] for setups the runner cannot start: an
    /// invalid `(n, t)` pair, or more Byzantine actors than processes — a
    /// generator or repro-file bug, never a legitimate chaos outcome.
    pub fn to_run(&self) -> Result<RenamingRun, RenamingError> {
        let cfg = self.cfg()?;
        if self.byzantine > self.n {
            return Err(RenamingError::TooManyFaultyActors {
                got: self.byzantine,
                bound: self.n,
            });
        }
        // `n − byzantine` correct processes; the check above keeps it from
        // wrapping.
        let ids = self.id_dist.generate(self.n - self.byzantine, self.id_seed);
        let run = RenamingRun::builder(cfg, self.regime)
            .correct_ids(ids)
            .adversary(self.adversary, self.byzantine)
            .seed(self.run_seed)
            .faults(self.fault_plan())
            .allow_fault_overrun();
        Ok(match self.payload_cap {
            Some(cap) => run.payload_cap(cap),
            None => run,
        })
    }

    /// Executes the schedule and diagnoses the result. Over-budget
    /// schedules degrade into reports rather than erroring.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ChaosSchedule::to_run`], plus a bad id set.
    pub fn run(&self) -> Result<DiagnosedRun, RenamingError> {
        self.to_run()?.run_diagnosed()
    }

    /// [`ChaosSchedule::run`] with the protocol event recorder attached:
    /// the diagnosis comes back with [`DiagnosedRun::events`] populated (the
    /// event stream is deterministic — bit-identical across replays). This
    /// is the entry point `chaos explain` replays repro files through.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ChaosSchedule::run`].
    pub fn run_observed(&self) -> Result<DiagnosedRun, RenamingError> {
        self.to_run()?.record_events().run_diagnosed()
    }

    /// A one-line human summary for logs and failure reports.
    pub fn describe(&self) -> String {
        format!(
            "{:?} n={} t={} ids={}#{} adversary={}×{} seed={} events={} cap={:?} [{}]",
            self.regime,
            self.n,
            self.t,
            self.id_dist.label(),
            self.id_seed,
            self.adversary.label(),
            self.byzantine,
            self.run_seed,
            self.events.len(),
            self.payload_cap,
            self.budget_regime()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opr_types::Round;

    fn base() -> ChaosSchedule {
        ChaosSchedule {
            regime: Regime::LogTime,
            n: 7,
            t: 2,
            id_dist: IdDistribution::EvenSpaced,
            id_seed: 4,
            adversary: AdversarySpec::EchoSplit,
            byzantine: 1,
            run_seed: 11,
            events: Vec::new(),
            payload_cap: None,
        }
    }

    #[test]
    fn budget_regime_counts_effective_faults() {
        let mut s = base();
        assert_eq!(s.effective_faults(), 1);
        assert_eq!(s.budget_regime(), BudgetRegime::InBudget);

        // Disturb one correct process: at budget.
        let mask = s.placement();
        let victim = mask.iter().position(|&f| !f).unwrap();
        s.events = FaultPlan::default()
            .crash_from(victim, Round::FIRST)
            .events();
        assert_eq!(s.effective_faults(), 2);
        assert_eq!(s.budget_regime(), BudgetRegime::AtBudget);

        // Disturbing a *Byzantine* index adds nothing.
        let byz = mask.iter().position(|&f| f).unwrap();
        let plan = s.fault_plan().crash_from(byz, Round::FIRST);
        s.events = plan.events();
        assert_eq!(s.effective_faults(), 2);
    }

    #[test]
    fn an_in_budget_schedule_runs_clean() {
        let run = base().run().unwrap();
        assert!(run.degraded.is_clean(), "{:?}", run.degraded.violations);
    }

    #[test]
    fn more_byzantine_than_processes_is_a_setup_error() {
        let s = ChaosSchedule {
            byzantine: 9,
            ..base()
        };
        assert!(matches!(
            s.run(),
            Err(RenamingError::TooManyFaultyActors { got: 9, bound: 7 })
        ));
    }

    #[test]
    fn observed_runs_match_unobserved_runs_and_each_other() {
        let s = base();
        let plain = s.run().unwrap();
        let observed = s.run_observed().unwrap();
        // Attaching the recorder perturbs nothing deterministic…
        assert_eq!(plain.full_outcome, observed.full_outcome);
        assert_eq!(plain.rounds, observed.rounds);
        assert_eq!(plain.metrics, observed.metrics);
        // …and the event stream itself replays identically.
        let events = observed.events.expect("recorder attached");
        assert!(!events.is_empty());
        assert_eq!(Some(events), s.run_observed().unwrap().events);
    }

    #[test]
    fn budget_labels_parse_back() {
        for b in BudgetRegime::ALL {
            assert_eq!(BudgetRegime::parse(b.label()), Some(b));
        }
        assert_eq!(BudgetRegime::parse("sideways"), None);
    }
}
