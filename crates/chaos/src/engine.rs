//! The campaign loop: generate → execute → judge, with panic containment
//! and per-regime pass rules.
//!
//! A campaign is deterministic in its seed: run `i` executes
//! `generate_schedule(per_run_seed(seed, i), budget_i)` where `budget_i` is
//! the configured regime (or cycles in/at/over when mixed). Execution fans
//! out over a [`RunPool`] when [`CampaignConfig::jobs`]
//! exceeds 1 — schedules are generated in index order, executed on workers,
//! reassembled in submission order and judged serially, so the report is a
//! pure function of the configuration at any worker count (the contract
//! `tests/exec_equivalence.rs` pins bit-for-bit). The pass rule is the
//! crate's core contract:
//!
//! * **in-budget / at-budget** — the paper's theorems apply; any oracle
//!   violation is a failure.
//! * **over-budget** — the theorems are void; a run passes iff it comes
//!   back *degraded but diagnosed*. Harness-level breaches (a correct
//!   process sending malformed traffic) and panics fail in every regime.

use crate::generator::generate_schedule;
use crate::oracle::{violation_kind, Oracle, OracleInput};
use crate::repro::Repro;
use crate::schedule::{BudgetRegime, ChaosSchedule};
use crate::shrink::{shrink, ShrinkResult};
use opr_exec::RunPool;
use opr_sim::RunMetrics;
use opr_types::math::mix64;
use opr_types::Violation;
use opr_workload::DiagnosedRun;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// The schedule a campaign runs on. It has one variant and selects nothing:
/// it is kept, with [`CampaignConfig::backend`], for `benchmark/` until
/// that package depends on the `opr` facade alone.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BackendChoice {
    /// The network stepped on the executing thread.
    Sim,
}

/// Parameters of one campaign.
#[derive(Clone, Copy, Debug)]
pub struct CampaignConfig {
    /// Campaign seed; everything else derives from it.
    pub seed: u64,
    /// How many schedules to run.
    pub runs: usize,
    /// The fault budget regime, or `None` to cycle through all three.
    pub budget: Option<BudgetRegime>,
    /// Selects nothing; see [`BackendChoice`].
    pub backend: BackendChoice,
    /// Worker threads executing schedules (`≤ 1` = serial). Judging is
    /// always serial, so the report is a pure function of the other fields
    /// regardless of this value.
    pub jobs: usize,
}

/// How one executed schedule was judged.
#[derive(Clone, Debug, PartialEq)]
pub enum RunVerdict {
    /// Every oracle held.
    Clean,
    /// Oracles reported breaches that are legitimate outside the envelope
    /// (over-budget only): degraded but diagnosed.
    Degraded {
        /// Violation kinds, joined with `+`.
        digest: String,
    },
    /// Oracle violations that the run's budget regime does not excuse.
    Violated {
        /// Every violation the oracle suite reported.
        violations: Vec<Violation>,
    },
    /// The run panicked — a failure in every regime.
    Panicked {
        /// The panic payload, rendered.
        message: String,
    },
    /// The runner refused the setup (generator or repro-file bug).
    SetupError {
        /// The runner's error, rendered.
        message: String,
    },
}

impl RunVerdict {
    /// The violation kinds (or failure class), joined with `+` — the stable
    /// fingerprint shrinking preserves.
    pub fn digest(&self) -> String {
        match self {
            RunVerdict::Clean => "clean".to_string(),
            RunVerdict::Degraded { digest } => digest.clone(),
            RunVerdict::Violated { violations } => {
                let mut kinds: Vec<&'static str> = violations.iter().map(violation_kind).collect();
                kinds.dedup();
                kinds.join("+")
            }
            RunVerdict::Panicked { .. } => "panic".to_string(),
            RunVerdict::SetupError { .. } => "setup-error".to_string(),
        }
    }

    /// Whether this verdict fails a campaign run in `budget`.
    pub fn is_failure(&self, budget: BudgetRegime) -> bool {
        match self {
            RunVerdict::Clean | RunVerdict::Degraded { .. } => false,
            RunVerdict::Panicked { .. } | RunVerdict::SetupError { .. } => true,
            RunVerdict::Violated { violations } => {
                budget != BudgetRegime::OverBudget
                    || violations.iter().any(|v| !tolerable_over_budget(v))
            }
        }
    }
}

/// Two verdict digests name the same failure when they share at least one
/// violation kind — the rule campaign shrinking keeps a candidate by and a
/// replay reproduces a recorded failure by.
pub fn digests_overlap(a: &str, b: &str) -> bool {
    a.split('+').any(|kind| b.split('+').any(|k| k == kind))
}

/// Whether `v` is a legitimate consequence of exceeding the fault budget
/// (the paper's theorems no longer apply) rather than a harness bug.
fn tolerable_over_budget(v: &Violation) -> bool {
    !matches!(v, Violation::CorrectMalformed(_))
}

/// One failing run, with everything needed to shrink and replay it.
#[derive(Clone, Debug, PartialEq)]
pub struct Failure {
    /// Index of the run within the campaign.
    pub index: usize,
    /// The per-run generator seed.
    pub seed: u64,
    /// The budget regime the run was judged under.
    pub budget: BudgetRegime,
    /// The failing schedule.
    pub schedule: ChaosSchedule,
    /// The verdict.
    pub verdict: RunVerdict,
}

impl Failure {
    /// Shrinks the failing schedule — a candidate survives while it still
    /// fails under this run's budget with a digest overlapping the
    /// original's — and packages the result as a [`Repro`] of campaign
    /// `campaign_seed` carrying the shrunk run's metrics (none when the
    /// shrunk schedule panics or is refused).
    pub fn shrink_to_repro(
        &self,
        campaign_seed: u64,
        oracles: &[Box<dyn Oracle>],
    ) -> (Repro, ShrinkResult) {
        let digest = self.verdict.digest();
        let result = shrink(&self.schedule, |candidate| {
            let verdict = judge_schedule(candidate, oracles);
            verdict.is_failure(self.budget) && digests_overlap(&verdict.digest(), &digest)
        });
        let metrics = execute_schedule(&result.schedule)
            .ok()
            .map(|run| run.metrics);
        let repro = Repro {
            campaign_seed,
            run_index: self.index,
            budget: self.budget,
            digest,
            schedule: result.schedule.clone(),
            metrics,
        };
        (repro, result)
    }
}

/// Network metrics summed over every run a campaign actually executed
/// (panicking and setup-refused slots contribute nothing). Like the
/// clean/degraded counts, these are a pure function of the configuration:
/// they come from each run's deterministic counters, so any worker count
/// agrees.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CampaignMetrics {
    /// Runs whose metrics are included.
    pub runs_measured: usize,
    /// Total rounds executed across measured runs.
    pub rounds_executed: u64,
    /// Total messages sent by correct processes.
    pub messages_correct: u64,
    /// Total messages sent by faulty processes.
    pub messages_faulty: u64,
    /// Total bits sent by correct processes.
    pub bits_correct: u64,
    /// Largest single correct message seen in any measured run, in bits.
    pub max_message_bits: u64,
}

impl CampaignMetrics {
    /// Folds one executed run's counters into the campaign totals.
    pub(crate) fn absorb(&mut self, metrics: &RunMetrics) {
        self.runs_measured += 1;
        self.rounds_executed += u64::from(metrics.rounds_executed());
        self.messages_correct += metrics.messages_correct();
        self.messages_faulty += metrics.messages_faulty();
        self.bits_correct += metrics.bits_correct();
        self.max_message_bits = self.max_message_bits.max(metrics.max_message_bits());
    }
}

impl fmt::Display for CampaignMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} runs measured: {} rounds, {}+{} msgs correct+faulty, {} bits correct, max msg {} bits",
            self.runs_measured,
            self.rounds_executed,
            self.messages_correct,
            self.messages_faulty,
            self.bits_correct,
            self.max_message_bits
        )
    }
}

/// Aggregate result of a campaign.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Total schedules executed.
    pub total: usize,
    /// Runs every oracle passed.
    pub clean: usize,
    /// Over-budget runs that degraded with a structured diagnosis.
    pub degraded: usize,
    /// Failing runs (empty ⇔ the campaign passed).
    pub failures: Vec<Failure>,
    /// Network metrics summed over every executed run.
    pub metrics: CampaignMetrics,
    /// Wall-clock time of the whole campaign.
    pub elapsed: Duration,
}

impl CampaignReport {
    /// Whether the campaign passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Campaign throughput (schedules per second).
    pub fn runs_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.total as f64 / secs
        } else {
            0.0
        }
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} runs: {} clean, {} degraded, {} failed ({:.0} runs/s); {}",
            self.total,
            self.clean,
            self.degraded,
            self.failures.len(),
            self.runs_per_sec(),
            self.metrics
        )
    }
}

/// The seed run `index` of a campaign generates its schedule from
/// (splitmix64 of the pair, so neighbouring indices decorrelate).
pub fn per_run_seed(campaign_seed: u64, index: usize) -> u64 {
    mix64(
        campaign_seed
            .wrapping_add((index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(0x9e37_79b9_7f4a_7c15),
    )
}

/// One campaign slot after execution, not yet judged: the schedule's
/// provenance and either its diagnosed run or the verdict that pre-empted
/// it (panic or setup refusal). Splitting execution from judging lets
/// campaigns execute on pool workers (pure data in, pure data out) while
/// the oracle suite — whose trait objects are not `Send` — judges serially
/// on the collector.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecutedSchedule {
    /// Index of the run within the campaign.
    pub index: usize,
    /// The per-run generator seed.
    pub seed: u64,
    /// The budget regime the run will be judged under.
    pub budget: BudgetRegime,
    /// The generated schedule.
    pub schedule: ChaosSchedule,
    /// The execution result.
    pub executed: Result<DiagnosedRun, RunVerdict>,
}

/// Executes `schedule` with panics contained.
///
/// # Errors
///
/// `Err` carries the verdict that pre-empted execution:
/// [`RunVerdict::Panicked`] or [`RunVerdict::SetupError`].
pub(crate) fn execute_schedule(schedule: &ChaosSchedule) -> Result<DiagnosedRun, RunVerdict> {
    match catch_unwind(AssertUnwindSafe(|| schedule.run())) {
        Ok(Ok(run)) => Ok(run),
        Ok(Err(e)) => Err(RunVerdict::SetupError {
            message: e.to_string(),
        }),
        Err(payload) => Err(RunVerdict::Panicked {
            message: panic_message(payload.as_ref()),
        }),
    }
}

/// Runs the oracle suite over an executed schedule.
pub(crate) fn judge_executed(
    schedule: &ChaosSchedule,
    run: &DiagnosedRun,
    oracles: &[Box<dyn Oracle>],
) -> RunVerdict {
    let input = OracleInput { schedule, run };
    let violations: Vec<Violation> = oracles
        .iter()
        .flat_map(|oracle| oracle.check(&input))
        .collect();
    if violations.is_empty() {
        RunVerdict::Clean
    } else {
        RunVerdict::Violated { violations }
    }
}

/// Executes `schedule`, contains panics, and runs the oracle suite over the
/// result.
pub fn judge_schedule(schedule: &ChaosSchedule, oracles: &[Box<dyn Oracle>]) -> RunVerdict {
    match execute_schedule(schedule) {
        Ok(run) => judge_executed(schedule, &run, oracles),
        Err(verdict) => verdict,
    }
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Generates and executes every schedule of a campaign, fanning execution
/// out over `pool` and reassembling in index order. Schedules are generated
/// serially in index order, so the returned sequence — provenance, schedule
/// and diagnosed runs alike — is identical at any worker count.
pub(crate) fn execute_campaign_on(
    pool: &RunPool,
    config: &CampaignConfig,
) -> Vec<ExecutedSchedule> {
    let prepared: Vec<(usize, u64, BudgetRegime, ChaosSchedule)> = (0..config.runs)
        .map(|index| {
            let budget = config
                .budget
                .unwrap_or(BudgetRegime::ALL[index % BudgetRegime::ALL.len()]);
            let seed = per_run_seed(config.seed, index);
            (index, seed, budget, generate_schedule(seed, budget))
        })
        .collect();
    let tasks: Vec<_> = prepared
        .iter()
        .map(|(_, _, _, schedule)| {
            let schedule = schedule.clone();
            move || execute_schedule(&schedule)
        })
        .collect();
    // execute_schedule contains panics itself; a pool-level panic would be
    // a harness bug, recorded as such rather than unwound.
    let results = pool.run_batch(tasks).into_iter().map(|result| {
        result.unwrap_or_else(|panic| {
            Err(RunVerdict::Panicked {
                message: panic.message,
            })
        })
    });
    prepared
        .into_iter()
        .zip(results)
        .map(
            |((index, seed, budget, schedule), executed)| ExecutedSchedule {
                index,
                seed,
                budget,
                schedule,
                executed,
            },
        )
        .collect()
}

/// Executes a campaign on a pool sized by [`CampaignConfig::jobs`].
pub fn execute_campaign(config: &CampaignConfig) -> Vec<ExecutedSchedule> {
    execute_campaign_on(&RunPool::new(config.jobs), config)
}

/// Runs a full campaign and applies the per-regime pass rule to every
/// verdict. The oracle digest of an over-budget degraded run is preserved
/// in the `degraded` count; failures carry their whole schedule. Execution
/// parallelism ([`CampaignConfig::jobs`]) cannot change anything but
/// `elapsed`: runs are judged in index order from reassembled results.
pub fn run_campaign(config: &CampaignConfig, oracles: &[Box<dyn Oracle>]) -> CampaignReport {
    run_campaign_on(&RunPool::new(config.jobs), config, oracles)
}

/// [`run_campaign`] on a caller-owned pool (reused across campaigns).
pub(crate) fn run_campaign_on(
    pool: &RunPool,
    config: &CampaignConfig,
    oracles: &[Box<dyn Oracle>],
) -> CampaignReport {
    let start = Instant::now();
    let mut report = CampaignReport {
        total: config.runs,
        clean: 0,
        degraded: 0,
        failures: Vec::new(),
        metrics: CampaignMetrics::default(),
        elapsed: Duration::ZERO,
    };
    for slot in execute_campaign_on(pool, config) {
        let ExecutedSchedule {
            index,
            seed,
            budget,
            schedule,
            executed,
        } = slot;
        let mut verdict = match executed {
            Ok(run) => {
                report.metrics.absorb(&run.metrics);
                judge_executed(&schedule, &run, oracles)
            }
            Err(verdict) => verdict,
        };
        // Over-budget oracle violations that the regime excuses become the
        // structured "degraded but diagnosed" outcome.
        if let RunVerdict::Violated { .. } = &verdict {
            if !verdict.is_failure(budget) {
                verdict = RunVerdict::Degraded {
                    digest: verdict.digest(),
                };
            }
        }
        match &verdict {
            RunVerdict::Clean => report.clean += 1,
            RunVerdict::Degraded { .. } => report.degraded += 1,
            _ => report.failures.push(Failure {
                index,
                seed,
                budget,
                schedule,
                verdict,
            }),
        }
    }
    report.elapsed = start.elapsed();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::standard_suite;

    #[test]
    fn in_budget_campaign_is_all_clean() {
        let report = run_campaign(
            &CampaignConfig {
                seed: 42,
                runs: 30,
                budget: Some(BudgetRegime::InBudget),
                backend: BackendChoice::Sim,
                jobs: 1,
            },
            &standard_suite(),
        );
        assert!(report.passed(), "{:#?}", report.failures);
        assert_eq!(report.clean, 30);
        assert_eq!(report.degraded, 0);
        assert_eq!(report.metrics.runs_measured, 30);
        assert!(report.metrics.rounds_executed > 0);
        assert!(report.metrics.messages_correct > 0);
        assert!(report.metrics.max_message_bits > 0);
    }

    #[test]
    fn over_budget_campaign_degrades_without_failing() {
        let report = run_campaign(
            &CampaignConfig {
                seed: 43,
                runs: 30,
                budget: Some(BudgetRegime::OverBudget),
                backend: BackendChoice::Sim,
                jobs: 1,
            },
            &standard_suite(),
        );
        assert!(report.passed(), "{:#?}", report.failures);
        // Over-budget runs may degrade or (if the protocol happens to cope)
        // stay clean; both tally, nothing fails.
        assert_eq!(report.clean + report.degraded, 30);
        assert!(
            report.degraded > 0,
            "expected at least one degraded diagnosis in 30 over-budget runs"
        );
    }

    #[test]
    fn mixed_campaign_cycles_regimes_deterministically() {
        let cfg = CampaignConfig {
            seed: 7,
            runs: 12,
            budget: None,
            backend: BackendChoice::Sim,
            jobs: 1,
        };
        let a = run_campaign(&cfg, &standard_suite());
        let b = run_campaign(&cfg, &standard_suite());
        assert!(a.passed(), "{:#?}", a.failures);
        assert_eq!(a.clean, b.clean);
        assert_eq!(a.degraded, b.degraded);
    }

    #[test]
    fn execute_campaign_is_identical_at_any_worker_count() {
        let config = |jobs| CampaignConfig {
            seed: 0x5EED,
            runs: 18,
            budget: None,
            backend: BackendChoice::Sim,
            jobs,
        };
        let serial = execute_campaign(&config(1));
        for jobs in [2, 4] {
            assert_eq!(serial, execute_campaign(&config(jobs)), "jobs={jobs}");
        }
    }

    #[test]
    fn campaign_reports_agree_across_worker_counts() {
        let config = |jobs| CampaignConfig {
            seed: 21,
            runs: 15,
            budget: None,
            backend: BackendChoice::Sim,
            jobs,
        };
        let a = run_campaign(&config(1), &standard_suite());
        let b = run_campaign(&config(4), &standard_suite());
        assert_eq!(a.clean, b.clean);
        assert_eq!(a.degraded, b.degraded);
        assert_eq!(a.failures, b.failures);
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn per_run_seeds_decorrelate() {
        let seeds: Vec<u64> = (0..100).map(|i| per_run_seed(5, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
    }

    #[test]
    fn verdict_failure_rules_match_the_contract() {
        let harness_bug = RunVerdict::Violated {
            violations: vec![Violation::CorrectMalformed(opr_types::MalformedSend {
                sender: opr_types::ProcessIndex::new(0),
                round: opr_types::Round::FIRST,
                kind: opr_types::MalformedKind::DuplicateLink { label: 1 },
            })],
        };
        let degradation = RunVerdict::Violated {
            violations: vec![Violation::MissedTermination {
                budget: 13,
                undecided: vec![],
            }],
        };
        for budget in BudgetRegime::ALL {
            assert!(harness_bug.is_failure(budget), "{budget}");
            assert!(RunVerdict::Panicked {
                message: "x".into()
            }
            .is_failure(budget));
            assert!(!RunVerdict::Clean.is_failure(budget));
        }
        assert!(degradation.is_failure(BudgetRegime::InBudget));
        assert!(degradation.is_failure(BudgetRegime::AtBudget));
        assert!(!degradation.is_failure(BudgetRegime::OverBudget));
    }
}
