#![warn(missing_docs)]
//! Chaos campaign engine: randomized fault-schedule exploration against the
//! paper's invariants.
//!
//! The theorems of the source paper are universally quantified — *every*
//! execution with at most `t` Byzantine processes renames uniquely, in
//! order, within the namespace bound, in the exact step count. A proof
//! covers all of them; a test suite covers a handful. This crate walks the
//! middle ground: it samples the execution space at scale, judges every
//! sampled run against the paper's own invariants, and when a run breaks
//! one it shrinks the schedule to a minimal reproducer anyone can replay.
//!
//! # Pipeline
//!
//! 1. [`generator`] draws a random [`ChaosSchedule`] from a seed: a system
//!    size, an id layout, a Byzantine adversary placement and a transport
//!    [`FaultPlan`](opr_transport::FaultPlan), aimed at one of three fault
//!    *budget regimes* (strictly under `t`, exactly `t`, deliberately over).
//! 2. [`schedule`] executes the schedule on the simulator and/or the
//!    pooled backend via the diagnosing runner
//!    ([`opr_workload::RenamingRun::run_diagnosed`]) — over-budget runs
//!    *degrade* into structured reports instead of panicking.
//! 3. [`oracle`] holds the pluggable invariant suite: uniqueness, order
//!    preservation over healthy correct processes, the per-algorithm
//!    namespace bound, the exact step count, and bit-equality across
//!    backends.
//! 4. [`engine`] loops 1–3 into a campaign, converts panics into failures
//!    with `catch_unwind`, and applies the per-regime pass rule: in- and
//!    at-budget runs must be clean; over-budget runs pass iff they are
//!    *degraded but diagnosed* (harness-level breaches — a correct process
//!    sending malformed traffic, backends diverging, a panic — fail in
//!    every regime).
//! 5. [`shrink()`] minimizes a failing schedule: delta debugging over the
//!    fault events, then Byzantine-count reduction, then onset weakening.
//! 6. [`repro`] round-trips the result through a `chaos-repro.json` file
//!    (hand-rolled [`opr_obs::json`], no external dependencies) so the failure can
//!    be replayed deterministically from the file alone.
//! 7. [`explain`] replays a repro with the protocol event recorder attached
//!    ([`opr_obs`]) and renders every correct process's decision waterfall
//!    — which thresholds crossed, which votes were rejected and why.
//! 8. [`search`] closes the loop into an optimizer: genome operators mutate
//!    and recombine schedules inside a budget regime, [`fitness`] scores each
//!    observed run (rounds, namespace pressure, AA spread, admission
//!    drops, near-violation margin from [`Oracle::margin`]), and a seeded
//!    beam search climbs toward the most adversarial attacks — emitting
//!    the worst as replayable repro files and regression seeds.

pub mod engine;
pub mod explain;
pub mod fitness;
pub mod generator;
pub(crate) mod genome;
pub mod oracle;
pub mod repro;
pub mod schedule;
pub mod search;
pub mod shrink;

pub use engine::{
    BackendChoice, CampaignConfig, CampaignMetrics, CampaignReport, ExecutedRun, ExecutedSchedule,
    Failure, RunVerdict,
};
pub use explain::{explain_repro, render_waterfall, Explained};
pub use fitness::{evaluate, Fitness, FitnessKind, FitnessRecord};
pub use generator::generate_schedule;
pub use oracle::{standard_suite, Oracle, OracleInput};
pub use repro::Repro;
pub use schedule::{BudgetRegime, ChaosSchedule};
pub use search::{
    random_search_on, render_search_json, repro_for, run_search_on, GenerationStat, ScoredSchedule,
    SearchConfig, SearchOutcome, SearchReport,
};
pub use shrink::{shrink, ShrinkResult};
