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
//! 1. [`generate_schedule`] draws a random [`ChaosSchedule`] from a seed: a system
//!    size, an id layout, a Byzantine adversary placement and a transport
//!    [`FaultPlan`](opr_transport::FaultPlan), aimed at one of three fault
//!    *budget regimes* (strictly under `t`, exactly `t`, deliberately over).
//! 2. [`ChaosSchedule::run`] executes the schedule via the diagnosing runner
//!    ([`opr_workload::RenamingRun::run_diagnosed`]) — over-budget runs
//!    *degrade* into structured reports instead of panicking.
//! 3. [`standard_suite`] holds the pluggable [`Oracle`]s: uniqueness, order
//!    preservation over healthy correct processes, the per-algorithm
//!    namespace bound, the exact step count, and correct-process hygiene.
//! 4. [`engine`] loops 1–3 into a campaign, converts panics into failures
//!    with [`opr_exec::contain`], and applies the per-regime pass rule: in- and
//!    at-budget runs must be clean; over-budget runs pass iff they are
//!    *degraded but diagnosed* (harness-level breaches — a correct process
//!    sending malformed traffic, a panic — fail in every regime).
//! 5. Shrinking ([`ShrinkResult`]) minimizes a failing schedule: delta debugging
//!    over the fault events, then Byzantine-count reduction, then onset
//!    weakening.
//! 6. [`Repro`] round-trips the result through a `chaos-repro.json` file
//!    (hand-rolled [`opr_obs::Json`], no external dependencies) so the failure can
//!    be replayed deterministically from the file alone.
//!    [`Failure::shrink_to_repro`] runs 5 and 6 on a campaign failure;
//!    [`engine::digests_overlap`] is the "same failure" rule both the
//!    shrink predicate and a replay judge by.
//! 7. [`explain_repro`] replays a repro with the protocol event recorder attached
//!    ([`opr_obs`]) and renders every correct process's decision waterfall
//!    — which thresholds crossed, which votes were rejected and why — plus
//!    how close the run came to breaking each invariant
//!    ([`Oracle::margin`]).

pub mod engine;
mod explain;
mod generator;
mod oracle;
mod repro;
mod schedule;
mod shrink;

pub use engine::{
    BackendChoice, CampaignConfig, CampaignMetrics, CampaignReport, ExecutedSchedule, Failure,
    RunVerdict,
};
pub use explain::{explain_repro, render_waterfall, Explained};
pub use generator::generate_schedule;
pub use oracle::{standard_suite, Oracle, OracleInput};
pub use repro::{Repro, ReproError};
pub use schedule::{BudgetRegime, ChaosSchedule};
pub use shrink::ShrinkResult;
