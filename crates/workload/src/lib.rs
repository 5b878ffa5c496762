#![warn(missing_docs)]
//! Experiment harness: workloads, sweeps and table generation.
//!
//! This crate turns the algorithm crates into *experiments*. The paper is a
//! theory paper — its "evaluation" is a set of theorems — so each experiment
//! regenerates one theorem/claim as a measured table or figure series (the
//! experiment ids T1–T5 / F1–F4 are defined in DESIGN.md §3 and reported in
//! EXPERIMENTS.md):
//!
//! * [`experiments::t1`] — step complexity of every algorithm vs `t`.
//! * [`experiments::t2`] — achieved namespace vs the paper's bounds.
//! * [`experiments::t3`] — message and bit complexity vs `N`.
//! * [`experiments::t4`] — lemma-by-lemma invariant validation under the
//!   full adversary suite.
//! * [`experiments::t5`] — behaviour at and beyond the `N > 3t` resilience
//!   boundary.
//! * [`experiments::f1`] — per-round AA convergence (measured `Δ_r` vs
//!   `σ_t` prediction).
//! * [`experiments::f2`] — namespace growth in `t` at fixed `N`.
//! * [`experiments::f3`] — rounds crossover: Algorithm 1 vs the consensus
//!   baseline.
//! * [`experiments::f4`] — 2-step discrepancy `Δ` vs the `2t²` bound.
//!
//! Supporting pieces: [`IdDistribution`] generates original-id workloads,
//! [`Algorithm`] gives every implementation (paper + baselines) a uniform
//! run interface producing [`RunStats`], [`RenamingRun`] is the builder
//! used in examples, [`ServiceWorkload`] generates the open-loop
//! acquire/release schedules the service layer (`opr-service`) consumes,
//! and [`ExperimentTable`] renders markdown/CSV.

pub mod experiments;
pub(crate) mod id_dist;
pub(crate) mod run;
pub(crate) mod service_load;
pub(crate) mod table;

pub use id_dist::IdDistribution;
pub use run::{run_grid, Algorithm, DiagnosedRun, GridPoint, RenamingRun, RunOutput, RunStats};
pub use service_load::{Arrival, ClientId, ServiceWorkload};
pub use table::ExperimentTable;
