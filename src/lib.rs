#![warn(missing_docs)]
//! # opr — Order-Preserving Renaming with Byzantine Faults
//!
//! Facade crate for the workspace reproducing Denysyuk & Rodrigues,
//! *Order-Preserving Renaming in Synchronous Systems with Byzantine Faults*
//! (ICDCS 2013). Re-exports the public API of every member crate:
//!
//! * [`types`] — ids, configuration, ranks, outcome checkers.
//! * [`sim`] — the synchronous full-mesh network simulator.
//! * [`aa`] — approximate-agreement building blocks (the vote multiset and
//!   the DLPSW `select_t` reduction).
//! * [`rbcast`] — Echo/Ready flooding substrate (the id-selection core).
//! * [`transport`] — the lock-step execution substrate: one schedule, the
//!   network stepped on the calling thread, the [`ExecOptions`] every layer
//!   above embeds, and transport-level fault injection.
//! * [`core`] — the paper's algorithms: Algorithm 1 (log-time and
//!   constant-time schedules) and Algorithm 4 (2-step).
//! * [`adversary`] — the Byzantine strategy library.
//! * [`baselines`] — comparator algorithms from the related work.
//! * [`workload`] — experiment harness, sweeps, table rendering.
//! * [`chaos`] — randomized fault-schedule campaigns: seeded schedule
//!   generation, paper-invariant oracles, counterexample shrinking and
//!   replayable repro files.
//! * [`exec`] — run-level parallel execution: a std-only [`RunPool`]
//!   (fixed workers + `mpsc` queue) that reassembles batch results in
//!   submission order so multi-run drivers stay observably serial.
//! * [`obs`] — deterministic protocol telemetry: a decision-point event
//!   recorder threaded through the protocol layers, JSONL and Perfetto
//!   (Chrome trace-event) exporters, and a wall-clock span layer kept
//!   strictly separate from the deterministic stream.
//! * [`metrics`] — always-on aggregates: a sharded [`MetricsRegistry`] of
//!   counters/gauges/log-bucketed histograms, deterministic
//!   `MetricsSnapshot` folds from run artefacts, Prometheus text exposition,
//!   an ANSI dashboard, and a flight-recorder ring for post-mortem dumps.
//! * [`service`] — renaming-as-a-service: a multi-tenant epoch engine with
//!   a bounded admission queue, sharded namespaces, per-epoch protocol
//!   instances dispatched over the [`RunPool`], name recycling with a
//!   cross-epoch uniqueness ledger, and its own oracle/repro layer.
//!
//! [`RunPool`]: exec::RunPool
//! [`ExecOptions`]: transport::ExecOptions
//! [`MetricsRegistry`]: metrics::MetricsRegistry
//!
//! # Quickstart
//!
//! ```
//! use opr::prelude::*;
//!
//! // 10 processes, up to 3 Byzantine; N > 3t, so Algorithm 1 applies.
//! let cfg = SystemConfig::new(10, 3)?;
//! let ids: Vec<OriginalId> =
//!     [14u64, 3, 77, 21, 58, 9, 42].map(OriginalId::new).into();
//!
//! let out = RenamingRun::builder(cfg, Regime::LogTime)
//!     .correct_ids(ids)
//!     .adversary(AdversarySpec::EchoSplit, 3)
//!     .seed(42)
//!     .run()?;
//!
//! // All four renaming properties hold within namespace N + t − 1 = 12.
//! assert!(out.outcome.verify(cfg.namespace_bound(Regime::LogTime)).is_empty());
//! assert_eq!(out.stats.rounds, cfg.total_steps(Regime::LogTime));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use opr_aa as aa;
pub use opr_adversary as adversary;
pub use opr_baselines as baselines;
pub use opr_chaos as chaos;
pub use opr_core as core;
pub use opr_exec as exec;
pub use opr_metrics as metrics;
pub use opr_obs as obs;
pub use opr_rbcast as rbcast;
pub use opr_service as service;
pub use opr_sim as sim;
pub use opr_transport as transport;
pub use opr_types as types;
pub use opr_workload as workload;

/// Commonly-used items in one import.
pub mod prelude {
    pub use opr_adversary::AdversarySpec;
    pub use opr_exec::RunPool;
    pub use opr_metrics::{MetricsRegistry, MetricsSnapshot};
    pub use opr_obs::{ProtocolEvent, RunLog};
    pub use opr_service::{ServiceConfig, ServiceReport, ServiceSpec};
    pub use opr_transport::FaultPlan;
    pub use opr_types::{
        ConfigError, LinkId, NewName, OriginalId, ProcessIndex, Rank, Regime, RenamingError,
        RenamingOutcome, Round, SystemConfig,
    };
    pub use opr_workload::{
        Algorithm, ClientId, DiagnosedRun, ExperimentTable, IdDistribution, RenamingRun, RunArena,
        RunOutput, RunStats, ServiceWorkload,
    };
}
