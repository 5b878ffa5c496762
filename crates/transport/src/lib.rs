#![warn(missing_docs)]
//! The lock-step execution substrate.
//!
//! Every protocol in this workspace is written against the
//! [`Actor`](opr_sim::Actor) contract: `send`, route, `deliver`, one
//! synchronous round at a time. This crate runs that contract: [`run`]
//! steps an [`opr_sim::Network`] on the calling thread until every correct
//! actor has decided or the round budget is spent, and [`Job`] /
//! [`ExecutionReport`] package one such run for callers that bring their
//! own actors. There is one schedule — the paper's synchronous round, in
//! which every process sends and then every process receives — so a given
//! seed produces one outcome, one trace and one
//! [`RunMetrics`](opr_sim::RunMetrics).
//!
//! The substrate boundary is also where the model's link-anonymity lives:
//! receivers observe *link labels*, never sender identities. And it is the
//! natural place for faults *below* the adversary layer — [`FaultPlan`]
//! drops or silences chosen links per round at the transport itself,
//! regardless of what the (possibly Byzantine) actor above tried to send.
//!
//! [`PooledBackend`] (the round's per-process phases on worker threads)
//! and the one-variant [`BackendKind`] select nothing; they are kept for
//! `benchmark/` until that package depends on the `opr` facade alone.
//!
//! # Example: one job, run to completion
//!
//! ```
//! use opr_transport::{BackendKind, Job};
//! use opr_sim::{Actor, Inbox, Outbox, Topology, WireSize};
//! use opr_types::Round;
//!
//! #[derive(Clone, Debug)]
//! struct Ping(u64);
//! impl WireSize for Ping {
//!     fn wire_bits(&self) -> u64 { 64 }
//! }
//! struct Echo(u64, Option<u64>);
//! impl Actor for Echo {
//!     type Msg = Ping;
//!     type Output = u64;
//!     fn send(&mut self, _r: Round) -> Outbox<Ping> { Outbox::Broadcast(Ping(self.0)) }
//!     fn deliver(&mut self, _r: Round, inbox: Inbox<Ping>) {
//!         self.1 = Some(inbox.messages().map(|(_, m)| m.0).sum());
//!     }
//!     fn output(&self) -> Option<u64> { self.1 }
//! }
//!
//! let job = |_| Job::new(
//!     (0..4u64).map(|v| Box::new(Echo(v, None)) as Box<dyn Actor<Msg = Ping, Output = u64>>)
//!         .collect(),
//!     Topology::seeded(4, 7),
//!     5,
//! );
//! let report = BackendKind::Sim.execute(job(()));
//! assert!(report.completed);
//! assert_eq!(report.rounds_executed, 1);
//! // Every process heard all four values, its own included; the network
//! // carried the 4 × 3 that crossed a link.
//! assert_eq!(report.outputs, vec![Some(6); 4]);
//! assert_eq!(report.metrics.messages_correct(), 12);
//! // The same job, run twice, reports the same thing.
//! assert_eq!(BackendKind::Sim.execute(job(())).metrics, report.metrics);
//! ```

pub(crate) mod faults;
pub(crate) mod pooled;
pub(crate) mod substrate;

pub use faults::{FaultEvent, FaultPlan};
pub use pooled::PooledBackend;
pub use substrate::{run, BackendKind, ExecOptions, ExecutionReport, Job, Substrate};
