#![warn(missing_docs)]
//! Pluggable lock-step execution substrates.
//!
//! Every protocol in this workspace is written against the
//! [`Actor`](opr_sim::Actor) contract: `send`, route, `deliver`, one
//! synchronous round at a time. This crate makes *where that contract
//! executes* a first-class choice:
//!
//! * [`SimBackend`] — [`opr_sim::Network`] stepped on the calling thread.
//!   Zero concurrency, bit-for-bit reproducible, the reference semantics.
//! * [`PooledBackend`] — the real-threads engine: the *same* `Network`,
//!   with each round's per-process send and deliver phases on at most
//!   `workers` scoped threads and routing kept serial. One definition of a
//!   round, two schedules for it, so a given seed produces **identical**
//!   outcomes, traces and [`RunMetrics`](opr_sim::RunMetrics) on both
//!   backends, at any worker count, by construction.
//!
//! The substrate boundary is also where the model's link-anonymity lives:
//! receivers observe *link labels*, never sender identities, on every
//! backend. And it is the natural place for faults *below* the adversary
//! layer — [`FaultPlan`] drops or silences chosen links per round at the
//! transport itself, regardless of what the (possibly Byzantine) actor
//! above tried to send.
//!
//! # Example: one job, two substrates, equal results
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
//! let sim = BackendKind::Sim.execute(job(()));
//! let pooled = BackendKind::Pooled.execute(job(()));
//! assert_eq!(sim.outputs, pooled.outputs);
//! assert_eq!(sim.metrics, pooled.metrics);
//! ```

pub mod faults;
pub mod pooled;
pub mod sim_backend;
pub mod substrate;

pub use faults::{FaultEvent, FaultPlan};
pub use pooled::PooledBackend;
pub use sim_backend::SimBackend;
pub use substrate::{BackendKind, ExecOptions, ExecutionReport, Job, Substrate};
