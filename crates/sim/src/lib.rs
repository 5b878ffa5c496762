#![warn(missing_docs)]
//! Synchronous full-mesh network simulator — the substrate every protocol in
//! this workspace runs on.
//!
//! # The model (paper, Section II)
//!
//! * `N` processes in a fully-connected synchronous network; computation
//!   proceeds in lock-step *rounds* (communication steps).
//! * Each process's links are labelled `1 ⋯ N` **locally**; link `N` is a
//!   self-loop. A receiver knows the label of the link a message arrived on,
//!   but labels are *not* globally consistent — process `p`'s label for `q`
//!   is unrelated to `q`'s label for `p`. The simulator assigns labels from a
//!   seeded permutation so protocols that accidentally rely on labels as
//!   global identities fail loudly in tests.
//! * Channels are reliable: every message sent in round `r` is delivered in
//!   round `r`.
//! * Byzantine processes can send *different* messages on different links
//!   ([`Outbox::Multicast`]) or stay silent; they cannot forge link-of-origin
//!   (the network routes every message along a real link) and cannot break
//!   synchrony.
//!
//! # Pieces
//!
//! * [`Actor`] — the protocol interface: `send` then `deliver` per round.
//! * [`Topology`] — per-process link labelling over the full mesh.
//! * [`Network`] — the lock-step engine with metrics: one definition of a
//!   round (send, route, deliver), stepped on the calling thread
//!   ([`Network::step`]) or with its per-process phases on scoped worker
//!   threads ([`Network::step_on`]).
//! * [`Sealed`] — shared, immutable message payloads: broadcasts are sealed
//!   once and fanned out as refcount bumps, never per-link deep copies.
//! * [`RunMetrics`] — rounds, message and bit counters per round, used by the
//!   message-complexity experiment (T3).
//! * [`WireSize`] — model-level message size accounting in bits.
//!
//! # Example: three processes flooding their ids
//!
//! ```
//! use opr_sim::{Actor, Inbox, Network, Outbox, Topology, WireSize};
//! use opr_types::Round;
//!
//! #[derive(Clone, Debug)]
//! struct Flood(u64);
//! impl WireSize for Flood {
//!     fn wire_bits(&self) -> u64 { 64 }
//! }
//!
//! struct Proc { my: u64, seen: Vec<u64> }
//! impl Actor for Proc {
//!     type Msg = Flood;
//!     type Output = Vec<u64>;
//!     fn send(&mut self, _round: Round) -> Outbox<Flood> {
//!         Outbox::Broadcast(Flood(self.my))
//!     }
//!     fn deliver(&mut self, _round: Round, inbox: Inbox<Flood>) {
//!         self.seen = inbox.messages().map(|(_, m)| m.0).collect();
//!         self.seen.sort_unstable();
//!     }
//!     fn output(&self) -> Option<Vec<u64>> {
//!         (!self.seen.is_empty()).then(|| self.seen.clone())
//!     }
//! }
//!
//! let actors: Vec<Box<dyn Actor<Msg = Flood, Output = Vec<u64>>>> = vec![
//!     Box::new(Proc { my: 10, seen: vec![] }),
//!     Box::new(Proc { my: 20, seen: vec![] }),
//!     Box::new(Proc { my: 30, seen: vec![] }),
//! ];
//! let mut net = Network::new(actors, Topology::seeded(3, 7));
//! let report = net.run(1);
//! assert_eq!(report.rounds_executed, 1);
//! assert_eq!(net.output_of(0), Some(vec![10, 20, 30]));
//! ```

pub(crate) mod actor;
pub(crate) mod metrics;
pub(crate) mod network;
pub(crate) mod sealed;
pub(crate) mod topology;
pub(crate) mod trace;
pub(crate) mod wire;

pub use actor::{Actor, Inbox, Outbox};
pub use metrics::{RoundMetrics, RunMetrics};
pub use network::{Network, RunReport};
pub use sealed::Sealed;
pub use topology::Topology;
pub use trace::{Trace, TraceEvent};
pub use wire::{WireSize, COUNT_BITS, ID_BITS, RANK_BITS, TAG_BITS};
