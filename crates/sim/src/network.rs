//! The lock-step round engine.

use crate::actor::{Actor, Inbox, Outbox};
use crate::metrics::{RoundMetrics, RunMetrics};
use crate::sealed::Sealed;
use crate::topology::Topology;
use crate::trace::{Trace, TraceEvent};
use crate::wire::WireSize;
use opr_types::{MalformedKind, MalformedSend, ProcessIndex, Round};
use std::fmt::Debug;

/// Result of [`Network::run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunReport {
    /// Rounds actually executed.
    pub rounds_executed: u32,
    /// Whether every correct actor produced an output within the budget.
    pub completed: bool,
}

/// A synchronous network executing a set of [`Actor`]s in lock-step rounds.
///
/// The engine is deliberately single-threaded and deterministic: given the
/// same actors (including adversary seeds) and topology, a run is exactly
/// reproducible — runs *are* the experiments in this workspace.
pub struct Network<M, O> {
    actors: Vec<Box<dyn Actor<Msg = M, Output = O>>>,
    correct: Vec<bool>,
    topology: Topology,
    metrics: RunMetrics,
    next_round: Round,
    trace: Option<Trace>,
    delivery_filter: Option<DeliveryFilter>,
    payload_cap: Option<u64>,
    malformed: Vec<MalformedSend>,
    // Per-round arenas, keyed to the process count and reused across
    // rounds instead of reallocated: the outbox collection, the outer
    // inbox spine, and the multicast duplicate-link bitmap. The inner
    // inbox `Vec`s are *not* reusable — `Inbox::new` consumes them by
    // contract — so only the outer buffers live here.
    outbox_arena: Vec<Outbox<M>>,
    inbox_arena: Vec<Vec<(opr_types::LinkId, Sealed<M>)>>,
    seen_arena: Vec<bool>,
}

/// A transport-level delivery predicate: given the round, the sending
/// process and the *outgoing* link label at the sender, decide whether the
/// message traverses the link. Returning `false` models a transport fault
/// (drop, or delay past the round boundary — equivalent to silence in the
/// synchronous model): the message is never routed, counted or traced.
pub type DeliveryFilter = Box<dyn FnMut(Round, ProcessIndex, opr_types::LinkId) -> bool + Send>;

impl<M, O> Network<M, O>
where
    M: Clone + Debug + WireSize,
{
    /// Creates a network in which every actor is counted as correct.
    ///
    /// # Panics
    ///
    /// Panics if the number of actors differs from the topology size.
    pub fn new(actors: Vec<Box<dyn Actor<Msg = M, Output = O>>>, topology: Topology) -> Self {
        let correct = vec![true; actors.len()];
        Self::with_faults(actors, correct, topology)
    }

    /// Creates a network with an explicit correctness mask. Faulty actors
    /// participate fully (the engine routes whatever they send) but are
    /// excluded from termination detection and from the `correct` metrics.
    ///
    /// # Panics
    ///
    /// Panics if lengths are inconsistent with the topology.
    pub fn with_faults(
        actors: Vec<Box<dyn Actor<Msg = M, Output = O>>>,
        correct: Vec<bool>,
        topology: Topology,
    ) -> Self {
        assert_eq!(
            actors.len(),
            topology.n(),
            "actor count must match topology"
        );
        assert_eq!(actors.len(), correct.len(), "mask must cover every actor");
        let n = actors.len();
        Network {
            actors,
            correct,
            topology,
            metrics: RunMetrics::new(),
            next_round: Round::FIRST,
            trace: None,
            delivery_filter: None,
            payload_cap: None,
            malformed: Vec::new(),
            outbox_arena: Vec::with_capacity(n),
            inbox_arena: (0..n).map(|_| Vec::new()).collect(),
            seen_arena: vec![false; n],
        }
    }

    /// Installs a per-message payload cap in bits. Larger messages are
    /// recorded as [`MalformedSend`]s and dropped instead of routed.
    pub fn set_payload_cap(&mut self, cap: Option<u64>) {
        self.payload_cap = cap;
    }

    /// Every send the transport rejected so far (out-of-range or duplicate
    /// link labels, oversized payloads), in `(round, sender, occurrence)`
    /// order. Rejection is not an engine failure: the message is dropped —
    /// indistinguishable from a link fault to the receiver — and the caller
    /// decides whether the sender was within its rights (Byzantine) or
    /// buggy (correct).
    pub fn malformed_sends(&self) -> &[MalformedSend] {
        &self.malformed
    }

    /// Installs a transport-level [`DeliveryFilter`]. Messages the filter
    /// rejects are dropped before routing, metrics and tracing — exactly as
    /// if the link had failed for that round.
    pub fn set_delivery_filter(&mut self, filter: DeliveryFilter) {
        self.delivery_filter = Some(filter);
    }

    /// Starts recording deliveries into a bounded [`Trace`].
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Trace::with_capacity(capacity));
    }

    /// The recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Executes one synchronous round: all sends, then all deliveries.
    pub fn step(&mut self) {
        let round = self.next_round;
        let n = self.actors.len();

        // Phase 1: collect every actor's outbox into the reusable arena.
        // The arenas are taken out of `self` for the duration of the round
        // so the routing closure below can still borrow `self` mutably.
        let mut outboxes = std::mem::take(&mut self.outbox_arena);
        debug_assert!(outboxes.is_empty(), "arena returned dirty last round");
        for actor in &mut self.actors {
            outboxes.push(actor.send(round));
        }

        // Phase 2: route. `inboxes[r]` accumulates (label, message) pairs.
        // The inner `Vec`s were consumed by `Inbox` last round, so reserve
        // the worst case (one message per sender) up front: one allocation
        // per receiver per round instead of a growth-doubling series.
        let mut inboxes = std::mem::take(&mut self.inbox_arena);
        debug_assert_eq!(inboxes.len(), n, "inbox spine sized to process count");
        for slot in &mut inboxes {
            slot.reserve(n);
        }
        let mut round_metrics = RoundMetrics::default();
        for (s, outbox) in outboxes.drain(..).enumerate() {
            let sender = ProcessIndex::new(s);
            let is_correct = self.correct[s];
            let mut deliver_one = |link: opr_types::LinkId, msg: Sealed<M>, net: &mut Self| {
                // Computed once per payload and cached inside the seal: the
                // cap check, metrics and trace below all reuse this value,
                // and the other N−1 links of a broadcast get it for free.
                let bits = msg.wire_bits();
                if let Some(cap) = net.payload_cap {
                    if bits > cap {
                        net.malformed.push(MalformedSend {
                            sender,
                            round,
                            kind: MalformedKind::OversizedPayload { bits, cap },
                        });
                        return;
                    }
                }
                if let Some(filter) = net.delivery_filter.as_mut() {
                    if !filter(round, sender, link) {
                        return;
                    }
                }
                let receiver = net.topology.peer(sender, link);
                let in_label = net.topology.incoming_label(receiver, sender);
                let self_loop = receiver == sender;
                if is_correct {
                    if !self_loop {
                        round_metrics.messages_correct += 1;
                        round_metrics.bits_correct += bits;
                    }
                    round_metrics.max_message_bits = round_metrics.max_message_bits.max(bits);
                } else if !self_loop {
                    round_metrics.messages_faulty += 1;
                }
                if let Some(trace) = &mut net.trace {
                    trace.record(TraceEvent {
                        round,
                        sender,
                        receiver,
                        link: in_label,
                        message: msg.rendered().to_owned(),
                    });
                }
                inboxes[receiver.index()].push((in_label, msg));
            };
            match outbox {
                Outbox::Silent => {}
                Outbox::Broadcast(msg) => {
                    // Seal once; every link's inbox slot shares the same
                    // allocation — fan-out is N refcount bumps, not N deep
                    // copies.
                    let sealed = Sealed::new(msg);
                    for l in 1..=n {
                        deliver_one(opr_types::LinkId::new(l), sealed.clone(), self);
                    }
                }
                Outbox::Multicast(entries) => {
                    let mut seen = std::mem::take(&mut self.seen_arena);
                    seen.clear();
                    seen.resize(n, false);
                    for (link, msg) in entries {
                        if link.label() > n {
                            self.malformed.push(MalformedSend {
                                sender,
                                round,
                                kind: MalformedKind::LinkOutOfRange {
                                    label: link.label(),
                                    n,
                                },
                            });
                            continue;
                        }
                        if std::mem::replace(&mut seen[link.index()], true) {
                            self.malformed.push(MalformedSend {
                                sender,
                                round,
                                kind: MalformedKind::DuplicateLink {
                                    label: link.label(),
                                },
                            });
                            continue;
                        }
                        // Equivocation stays per-link owned: each entry is
                        // its own payload, sealed individually.
                        deliver_one(link, Sealed::new(msg), self);
                    }
                    self.seen_arena = seen;
                }
            }
        }
        self.metrics.push_round(round_metrics);

        // Phase 3: deliver. Sort by label for determinism. The inbox
        // consumes each inner `Vec` (payloads stay sealed — shared
        // broadcast allocations are handed over, not copied), so
        // `mem::take` leaves a fresh (non-allocating) empty slot.
        for (r, slot) in inboxes.iter_mut().enumerate() {
            let mut entries = std::mem::take(slot);
            entries.sort_by_key(|(l, _)| *l);
            self.actors[r].deliver(round, Inbox::from_sealed(entries));
        }
        self.outbox_arena = outboxes;
        self.inbox_arena = inboxes;
        self.next_round = round.next();
    }

    /// Runs until every correct actor has an output, or `max_rounds` rounds
    /// have executed.
    pub fn run(&mut self, max_rounds: u32) -> RunReport {
        let mut executed = self.metrics.rounds_executed();
        while executed < max_rounds && !self.all_correct_decided() {
            self.step();
            executed = self.metrics.rounds_executed();
        }
        RunReport {
            rounds_executed: executed,
            completed: self.all_correct_decided(),
        }
    }

    fn all_correct_decided(&self) -> bool {
        self.actors
            .iter()
            .zip(&self.correct)
            .filter(|(_, &c)| c)
            .all(|(a, _)| a.output().is_some())
    }

    /// The output of actor `index`, if decided.
    pub fn output_of(&self, index: usize) -> Option<O> {
        self.actors[index].output()
    }

    /// Outputs of all actors (faulty included), in index order.
    pub fn outputs(&self) -> Vec<Option<O>> {
        self.actors.iter().map(|a| a.output()).collect()
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// The correctness mask supplied at construction.
    pub fn correct_mask(&self) -> &[bool] {
        &self.correct
    }

    /// The topology the network routes over.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opr_types::LinkId;

    #[derive(Clone, Debug)]
    struct Num(u64);
    impl WireSize for Num {
        fn wire_bits(&self) -> u64 {
            64
        }
    }

    /// Broadcasts its value; decides the sum of round-1 values.
    struct Summer {
        value: u64,
        sum: Option<u64>,
    }
    impl Actor for Summer {
        type Msg = Num;
        type Output = u64;
        fn send(&mut self, _round: Round) -> Outbox<Num> {
            Outbox::Broadcast(Num(self.value))
        }
        fn deliver(&mut self, _round: Round, inbox: Inbox<Num>) {
            if self.sum.is_none() {
                self.sum = Some(inbox.messages().map(|(_, m)| m.0).sum());
            }
        }
        fn output(&self) -> Option<u64> {
            self.sum
        }
    }

    /// Sends a different value to every link (equivocator), never decides.
    struct Equivocator;
    impl Actor for Equivocator {
        type Msg = Num;
        type Output = u64;
        fn send(&mut self, _round: Round) -> Outbox<Num> {
            Outbox::Multicast(
                (1..=3)
                    .map(|l| (LinkId::new(l), Num(100 * l as u64)))
                    .collect(),
            )
        }
        fn deliver(&mut self, _round: Round, _inbox: Inbox<Num>) {}
        fn output(&self) -> Option<u64> {
            None
        }
    }

    fn summers(values: &[u64]) -> Vec<Box<dyn Actor<Msg = Num, Output = u64>>> {
        values
            .iter()
            .map(|&v| {
                Box::new(Summer {
                    value: v,
                    sum: None,
                }) as Box<dyn Actor<Msg = Num, Output = u64>>
            })
            .collect()
    }

    #[test]
    fn broadcast_reaches_everyone_including_self() {
        let mut net = Network::new(summers(&[1, 2, 4]), Topology::canonical(3));
        let report = net.run(5);
        assert!(report.completed);
        assert_eq!(report.rounds_executed, 1);
        for i in 0..3 {
            assert_eq!(net.output_of(i), Some(7), "actor {i} must see all values");
        }
    }

    #[test]
    fn metrics_count_network_messages_not_self_loops() {
        let mut net = Network::new(summers(&[1, 2, 4]), Topology::canonical(3));
        net.run(1);
        // 3 actors × 2 non-self links.
        assert_eq!(net.metrics().messages_correct(), 6);
        assert_eq!(net.metrics().bits_correct(), 6 * 64);
        assert_eq!(net.metrics().max_message_bits(), 64);
    }

    #[test]
    fn faulty_messages_counted_separately() {
        let actors: Vec<Box<dyn Actor<Msg = Num, Output = u64>>> = vec![
            Box::new(Summer {
                value: 1,
                sum: None,
            }),
            Box::new(Summer {
                value: 2,
                sum: None,
            }),
            Box::new(Equivocator),
        ];
        let mut net = Network::with_faults(actors, vec![true, true, false], Topology::canonical(3));
        let report = net.run(1);
        assert!(report.completed, "correct actors decided");
        // The equivocator multicast to links 1..=3 of a 3-process system:
        // two peers plus the self-loop, so two network messages.
        assert_eq!(net.metrics().messages_faulty(), 2);
        assert_eq!(net.metrics().messages_correct(), 4);
    }

    #[test]
    fn equivocator_delivers_different_values_per_link() {
        let actors: Vec<Box<dyn Actor<Msg = Num, Output = u64>>> = vec![
            Box::new(Summer {
                value: 1,
                sum: None,
            }),
            Box::new(Summer {
                value: 2,
                sum: None,
            }),
            Box::new(Equivocator),
        ];
        let topo = Topology::canonical(3);
        let mut net = Network::with_faults(actors, vec![true, true, false], topo);
        net.run(1);
        // Each summer saw: both correct values + one of the equivocator's
        // per-link values (100·l for the equivocator's link l to them). The
        // two sums must therefore differ — equivocation is really per-link.
        let a = net.output_of(0).unwrap();
        let b = net.output_of(1).unwrap();
        assert_ne!(a, b, "equivocator must be able to split correct views");
    }

    #[test]
    fn run_respects_round_budget() {
        struct Never;
        impl Actor for Never {
            type Msg = Num;
            type Output = u64;
            fn send(&mut self, _round: Round) -> Outbox<Num> {
                Outbox::Silent
            }
            fn deliver(&mut self, _round: Round, _inbox: Inbox<Num>) {}
            fn output(&self) -> Option<u64> {
                None
            }
        }
        let actors: Vec<Box<dyn Actor<Msg = Num, Output = u64>>> = vec![Box::new(Never)];
        let mut net = Network::new(actors, Topology::canonical(1));
        let report = net.run(4);
        assert!(!report.completed);
        assert_eq!(report.rounds_executed, 4);
    }

    #[test]
    fn trace_records_deliveries() {
        let mut net = Network::new(summers(&[1, 2]), Topology::canonical(2));
        net.enable_trace(100);
        net.run(1);
        let trace = net.trace().unwrap();
        // 2 senders × 2 links (peer + self-loop).
        assert_eq!(trace.events().len(), 4);
    }

    #[test]
    fn duplicate_link_in_multicast_is_recorded_and_dropped() {
        struct Dup;
        impl Actor for Dup {
            type Msg = Num;
            type Output = u64;
            fn send(&mut self, _round: Round) -> Outbox<Num> {
                Outbox::Multicast(vec![(LinkId::new(1), Num(1)), (LinkId::new(1), Num(2))])
            }
            fn deliver(&mut self, _round: Round, _inbox: Inbox<Num>) {}
            fn output(&self) -> Option<u64> {
                None
            }
        }
        let actors: Vec<Box<dyn Actor<Msg = Num, Output = u64>>> = vec![
            Box::new(Dup),
            Box::new(Summer {
                value: 0,
                sum: None,
            }),
        ];
        let mut net = Network::new(actors, Topology::canonical(2));
        net.step();
        // The first message on the link went through; the duplicate was
        // recorded and dropped, not panicked on.
        assert_eq!(net.output_of(1), Some(1));
        let malformed = net.malformed_sends();
        assert_eq!(malformed.len(), 1);
        assert!(matches!(
            malformed[0].kind,
            opr_types::MalformedKind::DuplicateLink { label: 1 }
        ));
        assert_eq!(malformed[0].sender, ProcessIndex::new(0));
    }

    #[test]
    fn out_of_range_link_is_recorded_and_dropped() {
        struct Wild;
        impl Actor for Wild {
            type Msg = Num;
            type Output = u64;
            fn send(&mut self, _round: Round) -> Outbox<Num> {
                Outbox::Multicast(vec![(LinkId::new(9), Num(1)), (LinkId::new(1), Num(2))])
            }
            fn deliver(&mut self, _round: Round, _inbox: Inbox<Num>) {}
            fn output(&self) -> Option<u64> {
                None
            }
        }
        let actors: Vec<Box<dyn Actor<Msg = Num, Output = u64>>> = vec![
            Box::new(Wild),
            Box::new(Summer {
                value: 0,
                sum: None,
            }),
        ];
        let mut net = Network::new(actors, Topology::canonical(2));
        net.step();
        assert_eq!(net.output_of(1), Some(2), "in-range message still routed");
        assert!(matches!(
            net.malformed_sends(),
            [MalformedSend {
                kind: opr_types::MalformedKind::LinkOutOfRange { label: 9, n: 2 },
                ..
            }]
        ));
    }

    #[test]
    fn payload_cap_rejects_oversized_messages() {
        let mut net = Network::new(summers(&[1, 2]), Topology::canonical(2));
        net.set_payload_cap(Some(32));
        let report = net.run(2);
        // Every 64-bit message got rejected: nobody hears anything, sums are
        // zero, and each sender is flagged once per attempted delivery.
        assert!(report.completed);
        assert_eq!(net.output_of(0), Some(0));
        assert_eq!(net.metrics().messages_correct(), 0);
        assert_eq!(net.malformed_sends().len(), 4);
        assert!(net.malformed_sends().iter().all(|m| matches!(
            m.kind,
            opr_types::MalformedKind::OversizedPayload { bits: 64, cap: 32 }
        )));
    }

    #[test]
    #[should_panic(expected = "actor count")]
    fn actor_count_must_match_topology() {
        let _ = Network::new(summers(&[1]), Topology::canonical(2));
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let run = |seed| {
            let mut net = Network::new(summers(&[5, 6, 7, 8]), Topology::seeded(4, seed));
            net.run(1);
            (net.outputs(), net.metrics().clone())
        };
        assert_eq!(run(42), run(42));
    }
}
