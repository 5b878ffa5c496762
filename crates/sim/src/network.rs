//! The lock-step round engine.
//!
//! A round is three phases. **Send** and **deliver** touch one process
//! each — its actor and its outbox: a `Seat` — so they may run on any
//! thread, in any order. **Route**, between them, is the only phase that
//! writes shared state (counters, trace, malformed list, the round's
//! payload and row tables) and always runs serially in process-index
//! order. There is one definition of the round and two *schedules* for it:
//! [`Network::step`] applies the per-seat phases on the calling thread,
//! [`Network::step_on`] applies the same two closures to contiguous seat
//! blocks on scoped threads. Seat blocks are disjoint, routing is serial
//! and delivery only reads the tables, so what a run observes cannot
//! depend on the schedule.

use crate::actor::{Actor, Inbox, Outbox};
use crate::metrics::{RoundMetrics, RunMetrics};
use crate::topology::{Slot, Topology};
use crate::trace::{Trace, TraceEvent};
use crate::wire::WireSize;
use opr_types::{LinkId, MalformedKind, MalformedSend, ProcessIndex, Round};
use std::fmt::Debug;
use std::marker::PhantomData;

/// Result of [`Network::run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunReport {
    /// Rounds actually executed.
    pub rounds_executed: u32,
    /// Whether every correct actor produced an output within the budget.
    pub completed: bool,
}

/// Everything only process `index` touches in the send and deliver phases.
/// Its inbox is not here: deliver reads row `index` of the network's row
/// table, which route filled, through a borrowed [`Inbox`].
struct Seat<M, A> {
    actor: A,
    /// What the actor sent this round; `Silent` outside send → route.
    outbox: Outbox<M>,
    /// The process index: which row of the row table is this seat's inbox.
    index: usize,
    /// How many slots of that row route set this round; 0 outside
    /// route → deliver.
    received: usize,
}

/// One per-seat phase of a round, shared by both schedules.
type Phase<'a, M, A> = &'a (dyn Fn(&mut Seat<M, A>) + Sync);

/// One entry of the round's payload table: a broadcast, or one multicast
/// entry. Every link the payload is routed on points at it by index.
pub(crate) struct Payload<M> {
    pub(crate) msg: M,
    /// `msg.wire_bits()`, computed once when the payload enters the table.
    bits: u64,
    /// The `Debug` rendering, made the first time the trace records one of
    /// the payload's deliveries and cloned for the others.
    rendered: Option<String>,
}

/// An empty slot of the row table.
pub(crate) const NO_PAYLOAD: u32 = u32::MAX;

/// A synchronous network executing a set of [`Actor`]s in lock-step rounds.
///
/// The engine is deterministic: given the same actors (including adversary
/// seeds) and topology, a run is exactly reproducible on either schedule —
/// runs *are* the experiments in this workspace.
///
/// `A` is what sits in a seat: any [`Actor`] of the network's message and
/// output types — boxed trait objects by default, or one concrete type
/// (an enum of a protocol's correct process and a boxed adversary, say) that
/// [`rewind`](Network::rewind) can reset in place for another run.
pub struct Network<M, O, A = Box<dyn Actor<Msg = M, Output = O>>> {
    seats: Vec<Seat<M, A>>,
    correct: Vec<bool>,
    topology: Topology,
    /// This round's payloads, in routing order; cleared after deliver.
    payloads: Vec<Payload<M>>,
    /// The `N × N` row table: `rows[r * n + l - 1]` indexes the payload
    /// receiver `r` got on its label `l` this round, or is [`NO_PAYLOAD`].
    /// Reset after deliver.
    rows: Vec<u32>,
    metrics: RunMetrics,
    next_round: Round,
    trace: Option<Trace>,
    delivery_filter: Option<DeliveryFilter>,
    payload_cap: Option<u64>,
    malformed: Vec<MalformedSend>,
    /// The multicast duplicate-link bitmap, reused across senders and rounds.
    seen_arena: Vec<bool>,
    output: PhantomData<fn() -> O>,
}

/// A transport-level delivery predicate: given the round, the sending
/// process and the *outgoing* link label at the sender, decide whether the
/// message traverses the link. Returning `false` models a transport fault
/// (drop, or delay past the round boundary — equivalent to silence in the
/// synchronous model): the message is never routed, counted or traced.
pub(crate) type DeliveryFilter = Box<dyn FnMut(Round, ProcessIndex, LinkId) -> bool + Send>;

impl<M, O, A> Network<M, O, A>
where
    M: Clone + Debug + WireSize + Sync,
    A: Actor<Msg = M, Output = O>,
{
    /// Creates a network in which every actor is counted as correct.
    ///
    /// # Panics
    ///
    /// Panics if the number of actors differs from the topology size.
    pub fn new(actors: Vec<A>, topology: Topology) -> Self {
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
    pub fn with_faults(actors: Vec<A>, correct: Vec<bool>, topology: Topology) -> Self {
        assert_eq!(
            actors.len(),
            topology.n(),
            "actor count must match topology"
        );
        assert_eq!(actors.len(), correct.len(), "mask must cover every actor");
        let n = actors.len();
        let seats = actors
            .into_iter()
            .enumerate()
            .map(|(index, actor)| Seat {
                actor,
                outbox: Outbox::Silent,
                index,
                received: 0,
            })
            .collect();
        Network {
            seats,
            correct,
            topology,
            // One broadcast per process is the common round.
            payloads: Vec::with_capacity(n),
            rows: vec![NO_PAYLOAD; n * n],
            metrics: RunMetrics::default(),
            next_round: Round::FIRST,
            trace: None,
            delivery_filter: None,
            payload_cap: None,
            malformed: Vec::new(),
            // Sized by the first multicast: fault-free runs never need it.
            seen_arena: Vec::new(),
            output: PhantomData,
        }
    }

    /// Readies the network for another run of as many processes, keeping
    /// every table's storage: the mesh is relabelled as
    /// [`Topology::seeded`]`(n, seed)` labels it; the round counter,
    /// metrics, trace, malformed sends, delivery filter and payload cap
    /// start over; and `reseat` is handed the new topology, each seat's
    /// index and its actor — to reset in place or replace — and returns
    /// whether that process counts as correct. A rewound network runs as a
    /// new one built from the same actors, mask and topology would.
    pub fn rewind(&mut self, seed: u64, mut reseat: impl FnMut(&Topology, usize, &mut A) -> bool) {
        self.topology.reseed(seed);
        for (seat, correct) in self.seats.iter_mut().zip(&mut self.correct) {
            seat.outbox = Outbox::Silent;
            seat.received = 0;
            *correct = reseat(&self.topology, seat.index, &mut seat.actor);
        }
        // A run cut short by a panic may have left a round half routed.
        self.payloads.clear();
        self.rows.fill(NO_PAYLOAD);
        self.metrics.clear();
        self.next_round = Round::FIRST;
        self.trace = None;
        self.delivery_filter = None;
        self.payload_cap = None;
        self.malformed.clear();
    }

    /// Installs a per-message payload cap in bits. Larger messages are
    /// recorded as [`MalformedSend`]s and dropped instead of routed.
    pub fn set_payload_cap(&mut self, cap: Option<u64>) {
        self.payload_cap = cap;
    }

    /// Installs a transport-level delivery filter. Messages the filter
    /// rejects are dropped before routing, metrics and tracing — exactly as
    /// if the link had failed for that round.
    pub fn set_delivery_filter(&mut self, filter: DeliveryFilter) {
        self.delivery_filter = Some(filter);
    }

    /// Starts recording deliveries into a bounded [`Trace`].
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Trace::with_capacity(capacity));
    }

    /// Executes one synchronous round on the calling thread: all sends,
    /// routing, then all deliveries.
    pub fn step(&mut self) {
        self.round(|seats, phase| seats.iter_mut().for_each(phase));
    }

    /// Executes the same round as [`step`](Network::step) with the send and
    /// deliver phases applied to contiguous seat blocks on at most
    /// `min(workers, n)` scoped threads, the caller's included (`workers ≤ 1`
    /// spawns none). Routing stays serial, so outputs, metrics, trace and
    /// malformed sends are those of `step` at any worker count. An actor
    /// panic is re-raised on the caller's thread once the phase has joined —
    /// the lowest-index one if several seats panic.
    ///
    /// No run selects this schedule: it serves `opr-transport`'s
    /// `PooledBackend`, kept for `benchmark/`'s transport probe until that
    /// package depends on the `opr` facade alone.
    pub fn step_on(&mut self, workers: usize)
    where
        M: Send,
    {
        self.round(|seats, phase| {
            // A topology has n ≥ 1 processes, so there is a first block.
            let threads = workers.clamp(1, seats.len());
            let mut blocks = seats.chunks_mut(seats.len().div_ceil(threads));
            let mine = blocks.next();
            std::thread::scope(|scope| {
                let spawned: Vec<_> = blocks
                    .map(|block| scope.spawn(move || block.iter_mut().for_each(phase)))
                    .collect();
                // A panic here unwinds out of `scope`, which joins the
                // spawned blocks first and then re-raises this payload.
                mine.into_iter().flatten().for_each(phase);
                for handle in spawned {
                    if let Err(payload) = handle.join() {
                        std::panic::resume_unwind(payload);
                    }
                }
            });
        });
    }

    /// The one definition of a round; `apply` is the schedule.
    fn round(&mut self, apply: impl Fn(&mut [Seat<M, A>], Phase<'_, M, A>)) {
        let round = self.next_round;
        apply(&mut self.seats, &|seat| {
            seat.outbox = seat.actor.send(round)
        });
        self.route(round);
        let n = self.seats.len();
        let (rows, payloads) = (&self.rows, &self.payloads);
        apply(&mut self.seats, &|seat| {
            // The row is in label order by construction: nothing to sort.
            let row = &rows[seat.index * n..][..n];
            let received = std::mem::take(&mut seat.received);
            seat.actor
                .deliver(round, Inbox::routed(row, received, payloads));
        });
        self.rows.fill(NO_PAYLOAD);
        self.payloads.clear();
        self.next_round = round.next();
    }

    /// Moves every outbox of the round into the payload table, in
    /// process-index order: multicast validation, then [`Self::route_one`]
    /// per link.
    fn route(&mut self, round: Round) {
        let n = self.seats.len();
        let mut tally = RoundMetrics::default();
        for s in 0..n {
            let sender = ProcessIndex::new(s);
            match std::mem::replace(&mut self.seats[s].outbox, Outbox::Silent) {
                Outbox::Silent => {}
                Outbox::Broadcast(msg) => {
                    // One payload; every link's row slot points at it.
                    let payload = self.push_payload(msg);
                    for l in 1..=n {
                        self.route_one(round, sender, LinkId::new(l), payload, &mut tally);
                    }
                }
                Outbox::Multicast(entries) => {
                    let mut seen = std::mem::take(&mut self.seen_arena);
                    seen.clear();
                    seen.resize(n, false);
                    for (link, msg) in entries {
                        let label = link.label();
                        if label > n {
                            self.malformed.push(MalformedSend {
                                sender,
                                round,
                                kind: MalformedKind::LinkOutOfRange { label, n },
                            });
                        } else if std::mem::replace(&mut seen[link.index()], true) {
                            self.malformed.push(MalformedSend {
                                sender,
                                round,
                                kind: MalformedKind::DuplicateLink { label },
                            });
                        } else {
                            // Equivocation: each entry is its own payload.
                            let payload = self.push_payload(msg);
                            self.route_one(round, sender, link, payload, &mut tally);
                        }
                    }
                    self.seen_arena = seen;
                }
            }
        }
        self.metrics.push_round(tally);
    }

    /// Adds `msg` to the round's payload table, sizing it once for the
    /// payload cap, metrics and trace of every link it is routed on.
    fn push_payload(&mut self, msg: M) -> u32 {
        // At most N payloads per sender: N² of them stay below the empty
        // slot's marker for any N up to 65 535.
        assert!(
            self.payloads.len() < NO_PAYLOAD as usize,
            "a round holds fewer payloads than the empty-slot marker"
        );
        let index = self.payloads.len() as u32;
        self.payloads.push(Payload {
            bits: msg.wire_bits(),
            msg,
            rendered: None,
        });
        index
    }

    /// One payload on one link: payload cap, fault filter, slot lookup,
    /// accounting, trace, row.
    fn route_one(
        &mut self,
        round: Round,
        sender: ProcessIndex,
        link: LinkId,
        payload: u32,
        tally: &mut RoundMetrics,
    ) {
        let bits = self.payloads[payload as usize].bits;
        if let Some(cap) = self.payload_cap {
            if bits > cap {
                self.malformed.push(MalformedSend {
                    sender,
                    round,
                    kind: MalformedKind::OversizedPayload { bits, cap },
                });
                return;
            }
        }
        if let Some(filter) = self.delivery_filter.as_mut() {
            if !filter(round, sender, link) {
                return;
            }
        }
        let Slot { receiver, label } = self.topology.slot(sender, link);
        let (receiver, label) = (receiver as usize, label as usize);
        let self_loop = receiver == sender.index();
        if self.correct[sender.index()] {
            if !self_loop {
                tally.messages_correct += 1;
                tally.bits_correct += bits;
            }
            tally.max_message_bits = tally.max_message_bits.max(bits);
        } else if !self_loop {
            tally.messages_faulty += 1;
        }
        if let Some(trace) = &mut self.trace {
            let Payload { msg, rendered, .. } = &mut self.payloads[payload as usize];
            trace.record_with(|| TraceEvent {
                round,
                sender,
                receiver: ProcessIndex::new(receiver),
                link: LinkId::new(label + 1),
                message: rendered.get_or_insert_with(|| format!("{msg:?}")).clone(),
            });
        }
        let cell = &mut self.rows[receiver * self.seats.len() + label];
        debug_assert_eq!(*cell, NO_PAYLOAD, "a label delivered twice in a round");
        *cell = payload;
        self.seats[receiver].received += 1;
    }

    /// Runs until every correct actor has an output, or `max_rounds` rounds
    /// have executed.
    pub fn run(&mut self, max_rounds: u32) -> RunReport {
        self.run_with(max_rounds, Self::step)
    }

    /// [`run`](Network::run) with the round supplied by the caller — a
    /// schedule ([`step`](Network::step), [`step_on`](Network::step_on)),
    /// possibly wrapped in a clock. `step` must execute exactly one round.
    pub fn run_with(&mut self, max_rounds: u32, mut step: impl FnMut(&mut Self)) -> RunReport {
        let mut executed = self.metrics.rounds_executed();
        while executed < max_rounds && !self.all_correct_decided() {
            step(self);
            executed = self.metrics.rounds_executed();
        }
        RunReport {
            rounds_executed: executed,
            completed: self.all_correct_decided(),
        }
    }

    fn all_correct_decided(&self) -> bool {
        self.seats
            .iter()
            .zip(&self.correct)
            .filter(|(_, &c)| c)
            .all(|(seat, _)| seat.actor.output().is_some())
    }

    /// The output of actor `index`, if decided.
    pub fn output_of(&self, index: usize) -> Option<O> {
        self.seats[index].actor.output()
    }

    /// Outputs of all actors (faulty included), in index order.
    pub fn outputs(&self) -> Vec<Option<O>> {
        self.seats.iter().map(|seat| seat.actor.output()).collect()
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// What the run accumulated: the metrics — a handle on the network's
    /// per-round table, which a [`rewind`](Network::rewind) clears in place
    /// once the handle is dropped — and, moved out, the trace (if enabled)
    /// and the malformed sends.
    pub fn take_artifacts(&mut self) -> (RunMetrics, Option<Trace>, Vec<MalformedSend>) {
        (
            self.metrics.clone(),
            self.trace.take(),
            std::mem::take(&mut self.malformed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opr_types::LinkId;

    impl<M: Clone + Debug + WireSize + Sync, O, A: Actor<Msg = M, Output = O>> Network<M, O, A> {
        /// Every send the transport rejected so far (out-of-range or
        /// duplicate link labels, oversized payloads), in `(round, sender,
        /// occurrence)` order.
        fn malformed_sends(&self) -> &[MalformedSend] {
            &self.malformed
        }

        /// The recorded trace, if tracing was enabled.
        fn trace(&self) -> Option<&Trace> {
            self.trace.as_ref()
        }
    }

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

    /// Sends one duplicate and one out-of-range link label every round.
    struct Sloppy;
    impl Actor for Sloppy {
        type Msg = Num;
        type Output = u64;
        fn send(&mut self, _round: Round) -> Outbox<Num> {
            Outbox::Multicast(vec![
                (LinkId::new(1), Num(1)),
                (LinkId::new(1), Num(2)),
                (LinkId::new(99), Num(3)),
            ])
        }
        fn deliver(&mut self, _round: Round, _inbox: Inbox<Num>) {}
        fn output(&self) -> Option<u64> {
            None
        }
    }

    #[test]
    fn step_on_equals_step_at_any_worker_count() {
        // n = 5: three summers, the equivocator and the multicast abuser;
        // n = 1: a lone self-loop. Traced past capacity, with and without a
        // cap that rejects every message.
        for n in [1usize, 5] {
            for cap in [None, Some(32)] {
                let run = |workers: Option<usize>| {
                    let mut actors = summers(&[10, 20, 30][..n.min(3)]);
                    let mut correct = vec![true; actors.len()];
                    if n == 5 {
                        actors.push(Box::new(Equivocator));
                        actors.push(Box::new(Sloppy));
                        correct.extend([false, false]);
                    }
                    let mut net = Network::with_faults(actors, correct, Topology::seeded(n, 7));
                    net.set_payload_cap(cap);
                    net.enable_trace(7);
                    for _ in 0..3 {
                        match workers {
                            None => net.step(),
                            Some(w) => net.step_on(w),
                        }
                    }
                    (
                        net.outputs(),
                        net.metrics().clone(),
                        net.trace().cloned(),
                        net.malformed_sends().to_vec(),
                    )
                };
                let reference = run(None);
                assert_eq!(reference.3.is_empty(), n == 1 && cap.is_none());
                for workers in [0, 1, 2, 3, n, n + 5] {
                    assert_eq!(
                        run(Some(workers)),
                        reference,
                        "n={n} cap={cap:?} workers={workers}"
                    );
                }
            }
        }
    }

    /// `wire_bits` calls across the whole test binary; only
    /// [`wire_bits_is_computed_once_per_payload_per_round`] sends `Metered`.
    static SIZINGS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

    #[derive(Clone, Debug)]
    struct Metered;
    impl WireSize for Metered {
        fn wire_bits(&self) -> u64 {
            SIZINGS.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            64
        }
    }

    /// Broadcasts, or multicasts one valid, one duplicate and one
    /// out-of-range entry.
    struct Sizer {
        sloppy: bool,
    }
    impl Actor for Sizer {
        type Msg = Metered;
        type Output = ();
        fn send(&mut self, _round: Round) -> Outbox<Metered> {
            if self.sloppy {
                Outbox::Multicast(vec![
                    (LinkId::new(1), Metered),
                    (LinkId::new(1), Metered),
                    (LinkId::new(99), Metered),
                ])
            } else {
                Outbox::Broadcast(Metered)
            }
        }
        fn deliver(&mut self, _round: Round, _inbox: Inbox<Metered>) {}
        fn output(&self) -> Option<()> {
            None
        }
    }

    #[test]
    fn wire_bits_is_computed_once_per_payload_per_round() {
        // Three broadcasters and one multicaster at n = 4: four routed
        // payloads a round, on 13 links. The cap, the metrics and the trace
        // all read every link's size, and must reuse the payload's.
        let actors: Vec<Box<dyn Actor<Msg = Metered, Output = ()>>> = (0..4)
            .map(|i| Box::new(Sizer { sloppy: i == 2 }) as _)
            .collect();
        let mut net = Network::new(actors, Topology::seeded(4, 3));
        net.set_payload_cap(Some(64));
        net.enable_trace(1000);
        let before = SIZINGS.load(std::sync::atomic::Ordering::SeqCst);
        for _ in 0..3 {
            net.step();
        }
        let sizings = SIZINGS.load(std::sync::atomic::Ordering::SeqCst) - before;
        assert_eq!(sizings, 3 * 4);
        assert_eq!(net.trace().unwrap().events().len(), 3 * 13);
        assert_eq!(net.metrics().bits_correct(), 3 * (3 * 3 + 1) * 64);
    }

    /// Panics with its seat number in the chosen phase.
    struct Bomb {
        seat: usize,
        in_send: bool,
    }
    impl Actor for Bomb {
        type Msg = Num;
        type Output = u64;
        fn send(&mut self, _round: Round) -> Outbox<Num> {
            assert!(!self.in_send, "send bomb in seat {}", self.seat);
            Outbox::Silent
        }
        fn deliver(&mut self, _round: Round, _inbox: Inbox<Num>) {
            panic!("deliver bomb in seat {}", self.seat);
        }
        fn output(&self) -> Option<u64> {
            None
        }
    }

    fn with_bombs(in_send: bool, seats: &[usize]) -> Network<Num, u64> {
        let mut actors = summers(&[1, 2, 3, 4]);
        for &seat in seats {
            actors[seat] = Box::new(Bomb { seat, in_send });
        }
        Network::new(actors, Topology::canonical(4))
    }

    // Two workers over four seats: seats 0–1 run on the caller's thread,
    // seats 2–3 on a spawned one.

    #[test]
    #[should_panic(expected = "send bomb in seat 1")]
    fn step_on_reraises_the_lowest_send_phase_panic() {
        with_bombs(true, &[1, 3]).step_on(2);
    }

    #[test]
    #[should_panic(expected = "deliver bomb in seat 3")]
    fn step_on_reraises_a_spawned_deliver_phase_panic() {
        with_bombs(false, &[3]).step_on(2);
    }
}
