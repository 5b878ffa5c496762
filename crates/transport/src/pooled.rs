//! Task-scheduled lock-step rounds on a fixed worker pool.
//!
//! # Design
//!
//! One OS thread and one channel per process does not scale: at N = 1024
//! that is a thousand threads ticking in lock-step through per-round
//! barriers. `PooledBackend` runs the same observable contract on a fixed
//! [`RunPool`] of workers (reused across rounds) that executes actor
//! round-steps as *tasks*, with every inbox held in one flat, preallocated
//! SoA slab of `Option<Sealed<M>>` slots indexed by `(sender, receiver)`.
//!
//! A round is two pool-wide phase fences:
//!
//! 1. **Send** — one task per process. The task owns its actor and its slab
//!    *row* for the round; it calls `Actor::send`, applies the transport
//!    [`FaultPlan`](crate::FaultPlan) and payload cap, counts metrics, and
//!    writes each surviving message into `row[receiver]` (a broadcast is one
//!    [`Sealed`] allocation; every slot write is a refcount bump). The batch
//!    fence ([`RunPool::run_batch`] returning) is the point at which *all*
//!    sends of the round exist.
//! 2. **Deliver** — the rows are frozen into an `Arc` slab shared by one
//!    task per process. Receiver `r` walks its in-links `1..=n` in label
//!    order, reads `slab[peer(r, l)][r]`, and hands the inbox to
//!    `Actor::deliver`. After the fence the coordinator reclaims the slab
//!    (`Arc::try_unwrap`), clears the rows and reuses them next round —
//!    steady-state allocation is per-message, never per-link.
//!
//! Determinism does not rest on scheduling: every task writes only to slots
//! owned by (or indexed by) its own process, the coordinator aggregates
//! metrics, traces and malformed sends in process-index order, and the
//! deliver walk reads links in canonical label order — the same order the
//! sim produces. Task interleaving can
//! only change *when* a slot is written within a fence, never *what* any
//! actor observes, so outcomes, metrics, traces and telemetry event streams
//! are bit-for-bit identical to [`SimBackend`](crate::SimBackend)'s at any
//! worker count.
//!
//! # Panics
//!
//! A panic inside an actor is contained per task by the pool
//! ([`opr_exec::TaskPanic`]); the run stops at the current phase fence and
//! the lowest-index panic payload is re-raised on the caller's thread, as
//! an actor panic on the simulator would be (the report of a panicked run
//! is never observable on either backend). Malformed sends are not panics:
//! they are recorded and dropped exactly as in the reference.

use crate::substrate::{ExecOptions, ExecutionReport, Job, Substrate};
use opr_exec::RunPool;
use opr_sim::{
    Actor, Inbox, Outbox, RoundMetrics, RunMetrics, Sealed, Topology, Trace, TraceEvent, WireSize,
};
use opr_types::{LinkId, MalformedKind, MalformedSend, ProcessIndex, Round};
use std::fmt::Debug;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The process-wide default worker count; see
/// [`PooledBackend::set_process_default_workers`]. `0` means "auto".
static DEFAULT_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Executes jobs as tasks on a fixed worker pool over a flat slab of inbox
/// slots, reproducing [`SimBackend`](crate::SimBackend)'s observable
/// behaviour exactly at any worker count.
#[derive(Clone, Copy, Debug, Default)]
pub struct PooledBackend {
    /// Worker threads for this backend instance; `0` defers to the process
    /// default (and ultimately to the machine's parallelism).
    workers: usize,
}

impl PooledBackend {
    /// A backend with an explicit worker count (`0` = auto, `1` = serial
    /// inline execution, `k ≥ 2` = `k` pool workers).
    pub fn new(workers: usize) -> Self {
        PooledBackend { workers }
    }

    /// Overrides the worker count used by `PooledBackend::default()` (and
    /// therefore by [`BackendKind::Pooled`](crate::BackendKind)) for the
    /// rest of the process. Intended for binaries translating a `--workers`
    /// flag once at startup. Worker counts are observationally equivalent —
    /// this changes wall-clock time, never results.
    pub fn set_process_default_workers(workers: usize) {
        DEFAULT_WORKERS.store(workers, Ordering::Relaxed);
    }

    /// The worker count this instance will actually use: its own if set,
    /// else the process default, else the machine's available parallelism
    /// (capped at 8 — round tasks are memory-bound well before that).
    pub fn effective_workers(&self) -> usize {
        let configured = if self.workers != 0 {
            self.workers
        } else {
            DEFAULT_WORKERS.load(Ordering::Relaxed)
        };
        if configured != 0 {
            return configured;
        }
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(8)
    }
}

/// One sender's slab row for a round: slot `r` holds the message this
/// process sent to process `r`, if it survived faults and the payload cap.
type Row<M> = Vec<Option<Sealed<M>>>;

/// What a send task hands back at the phase fence.
struct SendOut<M, O> {
    actor: Box<dyn Actor<Msg = M, Output = O>>,
    row: Row<M>,
    metrics: RoundMetrics,
    /// Trace events in emission order; the sender and round are fixed per
    /// task, so appending tasks in process-index order yields the global
    /// `(round, sender, seq)` order with no sort.
    trace: Vec<TraceEvent>,
    malformed: Vec<MalformedSend>,
}

/// What a deliver task hands back at the phase fence.
struct DeliverOut<M, O> {
    actor: Box<dyn Actor<Msg = M, Output = O>>,
    decided: bool,
}

impl<M, O> Substrate<M, O> for PooledBackend
where
    M: Clone + Debug + WireSize + Send + Sync + 'static,
    O: Send + 'static,
{
    fn execute(&self, job: Job<M, O>) -> ExecutionReport<O> {
        let Job {
            actors,
            correct,
            topology,
            max_rounds,
            opts:
                ExecOptions {
                    faults,
                    payload_cap,
                    trace_capacity,
                    spans,
                    metrics: registry,
                },
        } = job;
        let n = actors.len();
        assert!(n >= 1, "pooled backend needs at least one process");

        let round_hist = registry.as_ref().map(|m| {
            m.histogram(&opr_metrics::labeled(
                "opr_round_ns",
                &[("backend", "pooled")],
            ))
        });
        let pool = RunPool::new(self.effective_workers());
        let topology = Arc::new(topology);
        let faults = Arc::new(faults);
        let trace_enabled = trace_capacity.is_some();

        // Per-process state the coordinator owns between fences. Actors and
        // rows move into tasks and come back; the `Option` is the in-flight
        // marker.
        let mut actor_slots: Vec<Option<Box<dyn Actor<Msg = M, Output = O>>>> =
            actors.into_iter().map(Some).collect();
        let mut row_slots: Vec<Option<Row<M>>> = (0..n)
            .map(|_| Some((0..n).map(|_| None).collect()))
            .collect();
        let mut decided = vec![false; n];

        let mut executed: u32 = 0;
        let mut metrics = RunMetrics::new();
        let mut trace_events: Vec<TraceEvent> = Vec::new();
        let mut malformed: Vec<MalformedSend> = Vec::new();
        let correct = Arc::new(correct);

        let mut round = Round::FIRST;
        loop {
            let all_decided = correct
                .iter()
                .zip(&decided)
                .filter(|(&c, _)| c)
                .all(|(_, d)| *d);
            if all_decided || executed >= max_rounds {
                break;
            }
            let span_start =
                (spans.is_some() || round_hist.is_some()).then(std::time::Instant::now);

            // Phase A: send. One task per process; the fence is run_batch
            // returning with every row populated.
            let send_tasks: Vec<_> = (0..n)
                .map(|me| {
                    let actor = actor_slots[me]
                        .take()
                        .expect("actor at rest between fences");
                    let row = row_slots[me].take().expect("row at rest between fences");
                    let topology = Arc::clone(&topology);
                    let faults = Arc::clone(&faults);
                    let correct = Arc::clone(&correct);
                    move || {
                        send_step(
                            me,
                            actor,
                            row,
                            round,
                            &topology,
                            &faults,
                            &correct,
                            payload_cap,
                            trace_enabled,
                        )
                    }
                })
                .collect();
            let mut round_metrics = RoundMetrics::default();
            let mut panic_message: Option<String> = None;
            for (me, result) in pool.run_batch(send_tasks).into_iter().enumerate() {
                match result {
                    Ok(out) => {
                        let SendOut {
                            actor,
                            row,
                            metrics: rm,
                            trace,
                            malformed: bad,
                        } = out;
                        actor_slots[me] = Some(actor);
                        row_slots[me] = Some(row);
                        round_metrics.messages_correct += rm.messages_correct;
                        round_metrics.messages_faulty += rm.messages_faulty;
                        round_metrics.bits_correct += rm.bits_correct;
                        round_metrics.max_message_bits =
                            round_metrics.max_message_bits.max(rm.max_message_bits);
                        trace_events.extend(trace);
                        malformed.extend(bad);
                    }
                    Err(panic) => {
                        // The first (lowest-index) panic is the one the
                        // caller observes; the report of a panicked run is
                        // never returned, so nothing else needs salvaging.
                        panic_message.get_or_insert(panic.message);
                    }
                }
            }
            if let Some(msg) = panic_message {
                panic!("{msg}");
            }

            // Phase B: deliver. Rows freeze into a shared slab; one task per
            // receiver walks its in-links in canonical label order.
            let slab: Arc<Vec<Row<M>>> = Arc::new(
                row_slots
                    .iter_mut()
                    .map(|slot| slot.take().expect("every send task returned its row"))
                    .collect(),
            );
            let deliver_tasks: Vec<_> = (0..n)
                .map(|me| {
                    let actor = actor_slots[me]
                        .take()
                        .expect("actor at rest between fences");
                    let slab = Arc::clone(&slab);
                    let topology = Arc::clone(&topology);
                    move || deliver_step(me, actor, round, &slab, &topology)
                })
                .collect();
            let mut panic_message: Option<String> = None;
            for (me, result) in pool.run_batch(deliver_tasks).into_iter().enumerate() {
                match result {
                    Ok(out) => {
                        decided[me] = out.decided;
                        actor_slots[me] = Some(out.actor);
                    }
                    Err(panic) => {
                        panic_message.get_or_insert(panic.message);
                    }
                }
            }
            if let Some(msg) = panic_message {
                panic!("{msg}");
            }

            // Reclaim the slab for the next round: the deliver tasks dropped
            // their clones at the fence, so the coordinator is sole owner.
            let mut rows = Arc::try_unwrap(slab)
                .unwrap_or_else(|_| unreachable!("deliver fence released every slab handle"));
            for (slot, row) in row_slots.iter_mut().zip(rows.iter_mut()) {
                row.iter_mut().for_each(|cell| *cell = None);
                *slot = Some(std::mem::take(row));
            }

            executed = round.number();
            metrics.push_round(round_metrics);
            if let Some(start) = span_start {
                if let Some(hist) = &round_hist {
                    hist.record(start.elapsed().as_nanos() as u64);
                }
                if let Some(log) = &spans {
                    log.lock()
                        .unwrap()
                        .record_indexed("round", u64::from(round.number()), start);
                }
            }
            round = round.next();
        }

        let trace = trace_capacity.map(|capacity| {
            let mut trace = Trace::with_capacity(capacity);
            for event in trace_events {
                trace.record(event);
            }
            trace
        });

        let outputs: Vec<Option<O>> = actor_slots
            .iter()
            .map(|slot| slot.as_ref().expect("no task in flight").output())
            .collect();
        let completed = correct
            .iter()
            .zip(&decided)
            .filter(|(&c, _)| c)
            .all(|(_, d)| *d);

        ExecutionReport {
            rounds_executed: executed,
            completed,
            outputs,
            metrics,
            trace,
            malformed,
        }
    }
}

/// One process's send step: identical routing, fault, metric, trace and
/// malformed-send semantics to the reference simulator's send phase, with
/// messages landing in the slab row.
#[allow(clippy::too_many_arguments)]
fn send_step<M, O>(
    me: usize,
    mut actor: Box<dyn Actor<Msg = M, Output = O>>,
    mut row: Row<M>,
    round: Round,
    topology: &Topology,
    faults: &crate::FaultPlan,
    correct: &[bool],
    cap: Option<u64>,
    trace_enabled: bool,
) -> SendOut<M, O>
where
    M: Clone + Debug + WireSize,
{
    let n = row.len();
    let sender = ProcessIndex::new(me);
    let is_correct = correct[me];
    let mut metrics = RoundMetrics::default();
    let mut trace: Vec<TraceEvent> = Vec::new();
    let mut malformed: Vec<MalformedSend> = Vec::new();

    let outbox = actor.send(round);
    {
        let mut deliver_one = |link: LinkId, msg: Sealed<M>, malformed: &mut Vec<MalformedSend>| {
            // Cached inside the seal: computed once per payload, shared by
            // the cap check, metrics and all N slots of a broadcast.
            let bits = msg.wire_bits();
            if let Some(cap) = cap {
                if bits > cap {
                    malformed.push(MalformedSend {
                        sender,
                        round,
                        kind: MalformedKind::OversizedPayload { bits, cap },
                    });
                    return;
                }
            }
            if !faults.delivers(round, sender, link) {
                return;
            }
            let receiver = topology.peer(sender, link);
            let in_label = topology.incoming_label(receiver, sender);
            let self_loop = receiver == sender;
            if is_correct {
                if !self_loop {
                    metrics.messages_correct += 1;
                    metrics.bits_correct += bits;
                }
                metrics.max_message_bits = metrics.max_message_bits.max(bits);
            } else if !self_loop {
                metrics.messages_faulty += 1;
            }
            if trace_enabled {
                trace.push(TraceEvent {
                    round,
                    sender,
                    receiver,
                    link: in_label,
                    message: msg.rendered().to_owned(),
                });
            }
            row[receiver.index()] = Some(msg);
        };
        match outbox {
            Outbox::Silent => {}
            Outbox::Broadcast(msg) => {
                // Seal once; the slab fan-out is a refcount bump per slot,
                // not a deep copy per link.
                let sealed = Sealed::new(msg);
                for l in 1..=n {
                    deliver_one(LinkId::new(l), sealed.clone(), &mut malformed);
                }
            }
            Outbox::Multicast(entries) => {
                let mut seen = vec![false; n];
                for (link, msg) in entries {
                    if link.label() > n {
                        malformed.push(MalformedSend {
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
                        malformed.push(MalformedSend {
                            sender,
                            round,
                            kind: MalformedKind::DuplicateLink {
                                label: link.label(),
                            },
                        });
                        continue;
                    }
                    // Equivocation stays per-link owned: each entry is its
                    // own payload, sealed individually.
                    deliver_one(link, Sealed::new(msg), &mut malformed);
                }
            }
        }
    }
    SendOut {
        actor,
        row,
        metrics,
        trace,
        malformed,
    }
}

/// One process's deliver step: walk in-links in canonical label order, read
/// the slab, deliver, and report whether the actor has decided.
fn deliver_step<M, O>(
    me: usize,
    mut actor: Box<dyn Actor<Msg = M, Output = O>>,
    round: Round,
    slab: &[Row<M>],
    topology: &Topology,
) -> DeliverOut<M, O>
where
    M: Clone + Debug + WireSize,
{
    let n = slab.len();
    let receiver = ProcessIndex::new(me);
    let mut entries: Vec<(LinkId, Sealed<M>)> = Vec::new();
    // `incoming_label(r, peer(r, l)) == l` by topology construction, so the
    // process whose message arrives at `receiver` over in-label `l` is
    // exactly `peer(receiver, l)` — walking labels ascending reads the slab
    // in the canonical order every backend must present.
    for l in 1..=n {
        let link = LinkId::new(l);
        let sender = topology.peer(receiver, link);
        if let Some(msg) = &slab[sender.index()][me] {
            entries.push((link, msg.clone()));
        }
    }
    actor.deliver(round, Inbox::from_sealed(entries));
    let decided = actor.output().is_some();
    DeliverOut { actor, decided }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::substrate::BackendKind;
    use crate::FaultPlan;

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

    /// Per-link equivocator that never decides.
    struct Equivocator(usize);
    impl Actor for Equivocator {
        type Msg = Num;
        type Output = u64;
        fn send(&mut self, _round: Round) -> Outbox<Num> {
            Outbox::Multicast(
                (1..=self.0)
                    .map(|l| (LinkId::new(l), Num(1000 * l as u64)))
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
                }) as _
            })
            .collect()
    }

    fn traced(capacity: usize) -> ExecOptions {
        ExecOptions {
            trace_capacity: Some(capacity),
            ..ExecOptions::default()
        }
    }

    fn capped(cap: u64) -> ExecOptions {
        ExecOptions {
            payload_cap: Some(cap),
            ..ExecOptions::default()
        }
    }

    fn assert_reports_match(sim: &ExecutionReport<u64>, pooled: &ExecutionReport<u64>) {
        assert_eq!(sim.outputs, pooled.outputs);
        assert_eq!(sim.metrics, pooled.metrics);
        assert_eq!(sim.rounds_executed, pooled.rounds_executed);
        assert_eq!(sim.completed, pooled.completed);
        assert_eq!(sim.malformed, pooled.malformed);
    }

    #[test]
    fn matches_reference_backend_on_clean_runs() {
        for seed in 0..5u64 {
            let job = |_| Job::new(summers(&[3, 1, 4, 1, 5, 9]), Topology::seeded(6, seed), 4);
            let sim = BackendKind::Sim.execute(job(()));
            let pooled = BackendKind::Pooled.execute(job(()));
            assert_reports_match(&sim, &pooled);
            assert!(pooled.completed, "seed {seed}");
        }
    }

    #[test]
    fn matches_reference_backend_with_equivocator_and_faults() {
        let build = |_| {
            let mut actors = summers(&[10, 20, 30, 40]);
            actors.push(Box::new(Equivocator(5)));
            let correct = vec![true, true, true, true, false];
            Job::with_faulty(actors, correct, Topology::seeded(5, 42), 6).opts(ExecOptions {
                faults: FaultPlan::new()
                    .drop_message(0, LinkId::new(2), Round::new(1))
                    .silence_link_from(4, LinkId::new(1), Round::new(1)),
                ..ExecOptions::default()
            })
        };
        let sim = BackendKind::Sim.execute(build(()));
        let pooled = BackendKind::Pooled.execute(build(()));
        assert_reports_match(&sim, &pooled);
    }

    #[test]
    fn traces_are_identical_to_the_reference() {
        let job = |_| Job::new(summers(&[7, 8, 9]), Topology::seeded(3, 11), 2).opts(traced(1000));
        let sim = BackendKind::Sim.execute(job(()));
        let pooled = BackendKind::Pooled.execute(job(()));
        let (st, pt) = (sim.trace.unwrap(), pooled.trace.unwrap());
        assert_eq!(st.events(), pt.events());
        assert_eq!(st.dropped(), pt.dropped());
    }

    #[test]
    fn bit_identical_across_worker_counts() {
        for workers in [1, 2, 4] {
            let job = |_| {
                let mut actors = summers(&[10, 20, 30, 40]);
                actors.push(Box::new(Equivocator(5)));
                let correct = vec![true, true, true, true, false];
                Job::with_faulty(actors, correct, Topology::seeded(5, 9), 6).opts(traced(500))
            };
            let serial = PooledBackend::new(1).execute(job(()));
            let parallel = PooledBackend::new(workers).execute(job(()));
            assert_eq!(serial.outputs, parallel.outputs, "workers={workers}");
            assert_eq!(serial.metrics, parallel.metrics, "workers={workers}");
            assert_eq!(
                serial.trace.as_ref().unwrap().events(),
                parallel.trace.as_ref().unwrap().events(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn respects_round_budget_without_deciders() {
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
        let actors: Vec<Box<dyn Actor<Msg = Num, Output = u64>>> =
            vec![Box::new(Never), Box::new(Never)];
        let report = PooledBackend::new(2).execute(Job::new(actors, Topology::canonical(2), 3));
        assert!(!report.completed);
        assert_eq!(report.rounds_executed, 3);
        assert_eq!(report.metrics.rounds_executed(), 3);
    }

    #[test]
    #[should_panic(expected = "deliberate actor failure")]
    fn actor_panics_propagate_to_the_caller() {
        struct Bomb;
        impl Actor for Bomb {
            type Msg = Num;
            type Output = u64;
            fn send(&mut self, _round: Round) -> Outbox<Num> {
                panic!("deliberate actor failure");
            }
            fn deliver(&mut self, _round: Round, _inbox: Inbox<Num>) {}
            fn output(&self) -> Option<u64> {
                None
            }
        }
        let actors: Vec<Box<dyn Actor<Msg = Num, Output = u64>>> = vec![
            Box::new(Bomb),
            Box::new(Summer {
                value: 0,
                sum: None,
            }),
        ];
        let _ = PooledBackend::new(2).execute(Job::new(actors, Topology::canonical(2), 3));
    }

    #[test]
    #[should_panic(expected = "deliver-phase failure")]
    fn deliver_panics_propagate_too() {
        struct LateBomb;
        impl Actor for LateBomb {
            type Msg = Num;
            type Output = u64;
            fn send(&mut self, _round: Round) -> Outbox<Num> {
                Outbox::Silent
            }
            fn deliver(&mut self, _round: Round, _inbox: Inbox<Num>) {
                panic!("deliver-phase failure");
            }
            fn output(&self) -> Option<u64> {
                None
            }
        }
        let actors: Vec<Box<dyn Actor<Msg = Num, Output = u64>>> =
            vec![Box::new(LateBomb), Box::new(LateBomb)];
        let _ = PooledBackend::new(1).execute(Job::new(actors, Topology::canonical(2), 3));
    }

    #[test]
    fn malformed_sends_match_reference_backend_exactly() {
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
        let build = |_| {
            let mut actors = summers(&[10, 20, 30]);
            actors.push(Box::new(Sloppy));
            let correct = vec![true, true, true, false];
            Job::with_faulty(actors, correct, Topology::seeded(4, 7), 3).opts(capped(64))
        };
        let sim = BackendKind::Sim.execute(build(()));
        let pooled = BackendKind::Pooled.execute(build(()));
        assert!(!sim.malformed.is_empty());
        assert_reports_match(&sim, &pooled);
    }

    #[test]
    fn payload_cap_matches_reference_backend() {
        let build = |_| Job::new(summers(&[1, 2]), Topology::canonical(2), 2).opts(capped(32));
        let sim = BackendKind::Sim.execute(build(()));
        let pooled = BackendKind::Pooled.execute(build(()));
        assert_eq!(sim.malformed.len(), 4);
        assert_reports_match(&sim, &pooled);
    }

    #[test]
    fn single_process_self_loop_works() {
        let job = |_| Job::new(summers(&[5]), Topology::canonical(1), 2);
        let sim = BackendKind::Sim.execute(job(()));
        let pooled = BackendKind::Pooled.execute(job(()));
        assert_reports_match(&sim, &pooled);
        assert_eq!(pooled.outputs, vec![Some(5)]);
    }

    #[test]
    fn explicit_worker_counts_override_the_process_default() {
        assert_eq!(PooledBackend::new(3).effective_workers(), 3);
        assert!(PooledBackend::default().effective_workers() >= 1);
    }
}
