//! The real-threads schedule of the round engine, kept for one caller.
//!
//! `PooledBackend` steps the same [`opr_sim::Network`] as [`run`](crate::run),
//! with [`Network::step_on`](opr_sim::Network::step_on): each round's send
//! and deliver phases run on contiguous blocks of processes on at most
//! `workers` scoped threads (the caller's included, whatever N is); routing,
//! the only phase that touches shared state, stays serial. Nothing about a
//! round is defined here, so outcomes, metrics, traces and malformed sends
//! equal the calling-thread schedule's at any worker count by construction;
//! an actor panic is re-raised on the caller's thread with its own payload.
//!
//! No run, campaign, table or service epoch can select this schedule. It
//! stays, with its own tests, for `benchmark/`'s transport probe until that
//! package depends on the `opr` facade alone.

use crate::substrate::{run_job, run_network, ExecutionReport, Job, Substrate};
use opr_sim::WireSize;
use std::fmt::Debug;

/// Executes jobs with the per-process phases of every round on worker
/// threads, reproducing [`run`](crate::run)'s observable behaviour exactly
/// at any worker count. Selects nothing: it is kept for `benchmark/`.
#[derive(Clone, Copy, Debug)]
pub struct PooledBackend {
    /// Worker threads per phase; `0` defers to the machine's parallelism.
    workers: usize,
}

impl PooledBackend {
    /// A backend with an explicit worker count (`0` = auto, `1` = serial
    /// inline execution, `k ≥ 2` = at most `k` threads per phase).
    pub fn new(workers: usize) -> Self {
        PooledBackend { workers }
    }

    /// The worker count this instance will actually use: its own if set,
    /// else the machine's available parallelism (capped at 8 — round
    /// phases are memory-bound well before that).
    fn effective_workers(&self) -> usize {
        if self.workers != 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(8)
    }
}

impl<M, O> Substrate<M, O> for PooledBackend
where
    M: Clone + Debug + WireSize + Send + Sync,
{
    fn execute(&self, job: Job<M, O>) -> ExecutionReport<O> {
        let workers = self.effective_workers();
        run_job(job, |net, opts, max_rounds| {
            run_network(net, opts, max_rounds, "pooled", |net| net.step_on(workers))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BackendKind, ExecOptions, FaultPlan};
    use opr_sim::{Actor, Inbox, Outbox, Topology};
    use opr_types::{LinkId, Round};

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

    fn traced(job: Job<Num, u64>, capacity: usize) -> Job<Num, u64> {
        Job {
            opts: ExecOptions {
                trace_capacity: Some(capacity),
                ..ExecOptions::default()
            },
            ..job
        }
    }

    fn capped(job: Job<Num, u64>, cap: u64) -> Job<Num, u64> {
        Job {
            opts: ExecOptions {
                payload_cap: Some(cap),
                ..ExecOptions::default()
            },
            ..job
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
            let pooled = PooledBackend::new(2).execute(job(()));
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
            Job {
                opts: ExecOptions {
                    faults: FaultPlan::default()
                        .drop_message(0, LinkId::new(2), Round::new(1))
                        .silence_link_from(4, LinkId::new(1), Round::new(1)),
                    ..ExecOptions::default()
                },
                ..Job::with_faulty(actors, correct, Topology::seeded(5, 42), 6)
            }
        };
        let sim = BackendKind::Sim.execute(build(()));
        let pooled = PooledBackend::new(2).execute(build(()));
        assert_reports_match(&sim, &pooled);
    }

    #[test]
    fn traces_are_identical_to_the_reference() {
        let job = |_| {
            traced(
                Job::new(summers(&[7, 8, 9]), Topology::seeded(3, 11), 2),
                1000,
            )
        };
        let sim = BackendKind::Sim.execute(job(()));
        let pooled = PooledBackend::new(2).execute(job(()));
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
                traced(
                    Job::with_faulty(actors, correct, Topology::seeded(5, 9), 6),
                    500,
                )
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
            capped(
                Job::with_faulty(actors, correct, Topology::seeded(4, 7), 3),
                64,
            )
        };
        let sim = BackendKind::Sim.execute(build(()));
        let pooled = PooledBackend::new(2).execute(build(()));
        assert!(!sim.malformed.is_empty());
        assert_reports_match(&sim, &pooled);
    }

    #[test]
    fn payload_cap_matches_reference_backend() {
        let build = |_| capped(Job::new(summers(&[1, 2]), Topology::canonical(2), 2), 32);
        let sim = BackendKind::Sim.execute(build(()));
        let pooled = PooledBackend::new(2).execute(build(()));
        assert_eq!(sim.malformed.len(), 4);
        assert_reports_match(&sim, &pooled);
    }

    #[test]
    fn single_process_self_loop_works() {
        let job = |_| Job::new(summers(&[5]), Topology::canonical(1), 2);
        let sim = BackendKind::Sim.execute(job(()));
        let pooled = PooledBackend::new(2).execute(job(()));
        assert_reports_match(&sim, &pooled);
        assert_eq!(pooled.outputs, vec![Some(5)]);
    }

    #[test]
    fn actors_run_on_more_than_one_thread_and_at_most_workers_per_phase() {
        use std::collections::{HashMap, HashSet};
        use std::sync::{Arc, Mutex};
        use std::thread::{self, ThreadId};

        /// The threads that ran actor code, per `(round, is_deliver)` phase.
        type Seen = Arc<Mutex<HashMap<(u32, bool), HashSet<ThreadId>>>>;
        struct Witness(Seen);
        impl Witness {
            fn note(&self, round: Round, is_deliver: bool) {
                let mut seen = self.0.lock().unwrap();
                let phase = seen.entry((round.number(), is_deliver)).or_default();
                phase.insert(thread::current().id());
            }
        }
        impl Actor for Witness {
            type Msg = Num;
            type Output = u64;
            fn send(&mut self, round: Round) -> Outbox<Num> {
                self.note(round, false);
                Outbox::Silent
            }
            fn deliver(&mut self, round: Round, _inbox: Inbox<Num>) {
                self.note(round, true);
            }
            fn output(&self) -> Option<u64> {
                None
            }
        }
        for (n, workers) in [(2, 2), (7, 2), (7, 3), (3, 8)] {
            let seen = Seen::default();
            let actors = (0..n).map(|_| Box::new(Witness(seen.clone())) as _);
            let job = Job::new(actors.collect(), Topology::canonical(n), 3);
            PooledBackend::new(workers).execute(job);
            let seen = seen.lock().unwrap();
            assert_eq!(seen.len(), 3 * 2, "three rounds of two phases");
            for (phase, threads) in seen.iter() {
                assert!(
                    (2..=workers.min(n)).contains(&threads.len()),
                    "n={n} workers={workers} phase={phase:?}: {threads:?}"
                );
            }
        }
    }

    #[test]
    fn explicit_worker_counts_override_the_machine_default() {
        assert_eq!(PooledBackend::new(3).effective_workers(), 3);
        assert!(PooledBackend::new(0).effective_workers() >= 1);
    }
}
