//! The substrate contract: what it means to execute a lock-step job.

use crate::faults::FaultPlan;
use opr_metrics::MetricsRegistry;
use opr_obs::SharedSpanLog;
use opr_sim::{Actor, Network, RunMetrics, RunReport, Topology, Trace, WireSize};
use opr_types::MalformedSend;
use std::fmt::Debug;

/// Everything a [`Job`] carries besides its actors, mask, topology and
/// round budget — the run surface's one declaration of the transport-level
/// knobs. The runner and workload layers embed this value and hand it down
/// whole; `run_network` destructures it once.
#[derive(Clone, Debug, Default)]
pub struct ExecOptions {
    /// Transport-level faults applied below the actors (drops and
    /// delay-to-silence schedules on chosen links).
    pub faults: FaultPlan,
    /// When `Some(cap)`, sends wider than `cap` bits are rejected and
    /// recorded as [`MalformedSend`]s instead of delivered.
    pub payload_cap: Option<u64>,
    /// When `Some(cap)`, record the first `cap` delivery events into
    /// [`ExecutionReport::trace`].
    pub trace_capacity: Option<usize>,
    /// When attached, the run records one wall-clock span per round here.
    /// Wall timings are *not* part of the deterministic contract — they
    /// never appear in [`ExecutionReport`] equality checks.
    pub spans: Option<SharedSpanLog>,
    /// When attached, the run records per-round wall-clock timing
    /// histograms (`opr_round_ns{backend=...}`) here. Like spans, these
    /// never enter [`ExecutionReport`] equality.
    pub metrics: Option<MetricsRegistry>,
}

/// A complete lock-step execution: actors, their correctness mask, the
/// topology routing them, a round budget, and the [`ExecOptions`].
/// Consumed by [`Substrate::execute`].
pub struct Job<M, O> {
    /// One actor per process, in topology index order.
    pub actors: Vec<Box<dyn Actor<Msg = M, Output = O>>>,
    /// `correct[i]` — whether actor `i` counts toward termination detection
    /// and the `correct` metrics. Faulty actors still execute fully.
    pub correct: Vec<bool>,
    /// The full-mesh topology with per-process link labelling.
    pub topology: Topology,
    /// Maximum number of rounds to execute.
    pub max_rounds: u32,
    /// Transport faults, payload cap, tracing and wall-plane attachments.
    pub opts: ExecOptions,
}

impl<M, O> Job<M, O> {
    /// A job in which every actor is correct, with default [`ExecOptions`]
    /// (no transport faults, no tracing, nothing attached).
    ///
    /// # Panics
    ///
    /// Panics if the actor count differs from the topology size.
    pub fn new(
        actors: Vec<Box<dyn Actor<Msg = M, Output = O>>>,
        topology: Topology,
        max_rounds: u32,
    ) -> Self {
        let correct = vec![true; actors.len()];
        Job::with_faulty(actors, correct, topology, max_rounds)
    }

    /// A job with an explicit correctness mask.
    ///
    /// # Panics
    ///
    /// Panics if lengths are inconsistent with the topology.
    pub(crate) fn with_faulty(
        actors: Vec<Box<dyn Actor<Msg = M, Output = O>>>,
        correct: Vec<bool>,
        topology: Topology,
        max_rounds: u32,
    ) -> Self {
        assert_eq!(
            actors.len(),
            topology.n(),
            "actor count must match topology"
        );
        assert_eq!(actors.len(), correct.len(), "mask must cover every actor");
        Job {
            actors,
            correct,
            topology,
            max_rounds,
            opts: ExecOptions::default(),
        }
    }
}

/// Everything observable from one execution, a pure function of the
/// [`Job`].
#[derive(Clone, Debug)]
pub struct ExecutionReport<O> {
    /// Rounds actually executed.
    pub rounds_executed: u32,
    /// Whether every correct actor produced an output within the budget.
    pub completed: bool,
    /// Final outputs of all actors (faulty included), in index order.
    pub outputs: Vec<Option<O>>,
    /// Per-round message/bit counters.
    pub metrics: RunMetrics,
    /// The delivery trace, if the job requested one.
    pub trace: Option<Trace>,
    /// Sends the transport rejected (out-of-range or duplicate link labels,
    /// oversized payloads), in `(round, sender, occurrence)` order.
    pub malformed: Vec<MalformedSend>,
}

/// A lock-step execution substrate: consumes a [`Job`], runs it round by
/// round (all sends, routing, then all deliveries, in lock-step), and
/// reports what happened. Its one implementation is [`PooledBackend`],
/// kept for `benchmark/`'s transport probe; no run selects it.
///
/// [`PooledBackend`]: crate::PooledBackend
pub trait Substrate<M, O> {
    /// Executes the job to completion or round-budget exhaustion.
    fn execute(&self, job: Job<M, O>) -> ExecutionReport<O>;
}

/// The one way a [`Job`] becomes an [`ExecutionReport`]: builds its
/// [`opr_sim::Network`], runs it with `run` — [`run`](crate::run) or the
/// pooled schedule — and moves what the network accumulated into the
/// report.
pub(crate) fn run_job<M, O>(
    job: Job<M, O>,
    run: impl FnOnce(&mut Network<M, O>, ExecOptions, u32) -> RunReport,
) -> ExecutionReport<O>
where
    M: Clone + Debug + WireSize + Sync,
{
    let mut net = Network::with_faults(job.actors, job.correct, job.topology);
    let report = run(&mut net, job.opts, job.max_rounds);
    let outputs = net.outputs();
    let (metrics, trace, malformed) = net.take_artifacts();
    ExecutionReport {
        rounds_executed: report.rounds_executed,
        completed: report.completed,
        outputs,
        metrics,
        trace,
        malformed,
    }
}

/// The one way a network runs: applies the [`ExecOptions`] to it, runs
/// `step` — one round — until termination or budget, and times each round
/// into `opr_round_ns{backend=label}` when a registry is attached (and the
/// span log when one is). What the run accumulated stays in the network.
pub(crate) fn run_network<M, O, A>(
    net: &mut Network<M, O, A>,
    opts: ExecOptions,
    max_rounds: u32,
    label: &'static str,
    mut step: impl FnMut(&mut Network<M, O, A>),
) -> RunReport
where
    M: Clone + Debug + WireSize + Sync,
    A: Actor<Msg = M, Output = O>,
{
    let ExecOptions {
        faults,
        payload_cap,
        trace_capacity,
        spans,
        metrics,
    } = opts;
    if let Some(capacity) = trace_capacity {
        net.enable_trace(capacity);
    }
    net.set_payload_cap(payload_cap);
    if !faults.is_empty() {
        net.set_delivery_filter(Box::new(move |round, sender, link| {
            faults.delivers(round, sender, link)
        }));
    }
    let round_hist =
        metrics.map(|m| m.histogram(&opr_metrics::labeled("opr_round_ns", &[("backend", label)])));
    let timed = spans.is_some() || round_hist.is_some();
    net.run_with(max_rounds, |net| {
        let start = timed.then(std::time::Instant::now);
        step(net);
        if let Some(start) = start {
            if let Some(hist) = &round_hist {
                hist.record(start.elapsed().as_nanos() as u64);
            }
            if let Some(log) = &spans {
                let round = u64::from(net.metrics().rounds_executed());
                log.lock().unwrap().record_indexed("round", round, start);
            }
        }
    })
}

/// Runs a network the caller built — or
/// [`rewound`](opr_sim::Network::rewind) — for up to `max_rounds` rounds
/// with [`Network::step`] on the calling thread, the one schedule every run
/// uses, with `opts` applied as [`BackendKind::execute`] applies a job's.
/// What the run accumulated (outputs, metrics, trace, malformed sends)
/// stays in the network, for the caller to read or move out.
pub fn run<M, O, A>(net: &mut Network<M, O, A>, opts: ExecOptions, max_rounds: u32) -> RunReport
where
    M: Clone + Debug + WireSize + Sync,
    A: Actor<Msg = M, Output = O>,
{
    run_network(net, opts, max_rounds, "sim", Network::step)
}

/// The schedule a [`Job`] runs on. It has one variant and selects nothing:
/// it is kept, with [`BackendKind::execute`], for `benchmark/` until that
/// package depends on the `opr` facade alone.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// [`opr_sim::Network`] stepped on the calling thread.
    #[default]
    Sim,
}

impl BackendKind {
    /// Executes `job` with [`run`].
    pub fn execute<M, O>(&self, job: Job<M, O>) -> ExecutionReport<O>
    where
        M: Clone + Debug + WireSize + Sync,
    {
        run_job(job, run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opr_sim::{Inbox, Outbox};
    use opr_types::{LinkId, Round};

    #[derive(Clone, Debug)]
    struct Num(#[allow(dead_code)] u64);
    impl WireSize for Num {
        fn wire_bits(&self) -> u64 {
            64
        }
    }

    struct Counter {
        seen: u64,
        done: Option<u64>,
    }
    impl Actor for Counter {
        type Msg = Num;
        type Output = u64;
        fn send(&mut self, _round: Round) -> Outbox<Num> {
            Outbox::Broadcast(Num(1))
        }
        fn deliver(&mut self, round: Round, inbox: Inbox<Num>) {
            self.seen += inbox.len() as u64;
            if round.number() == 2 {
                self.done = Some(self.seen);
            }
        }
        fn output(&self) -> Option<u64> {
            self.done
        }
    }

    fn counters(n: usize) -> Vec<Box<dyn Actor<Msg = Num, Output = u64>>> {
        (0..n)
            .map(|_| {
                Box::new(Counter {
                    seen: 0,
                    done: None,
                }) as _
            })
            .collect()
    }

    #[test]
    fn runs_to_completion_and_reports() {
        let report = BackendKind::Sim.execute(Job::new(counters(3), Topology::canonical(3), 5));
        assert!(report.completed);
        assert_eq!(report.rounds_executed, 2);
        // Every actor saw 3 messages per round (2 peers + self-loop).
        assert_eq!(report.outputs, vec![Some(6), Some(6), Some(6)]);
        assert_eq!(report.metrics.messages_correct(), 2 * 3 * 2);
    }

    #[test]
    fn fault_plan_removes_deliveries_and_metrics() {
        let clean = BackendKind::Sim.execute(Job::new(counters(3), Topology::canonical(3), 5));
        let faulty = BackendKind::Sim.execute(Job {
            opts: ExecOptions {
                faults: FaultPlan::default().drop_message(0, LinkId::new(1), Round::new(1)),
                ..ExecOptions::default()
            },
            ..Job::new(counters(3), Topology::canonical(3), 5)
        });
        assert_eq!(
            faulty.metrics.messages_correct(),
            clean.metrics.messages_correct() - 1
        );
        // Process 0's link 1 in the canonical topology points at process 1,
        // which therefore saw one message fewer.
        assert_eq!(faulty.outputs[1], Some(5));
        assert_eq!(faulty.outputs[2], Some(6));
    }

    #[test]
    fn trace_capacity_is_honoured() {
        let report = BackendKind::Sim.execute(Job {
            opts: ExecOptions {
                trace_capacity: Some(3),
                ..ExecOptions::default()
            },
            ..Job::new(counters(2), Topology::canonical(2), 5)
        });
        let trace = report.trace.expect("trace requested");
        assert_eq!(trace.events().len(), 3);
        assert!(trace.dropped() > 0);
    }
}
