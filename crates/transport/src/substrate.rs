//! The substrate contract: what it means to execute a lock-step job.

use crate::faults::FaultPlan;
use crate::{PooledBackend, SimBackend};
use opr_metrics::MetricsRegistry;
use opr_obs::SharedSpanLog;
use opr_sim::{Actor, Network, RunMetrics, RunReport, Topology, Trace, WireSize};
use opr_types::MalformedSend;
use std::fmt;
use std::fmt::Debug;

/// Everything a [`Job`] carries besides its actors, mask, topology and
/// round budget — the run surface's one declaration of the transport-level
/// knobs. The runner and workload layers embed this value and hand it down
/// whole; `run_job` destructures it once, for both backends.
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
    /// When attached, backends record one wall-clock span per round here.
    /// Wall timings are *not* part of the deterministic contract — they
    /// never appear in [`ExecutionReport`] equality checks.
    pub spans: Option<SharedSpanLog>,
    /// When attached, backends record per-round wall-clock timing
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
    pub fn with_faulty(
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

    /// Replaces the job's [`ExecOptions`].
    pub fn opts(mut self, opts: ExecOptions) -> Self {
        self.opts = opts;
        self
    }
}

/// Everything observable from one execution, identical across backends for
/// the same [`Job`].
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
    /// oversized payloads), in `(round, sender, occurrence)` order — the
    /// same order on every backend.
    pub malformed: Vec<MalformedSend>,
}

/// A lock-step execution substrate: consumes a [`Job`], runs it round by
/// round (all sends, routing, then all deliveries, in lock-step), and
/// reports what happened.
///
/// Implementations must be *observationally deterministic*: for a fixed job
/// (same actors, topology, budget, faults), the report — outcomes, rounds,
/// metrics, trace — must not depend on scheduling. Both backends here step
/// the same [`opr_sim::Network`], so that holds by construction; the
/// cross-backend equivalence tests keep holding [`PooledBackend`] to
/// `SimBackend`'s report all the same, because actors share per-run state
/// the engine cannot see.
pub trait Substrate<M, O> {
    /// Executes the job to completion or round-budget exhaustion.
    fn execute(&self, job: Job<M, O>) -> ExecutionReport<O>;
}

/// The one way a [`Job`] becomes an [`ExecutionReport`]: builds its
/// [`opr_sim::Network`], runs it with `run` — a backend's
/// [`run_network`] — and moves what the network accumulated into the
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
/// `step` — the backend's schedule for one round — until termination or
/// budget, and times each round when a span log or registry is attached.
/// Backends differ only in the `step` they pass; what the run accumulated
/// stays in the network.
pub(crate) fn run_network<M, O, A>(
    net: &mut Network<M, O, A>,
    opts: ExecOptions,
    max_rounds: u32,
    kind: BackendKind,
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
    let round_hist = metrics.map(|m| {
        m.histogram(&opr_metrics::labeled(
            "opr_round_ns",
            &[("backend", kind.label())],
        ))
    });
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

/// Backend selection, e.g. from a `--backend` CLI flag.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Single-threaded deterministic simulator (the reference).
    Sim,
    /// The same round engine with its per-process phases on scoped worker
    /// threads — the real-threads equivalence witness and the large-N soak
    /// engine, not a speed path (DESIGN.md §2).
    Pooled,
}

/// The process-wide default backend; see [`BackendKind::set_process_default`].
static PROCESS_DEFAULT: std::sync::atomic::AtomicU8 = std::sync::atomic::AtomicU8::new(0);

impl Default for BackendKind {
    /// The process default: [`BackendKind::Sim`] unless a binary overrode it
    /// via [`BackendKind::set_process_default`] (e.g. a `--backend` flag).
    fn default() -> Self {
        BackendKind::from_tag(PROCESS_DEFAULT.load(std::sync::atomic::Ordering::Relaxed))
    }
}

impl BackendKind {
    /// Every backend, reference first.
    pub const ALL: [BackendKind; 2] = [BackendKind::Sim, BackendKind::Pooled];

    /// The stable atomic discriminant used by the process-default cell. The
    /// exhaustive match is the point: adding a variant without assigning it
    /// a distinct tag is a compile error, not a silent alias of `Sim`.
    const fn tag(self) -> u8 {
        match self {
            BackendKind::Sim => 0,
            BackendKind::Pooled => 1,
        }
    }

    /// Inverse of [`BackendKind::tag`]; unknown tags fall back to the
    /// reference backend (the cell starts at `Sim`'s tag anyway).
    fn from_tag(tag: u8) -> BackendKind {
        BackendKind::ALL
            .into_iter()
            .find(|kind| kind.tag() == tag)
            .unwrap_or(BackendKind::Sim)
    }

    /// Overrides what `BackendKind::default()` returns for the rest of the
    /// process. Intended for binaries translating a `--backend` flag once at
    /// startup, so every run that doesn't pick a backend explicitly (the
    /// experiment tables, default options) executes on the chosen substrate.
    /// Backends are observationally equivalent, so this changes how runs
    /// execute, never what they produce.
    pub fn set_process_default(kind: BackendKind) {
        PROCESS_DEFAULT.store(kind.tag(), std::sync::atomic::Ordering::Relaxed);
    }

    /// Stable label (accepted by [`BackendKind::parse`]).
    pub fn label(&self) -> &'static str {
        match self {
            BackendKind::Sim => "sim",
            BackendKind::Pooled => "pooled",
        }
    }

    /// Parses a label as produced by [`BackendKind::label`].
    pub fn parse(s: &str) -> Option<BackendKind> {
        BackendKind::ALL.into_iter().find(|b| b.label() == s)
    }

    /// Executes `job` on the selected backend.
    pub fn execute<M, O>(&self, job: Job<M, O>) -> ExecutionReport<O>
    where
        M: Clone + Debug + WireSize + Send + Sync + 'static,
        O: Send + 'static,
    {
        match self {
            BackendKind::Sim => SimBackend.execute(job),
            BackendKind::Pooled => PooledBackend::default().execute(job),
        }
    }

    /// Runs a network the caller built — or
    /// [`rewound`](opr_sim::Network::rewind) — for up to `max_rounds`
    /// rounds on the selected backend, with `opts` applied as
    /// [`execute`](BackendKind::execute) applies a job's. What the run
    /// accumulated (outputs, metrics, trace, malformed sends) stays in the
    /// network, for the caller to read or move out.
    pub fn run<M, O, A>(
        &self,
        net: &mut Network<M, O, A>,
        opts: ExecOptions,
        max_rounds: u32,
    ) -> RunReport
    where
        M: Clone + Debug + WireSize + Send + Sync,
        A: Actor<Msg = M, Output = O>,
    {
        match self {
            BackendKind::Sim => SimBackend.run(net, opts, max_rounds),
            BackendKind::Pooled => PooledBackend::default().run(net, opts, max_rounds),
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(BackendKind::parse("fpga"), None);
        // Retired labels are rejected, not aliased.
        assert_eq!(BackendKind::parse("threaded"), None);
        assert_eq!(BackendKind::parse("auto"), None);
    }

    #[test]
    fn tags_are_distinct_and_round_trip() {
        let mut seen = std::collections::BTreeSet::new();
        for kind in BackendKind::ALL {
            assert!(seen.insert(kind.tag()), "{kind}: tag collision");
            assert_eq!(BackendKind::from_tag(kind.tag()), kind);
        }
        assert_eq!(BackendKind::from_tag(200), BackendKind::Sim);
    }

    /// One test covers both the initial default and the override round-trip:
    /// they share the process-wide cell, so probing them in sequence (and
    /// restoring `Sim`) avoids a race between parallel `#[test]`s.
    #[test]
    fn default_is_the_reference_backend_and_overrides_round_trip() {
        assert_eq!(BackendKind::default(), BackendKind::Sim);
        for kind in BackendKind::ALL {
            BackendKind::set_process_default(kind);
            assert_eq!(BackendKind::default(), kind);
        }
        BackendKind::set_process_default(BackendKind::Sim);
        assert_eq!(BackendKind::default(), BackendKind::Sim);
    }
}
