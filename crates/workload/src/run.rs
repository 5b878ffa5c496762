//! Uniform run interface over the paper's algorithms and all baselines.

use opr_adversary::AdversarySpec;
use opr_baselines::{ChtRenaming, ConsensusRenaming, CrashAaRenaming, TranslatedRenaming};
use opr_core::probe::{ProcessProbe, TwoStepProcessProbe};
use opr_core::{run_alg1_in, run_two_step_in, Alg1Options, ObservedRun, Probes, RunArena};
use opr_core::{Alg1Probe, TwoStepProbe, TwoStepTweaks};
use opr_metrics::{labeled, MetricsRegistry, MetricsSnapshot};
use opr_obs::{ProtocolEvent, RunLog, SharedSpanLog};
use opr_sim::{Actor, Inbox, Network, Outbox, RunMetrics, Topology, Trace, WireSize};
use opr_transport::{BackendKind, ExecOptions, FaultPlan};
use opr_types::{
    DegradedOutcome, MalformedSend, NewName, OriginalId, Regime, RenamingError, RenamingOutcome,
    Round, SystemConfig,
};
use std::fmt;
use std::fmt::Debug;

/// Every runnable renaming implementation in the workspace.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Algorithm {
    /// Algorithm 1, logarithmic voting schedule (`N > 3t`).
    Alg1LogTime,
    /// Algorithm 1, 4 voting steps (`N > t² + 2t`, strong renaming).
    Alg1ConstantTime,
    /// Algorithm 4 (`N > 2t² + t`, 2 steps).
    TwoStep,
    /// B1: crash-tolerant AA renaming (crash model).
    CrashAa,
    /// B2: consensus-based renaming (`N ≥ 4t + 2`, granted numbering).
    Consensus,
    /// B3: CHT interval-splitting renaming (crash model).
    Cht,
    /// B4: echo-translated Byzantine renaming.
    Translated,
}

impl Algorithm {
    /// All implementations, paper first.
    pub const ALL: [Algorithm; 7] = [
        Algorithm::Alg1LogTime,
        Algorithm::Alg1ConstantTime,
        Algorithm::TwoStep,
        Algorithm::CrashAa,
        Algorithm::Consensus,
        Algorithm::Cht,
        Algorithm::Translated,
    ];

    /// A short stable label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            Algorithm::Alg1LogTime => "alg1-log",
            Algorithm::Alg1ConstantTime => "alg1-const",
            Algorithm::TwoStep => "alg4-2step",
            Algorithm::CrashAa => "b1-crash-aa",
            Algorithm::Consensus => "b2-consensus",
            Algorithm::Cht => "b3-cht",
            Algorithm::Translated => "b4-translated",
        }
    }

    /// Parses an [`Algorithm::label`].
    pub fn parse(label: &str) -> Option<Algorithm> {
        Algorithm::ALL.into_iter().find(|a| a.label() == label)
    }

    /// The smallest `N` this implementation supports for a given `t`.
    pub fn minimal_n(&self, t: usize) -> usize {
        match self {
            Algorithm::Alg1LogTime => SystemConfig::minimal_n(t, Regime::LogTime),
            Algorithm::Alg1ConstantTime => SystemConfig::minimal_n(t, Regime::ConstantTime),
            Algorithm::TwoStep => SystemConfig::minimal_n(t, Regime::TwoStep),
            Algorithm::CrashAa | Algorithm::Cht => (3 * t + 1).max(2),
            Algorithm::Consensus => 4 * t + 2,
            Algorithm::Translated => 3 * t + 1,
        }
    }

    /// The target namespace bound `M` this implementation guarantees.
    pub fn namespace_bound(&self, cfg: SystemConfig) -> u64 {
        let (n, t) = (cfg.n() as u64, cfg.t() as u64);
        match self {
            Algorithm::Alg1LogTime => cfg.namespace_bound(Regime::LogTime),
            Algorithm::Alg1ConstantTime => cfg.namespace_bound(Regime::ConstantTime),
            Algorithm::TwoStep => cfg.namespace_bound(Regime::TwoStep),
            // B1: names are rounded rank/2 over at most N visible ids.
            Algorithm::CrashAa => n,
            Algorithm::Consensus => n + t.saturating_sub(1),
            Algorithm::Cht => n,
            Algorithm::Translated => 2 * n,
        }
    }

    /// The exact number of communication steps this implementation takes.
    pub(crate) fn rounds(&self, cfg: SystemConfig) -> u32 {
        match self {
            Algorithm::Alg1LogTime => cfg.total_steps(Regime::LogTime),
            Algorithm::Alg1ConstantTime => cfg.total_steps(Regime::ConstantTime),
            Algorithm::TwoStep => cfg.total_steps(Regime::TwoStep),
            Algorithm::CrashAa => CrashAaRenaming::total_rounds(cfg.t()),
            Algorithm::Consensus => ConsensusRenaming::total_rounds(cfg.t()),
            Algorithm::Cht => ChtRenaming::total_rounds(cfg.n()),
            Algorithm::Translated => TranslatedRenaming::total_rounds(cfg.n()),
        }
    }

    /// Whether this implementation withstands the full Byzantine adversary
    /// suite (the baselines run under their canonical weaker adversaries —
    /// crash, silence or consistent forgery — as documented in
    /// `opr-baselines`).
    pub fn byzantine_suite_applicable(&self) -> bool {
        matches!(
            self,
            Algorithm::Alg1LogTime | Algorithm::Alg1ConstantTime | Algorithm::TwoStep
        )
    }

    /// Runs the implementation on `cfg` with the given correct ids and
    /// `faulty` adversarial actors, and verifies the outcome.
    ///
    /// `adversary` selects the Byzantine strategy for the paper's
    /// algorithms; baselines use their canonical adversary and record its
    /// label.
    ///
    /// # Errors
    ///
    /// Propagates [`RenamingError`] from the underlying runner.
    pub fn run(
        &self,
        cfg: SystemConfig,
        correct_ids: &[OriginalId],
        faulty: usize,
        adversary: AdversarySpec,
        seed: u64,
    ) -> Result<RunStats, RenamingError> {
        let paper = |regime| {
            RenamingRun::builder(cfg, regime)
                .correct_ids(correct_ids.iter().copied())
                .adversary(adversary, faulty)
                .seed(seed)
                .run()
                .map(|output| output.stats)
        };
        match self {
            Algorithm::Alg1LogTime => paper(Regime::LogTime),
            Algorithm::Alg1ConstantTime => paper(Regime::ConstantTime),
            Algorithm::TwoStep => paper(Regime::TwoStep),
            Algorithm::CrashAa => self.run_crash_aa(cfg, correct_ids, faulty, seed),
            Algorithm::Consensus => self.run_consensus(cfg, correct_ids, faulty, seed),
            Algorithm::Cht => self.run_cht(cfg, correct_ids, faulty, seed),
            Algorithm::Translated => self.run_translated(cfg, correct_ids, faulty, seed),
        }
    }

    fn run_crash_aa(
        &self,
        cfg: SystemConfig,
        correct_ids: &[OriginalId],
        faulty: usize,
        seed: u64,
    ) -> Result<RunStats, RenamingError> {
        check_baseline_counts(cfg, correct_ids.len(), faulty)?;
        let rounds = CrashAaRenaming::total_rounds(cfg.t());
        let fake_base = correct_ids.iter().map(|i| i.raw()).max().unwrap_or(0) + 1000;
        type B1Actor = Box<dyn Actor<Msg = opr_baselines::crash_aa::CrashMsg, Output = NewName>>;
        let mut actors: Vec<B1Actor> = Vec::new();
        for k in 0..faulty {
            let inner = CrashAaRenaming::new(cfg, OriginalId::new(fake_base + k as u64));
            let alive = 1 + (seed + k as u64) as u32 % rounds;
            actors.push(Box::new(opr_adversary::CrashAfter::new(inner, alive)));
        }
        for &id in correct_ids {
            actors.push(Box::new(CrashAaRenaming::new(cfg, id)));
        }
        let topology = Topology::seeded(cfg.n(), seed);
        run_baseline(*self, cfg, "crash", correct_ids, actors, topology)
    }

    fn run_consensus(
        &self,
        cfg: SystemConfig,
        correct_ids: &[OriginalId],
        faulty: usize,
        seed: u64,
    ) -> Result<RunStats, RenamingError> {
        check_baseline_counts(cfg, correct_ids.len(), faulty)?;
        let topo = Topology::seeded(cfg.n(), seed);
        type B2Actor =
            Box<dyn Actor<Msg = opr_baselines::consensus_renaming::B2Msg, Output = NewName>>;
        let mut actors: Vec<B2Actor> = Vec::new();
        for _ in 0..faulty {
            actors.push(Box::new(opr_core::SilentActor::default()));
        }
        for (offset, &id) in correct_ids.iter().enumerate() {
            let index = faulty + offset;
            actors.push(Box::new(ConsensusRenaming::new(
                cfg,
                id,
                index,
                opr_baselines::phase_king::king_links_for(&topo, index),
            )));
        }
        run_baseline(*self, cfg, "silent", correct_ids, actors, topo)
    }

    fn run_cht(
        &self,
        cfg: SystemConfig,
        correct_ids: &[OriginalId],
        faulty: usize,
        seed: u64,
    ) -> Result<RunStats, RenamingError> {
        check_baseline_counts(cfg, correct_ids.len(), faulty)?;
        type B3Actor = Box<dyn Actor<Msg = opr_baselines::cht::ChtMsg, Output = NewName>>;
        let mut actors: Vec<B3Actor> = Vec::new();
        for _ in 0..faulty {
            actors.push(Box::new(opr_core::SilentActor::default()));
        }
        for &id in correct_ids {
            actors.push(Box::new(ChtRenaming::new(cfg.n(), id)));
        }
        let topology = Topology::seeded(cfg.n(), seed);
        run_baseline(*self, cfg, "crash-at-start", correct_ids, actors, topology)
    }

    fn run_translated(
        &self,
        cfg: SystemConfig,
        correct_ids: &[OriginalId],
        faulty: usize,
        seed: u64,
    ) -> Result<RunStats, RenamingError> {
        check_baseline_counts(cfg, correct_ids.len(), faulty)?;
        // Canonical adversary: forge interleaved fake ids consistently.
        let fakes: Vec<u64> = correct_ids
            .windows(2)
            .filter_map(|w| {
                let mid = w[0].raw() + (w[1].raw() - w[0].raw()) / 2;
                (mid > w[0].raw() && mid < w[1].raw()).then_some(mid)
            })
            .take(faulty)
            .collect();
        type B4Actor = Box<dyn Actor<Msg = opr_baselines::translated::B4Msg, Output = NewName>>;
        let mut actors: Vec<B4Actor> = Vec::new();
        for k in 0..faulty {
            let fake = fakes
                .get(k)
                .copied()
                .unwrap_or(correct_ids.last().map(|i| i.raw()).unwrap_or(0) + 1 + k as u64);
            actors.push(Box::new(Forger(TranslatedRenaming::new(
                cfg,
                OriginalId::new(fake),
            ))));
        }
        for &id in correct_ids {
            actors.push(Box::new(TranslatedRenaming::new(cfg, id)));
        }
        let topology = Topology::seeded(cfg.n(), seed);
        run_baseline(
            *self,
            cfg,
            "consistent-forge",
            correct_ids,
            actors,
            topology,
        )
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A faulty process that follows the translated protocol with a forged id
/// (and never decides).
struct Forger(TranslatedRenaming);

impl Actor for Forger {
    type Msg = opr_baselines::translated::B4Msg;
    type Output = NewName;
    fn send(&mut self, round: Round) -> Outbox<Self::Msg> {
        self.0.send(round)
    }
    fn deliver(&mut self, round: Round, inbox: Inbox<Self::Msg>) {
        self.0.deliver(round, inbox);
    }
    fn output(&self) -> Option<NewName> {
        None
    }
}

/// The baselines' setup check, made before any of them builds `faulty`
/// actors and before `n - faulty` can wrap.
fn check_baseline_counts(
    cfg: SystemConfig,
    correct: usize,
    faulty: usize,
) -> Result<(), RenamingError> {
    if faulty > cfg.n() {
        return Err(RenamingError::TooManyFaultyActors {
            got: faulty,
            bound: cfg.n(),
        });
    }
    if correct + faulty != cfg.n() {
        return Err(RenamingError::WrongIdCount {
            got: correct,
            expected: cfg.n() - faulty,
        });
    }
    Ok(())
}

/// Executes a baseline system for its fixed round count. `actors` is the
/// faulty actors followed by one correct actor per id, counts already
/// checked by [`check_baseline_counts`].
fn run_baseline<M: Clone + Debug + WireSize + Sync>(
    algorithm: Algorithm,
    cfg: SystemConfig,
    adversary_label: &str,
    correct_ids: &[OriginalId],
    actors: Vec<Box<dyn Actor<Msg = M, Output = NewName>>>,
    topology: Topology,
) -> Result<RunStats, RenamingError> {
    let faulty = actors.len() - correct_ids.len();
    let rounds = algorithm.rounds(cfg);
    let mut correct_mask = vec![false; faulty];
    correct_mask.extend(vec![true; correct_ids.len()]);
    let mut net = Network::with_faults(actors, correct_mask, topology);
    let report = opr_transport::run(&mut net, ExecOptions::default(), rounds);
    if !report.completed {
        return Err(RenamingError::MissedTermination { budget: rounds });
    }
    let outcome = RenamingOutcome::new(
        correct_ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, net.output_of(faulty + i))),
    );
    Ok(RunStats::collect(
        algorithm,
        cfg,
        adversary_label,
        &outcome,
        report.rounds_executed,
        net.metrics(),
        algorithm.namespace_bound(cfg),
    ))
}

/// Measurements of one run, uniform across implementations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunStats {
    /// Which implementation ran.
    pub algorithm: Algorithm,
    /// System size.
    pub n: usize,
    /// Fault bound.
    pub t: usize,
    /// Adversary label.
    pub adversary: String,
    /// Rounds executed.
    pub rounds: u32,
    /// Messages sent by correct processes.
    pub messages: u64,
    /// Bits sent by correct processes.
    pub bits: u64,
    /// Largest single correct message, in bits.
    pub max_message_bits: u64,
    /// Largest name decided (None if nobody decided).
    pub max_name: Option<i64>,
    /// Renaming-property violations against the implementation's bound.
    pub violations: usize,
}

impl RunStats {
    fn collect(
        algorithm: Algorithm,
        cfg: SystemConfig,
        adversary: &str,
        outcome: &RenamingOutcome,
        rounds: u32,
        metrics: &opr_sim::RunMetrics,
        bound: u64,
    ) -> Self {
        RunStats {
            algorithm,
            n: cfg.n(),
            t: cfg.t(),
            adversary: adversary.to_owned(),
            rounds,
            messages: metrics.messages_correct(),
            bits: metrics.bits_correct(),
            max_message_bits: metrics.max_message_bits(),
            max_name: outcome.max_name().map(|n| n.raw()),
            violations: outcome.verify(bound).len(),
        }
    }
}

/// Builder for one-off runs of the paper's algorithms — the friendly entry
/// point used by the examples.
///
/// ```
/// use opr_workload::RenamingRun;
/// use opr_adversary::AdversarySpec;
/// use opr_types::{OriginalId, Regime, SystemConfig};
///
/// let cfg = SystemConfig::new(7, 2)?;
/// let ids: Vec<OriginalId> = [14u64, 3, 77, 21, 58].map(OriginalId::new).into();
/// let out = RenamingRun::builder(cfg, Regime::LogTime)
///     .correct_ids(ids)
///     .adversary(AdversarySpec::EchoSplit, 2)
///     .seed(42)
///     .run()?;
/// assert!(out.outcome.verify(cfg.namespace_bound(Regime::LogTime)).is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct RenamingRun {
    cfg: SystemConfig,
    regime: Regime,
    ids: Vec<OriginalId>,
    adversary: AdversarySpec,
    faulty: usize,
    /// The runner's own options value, written by the builder setters and
    /// moved into the run whole. Algorithm 1's is the superset: a two-step
    /// run keeps everything in it but the tweaks.
    opts: Alg1Options,
}

/// Either family's observation, as the one shared run path returns it,
/// with the probes each family's entry point collected.
enum Observed<P, Q> {
    Alg1(ObservedRun<P>),
    TwoStep(ObservedRun<Q>),
}

/// The structured result of [`RenamingRun::run_diagnosed`]: what happened,
/// judged against the paper's invariants over the *healthy* correct
/// processes, with everything a chaos oracle needs alongside.
#[derive(Clone, Debug, PartialEq)]
pub struct DiagnosedRun {
    /// The diagnosis over the healthy correct processes — correct actors
    /// whose outgoing links the fault plan does not disturb. A correct
    /// process silenced by the transport is, to every receiver,
    /// indistinguishable from a faulty one, so it is excluded from the
    /// judged set exactly as if it had been placed Byzantine.
    pub degraded: DegradedOutcome,
    /// Decisions of *all* correct processes, transport-disturbed included.
    pub full_outcome: RenamingOutcome,
    /// Network metrics.
    pub metrics: RunMetrics,
    /// Rounds executed.
    pub rounds: u32,
    /// Sends the transport rejected, in `(round, sender, occurrence)` order.
    pub malformed: Vec<MalformedSend>,
    /// Which actor indices were Byzantine (`true` = faulty).
    pub faulty_mask: Vec<bool>,
    /// Original ids of correct processes excluded from the judged set
    /// because the fault plan disturbs their outgoing links.
    pub excluded: Vec<OriginalId>,
    /// Delivery events, present iff [`RenamingRun::trace`] requested them.
    pub trace: Option<Trace>,
    /// Per-process protocol event streams, present iff
    /// [`RenamingRun::record_events`] requested them. Deterministic:
    /// bit-identical across job counts for the same run.
    pub events: Option<RunLog>,
}

impl DiagnosedRun {
    /// The effective fault load: Byzantine actors plus correct processes
    /// whose outgoing links the fault plan disturbs. This is the number the
    /// chaos budget regimes compare against `t`.
    pub fn effective_faults(&self) -> usize {
        self.faulty_mask.iter().filter(|&&f| f).count() + self.excluded.len()
    }

    /// Fold the run into a deterministic [`MetricsSnapshot`]: message and
    /// wire-bit counters, per-round message-count histogram, fault gauges,
    /// and — when [`RenamingRun::record_events`] was requested — quorum
    /// crossings, vote verdicts and decisions from the event streams.
    ///
    /// Everything here is a pure function of the run's deterministic
    /// artefacts, so the snapshot is bit-identical across replays and any
    /// job count (the equivalence suites pin this).
    /// Wall-clock timings never appear in it.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        snap.add_counter("opr_rounds_total", u64::from(self.rounds));
        snap.add_counter(
            labeled("opr_messages_total", &[("class", "correct")]),
            self.metrics.messages_correct(),
        );
        snap.add_counter(
            labeled("opr_messages_total", &[("class", "faulty")]),
            self.metrics.messages_faulty(),
        );
        snap.add_counter("opr_wire_bits_total", self.metrics.bits_correct());
        snap.add_counter("opr_malformed_sends_total", self.malformed.len() as u64);
        snap.set_gauge(
            "opr_max_message_bits",
            self.metrics.max_message_bits() as i64,
        );
        snap.set_gauge("opr_effective_faults", self.effective_faults() as i64);
        snap.set_gauge("opr_excluded_processes", self.excluded.len() as i64);
        for round in self.metrics.per_round() {
            snap.record(
                "opr_round_messages",
                round.messages_correct + round.messages_faulty,
            );
        }
        if let Some(log) = &self.events {
            let quorum = |snap: &mut MetricsSnapshot, kind: &str| {
                snap.add_counter(labeled("opr_quorum_crossings_total", &[("kind", kind)]), 1);
            };
            for process in &log.processes {
                for event in &process.events {
                    match event {
                        ProtocolEvent::EchoThreshold { kept: true, .. } => {
                            quorum(&mut snap, "echo")
                        }
                        ProtocolEvent::ReadyThreshold { timely: true, .. } => {
                            quorum(&mut snap, "ready")
                        }
                        ProtocolEvent::AcceptThreshold { accepted: true, .. } => {
                            quorum(&mut snap, "accept")
                        }
                        ProtocolEvent::VoteAccepted { .. } => snap
                            .add_counter(labeled("opr_votes_total", &[("verdict", "accepted")]), 1),
                        ProtocolEvent::VoteRejected { .. } => snap
                            .add_counter(labeled("opr_votes_total", &[("verdict", "rejected")]), 1),
                        ProtocolEvent::Decided { .. } => snap.add_counter("opr_decisions_total", 1),
                        _ => {}
                    }
                }
            }
        }
        snap
    }
}

/// The result of a [`RenamingRun`].
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// The decided names.
    pub outcome: RenamingOutcome,
    /// Uniform measurements.
    pub stats: RunStats,
    /// Voting-phase probes (Algorithm 1 only).
    pub alg1_probe: Option<Alg1Probe>,
    /// Name-table probes (Algorithm 4 only).
    pub two_step_probe: Option<TwoStepProbe>,
}

impl RenamingRun {
    /// Starts a builder for `regime` on `cfg`.
    pub fn builder(cfg: SystemConfig, regime: Regime) -> Self {
        RenamingRun {
            cfg,
            regime,
            ids: Vec::new(),
            adversary: AdversarySpec::Silent,
            faulty: 0,
            opts: Alg1Options::default(),
        }
    }

    /// Sets the correct processes' original ids.
    pub fn correct_ids<I>(mut self, ids: I) -> Self
    where
        I: IntoIterator<Item = OriginalId>,
    {
        self.ids = ids.into_iter().collect();
        self
    }

    /// Sets the Byzantine strategy and how many faulty actors run it.
    pub fn adversary(mut self, spec: AdversarySpec, count: usize) -> Self {
        self.adversary = spec;
        self.faulty = count;
        self
    }

    /// Sets the run seed (topology labels, fault placement, randomized
    /// strategies).
    pub fn seed(mut self, seed: u64) -> Self {
        self.opts.seed = seed;
        self
    }

    /// Adds voting steps beyond the paper's schedule (margin studies;
    /// Algorithm 1 only).
    pub fn extra_voting_steps(mut self, extra: u32) -> Self {
        self.opts.tweaks.extra_voting_steps = extra;
        self
    }

    /// Selects nothing: every run steps its network on the calling thread.
    /// Kept for `benchmark/` until that package depends on the `opr`
    /// facade alone.
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.opts.backend = backend;
        self
    }

    /// Attaches a transport-level fault plan (drops, link silences,
    /// crash-style process silences) applied below the adversary layer.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.opts.exec.faults = faults;
        self
    }

    /// Allows more Byzantine actors than the fault bound `t` — the chaos
    /// campaign's over-budget regime. Use with [`RenamingRun::run_diagnosed`];
    /// the strict [`RenamingRun::run`] will then typically report a missed
    /// termination.
    pub fn allow_fault_overrun(mut self) -> Self {
        self.opts.allow_fault_overrun = true;
        self
    }

    /// Caps message payloads at `cap` wire bits; wider sends are recorded
    /// as malformed and dropped at the transport.
    pub fn payload_cap(mut self, cap: u64) -> Self {
        self.opts.exec.payload_cap = Some(cap);
        self
    }

    /// Records the first `capacity` delivery events, returned in
    /// [`DiagnosedRun::trace`] (only `run_diagnosed` surfaces them).
    pub fn trace(mut self, capacity: usize) -> Self {
        self.opts.exec.trace_capacity = Some(capacity);
        self
    }

    /// Attaches a deterministic protocol-event recorder to every correct
    /// actor; [`DiagnosedRun::events`] then carries the per-process streams.
    pub fn record_events(mut self) -> Self {
        self.opts.record_events = true;
        self
    }

    /// Attaches a wall-clock span log; the substrate records one span per
    /// executed round (observability only, never part of the deterministic
    /// result).
    pub fn spans(mut self, spans: SharedSpanLog) -> Self {
        self.opts.exec.spans = Some(spans);
        self
    }

    /// Attaches a live metrics registry; the substrate records per-round
    /// wall-clock histograms into it. Wall plane only — for the
    /// deterministic aggregates, use [`DiagnosedRun::metrics_snapshot`].
    pub fn metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.opts.exec.metrics = Some(metrics);
        self
    }

    /// The one path every entry point executes through: every option the
    /// builder collected moves into the runner whole, so no entry point can
    /// forget one. Runs in `arena` (a new one for the one-off entry points)
    /// and hands the ids back for the diagnosis to walk.
    fn observe<P, Q>(
        self,
        arena: &mut RunArena,
    ) -> Result<(Observed<P, Q>, Vec<OriginalId>), RenamingError>
    where
        P: Probes<ProcessProbe>,
        Q: Probes<TwoStepProcessProbe>,
    {
        let spec = self.adversary;
        let observed = match self.regime {
            Regime::LogTime | Regime::ConstantTime => Observed::Alg1(run_alg1_in(
                arena,
                self.cfg,
                self.regime,
                &self.ids,
                self.faulty,
                |env| spec.build_alg1(env),
                self.opts,
            )?),
            Regime::TwoStep => Observed::TwoStep(run_two_step_in(
                arena,
                self.cfg,
                &self.ids,
                self.faulty,
                |env| spec.build_two_step(env),
                self.opts.with_tweaks(TwoStepTweaks::default()),
            )?),
        };
        Ok((observed, self.ids))
    }

    /// Executes the run.
    ///
    /// # Errors
    ///
    /// Returns [`RenamingError`] on invalid configuration or if a correct
    /// process misses its termination deadline.
    pub fn run(self) -> Result<RunOutput, RenamingError> {
        let (cfg, regime, adversary) = (self.cfg, self.regime, self.adversary.label());
        let stats = |algorithm, outcome: &RenamingOutcome, rounds, metrics: &RunMetrics| {
            let bound = cfg.namespace_bound(regime);
            RunStats::collect(algorithm, cfg, adversary, outcome, rounds, metrics, bound)
        };
        Ok(
            match self
                .observe::<Alg1Probe, TwoStepProbe>(&mut RunArena::default())?
                .0
            {
                Observed::Alg1(observed) => {
                    let o = observed.strict()?;
                    let algorithm = if regime == Regime::LogTime {
                        Algorithm::Alg1LogTime
                    } else {
                        Algorithm::Alg1ConstantTime
                    };
                    RunOutput {
                        stats: stats(algorithm, &o.outcome, o.rounds, &o.metrics),
                        outcome: o.outcome,
                        alg1_probe: Some(o.probe),
                        two_step_probe: None,
                    }
                }
                Observed::TwoStep(observed) => {
                    let o = observed.strict()?;
                    RunOutput {
                        stats: stats(Algorithm::TwoStep, &o.outcome, o.rounds, &o.metrics),
                        outcome: o.outcome,
                        alg1_probe: None,
                        two_step_probe: Some(o.probe),
                    }
                }
            },
        )
    }

    /// Executes the run and *diagnoses* it instead of judging it: missed
    /// terminations, property violations and malformed sends become entries
    /// in a [`DegradedOutcome`] rather than errors. Correct processes whose
    /// outgoing links the fault plan disturbs are excluded from the judged
    /// set (they are indistinguishable from faulty processes to everyone
    /// else); their decisions remain visible in
    /// [`DiagnosedRun::full_outcome`].
    ///
    /// # Errors
    ///
    /// Returns [`RenamingError`] only for setups the runner cannot even
    /// start: invalid configurations, bad id sets, or (unless
    /// [`RenamingRun::allow_fault_overrun`] was called) too many faulty
    /// actors.
    pub fn run_diagnosed(self) -> Result<DiagnosedRun, RenamingError> {
        let bound = self.cfg.namespace_bound(self.regime);
        let expected_rounds =
            self.cfg.total_steps(self.regime) + self.opts.tweaks.extra_voting_steps;
        let disturbed = self.opts.exec.faults.disturbed_senders();
        Ok(match self.observe::<(), ()>(&mut RunArena::default())? {
            (Observed::Alg1(o), ids) => diagnose(o, &ids, &disturbed, expected_rounds, bound),
            (Observed::TwoStep(o), ids) => diagnose(o, &ids, &disturbed, expected_rounds, bound),
        })
    }

    /// Executes the run in `arena`, reusing what the arena's earlier runs
    /// built (see [`RunArena`]), and returns only the decided names: no
    /// probe is attached and no [`RunStats`] computed. The judgement is
    /// [`RenamingRun::run`]'s, and so are the names.
    ///
    /// # Errors
    ///
    /// As [`RenamingRun::run`].
    pub fn run_in(self, arena: &mut RunArena) -> Result<RenamingOutcome, RenamingError> {
        Ok(match self.observe::<(), ()>(arena)?.0 {
            Observed::Alg1(observed) => observed.strict()?.outcome,
            Observed::TwoStep(observed) => observed.strict()?.outcome,
        })
    }
}

/// Judges an observation of either family over the healthy correct
/// processes: `ids` in the caller's order, minus those at `disturbed`
/// indices.
fn diagnose<P>(
    o: ObservedRun<P>,
    ids: &[OriginalId],
    disturbed: &std::collections::BTreeSet<usize>,
    expected_rounds: u32,
    bound: u64,
) -> DiagnosedRun {
    let correct_malformed = o.correct_malformed();
    // Judged set: correct actors without transport faults on their
    // outgoing links. Ids were assigned to non-Byzantine indices in
    // caller order, so walk the mask to recover index → id.
    let mut id_iter = ids.iter().copied();
    let mut excluded = Vec::new();
    let mut judged: Vec<(OriginalId, Option<NewName>)> = Vec::new();
    for (index, &is_faulty) in o.faulty_mask.iter().enumerate() {
        if is_faulty {
            continue;
        }
        let id = id_iter.next().expect("id count checked by the runner");
        if disturbed.contains(&index) {
            excluded.push(id);
        } else {
            judged.push((id, o.outcome.name_of(id)));
        }
    }
    let judged_completed = judged.iter().all(|(_, name)| name.is_some());
    let degraded = DegradedOutcome::diagnose(
        RenamingOutcome::new(judged),
        o.rounds,
        judged_completed,
        o.step_budget,
        expected_rounds,
        bound,
        &correct_malformed,
    );
    DiagnosedRun {
        degraded,
        full_outcome: o.outcome,
        metrics: o.metrics,
        rounds: o.rounds,
        malformed: o.malformed,
        faulty_mask: o.faulty_mask,
        excluded,
        trace: o.trace,
        events: o.events,
    }
}

/// One cell of an experiment grid: everything [`Algorithm::run`] needs,
/// owned, so the cell can be shipped to a pool worker.
#[derive(Clone, Debug)]
pub struct GridPoint {
    /// Which implementation to run.
    pub algorithm: Algorithm,
    /// The system configuration.
    pub cfg: SystemConfig,
    /// The correct processes' original ids.
    pub correct_ids: Vec<OriginalId>,
    /// How many Byzantine actors to place.
    pub faulty: usize,
    /// The Byzantine strategy (paper algorithms; baselines use their
    /// canonical adversary).
    pub adversary: AdversarySpec,
    /// The run seed.
    pub seed: u64,
}

impl GridPoint {
    /// Executes this cell.
    ///
    /// # Errors
    ///
    /// Propagates [`RenamingError`] from the underlying runner.
    pub(crate) fn run(&self) -> Result<RunStats, RenamingError> {
        self.algorithm.run(
            self.cfg,
            &self.correct_ids,
            self.faulty,
            self.adversary,
            self.seed,
        )
    }
}

/// Executes an experiment grid on `pool`, returning results in grid order —
/// exactly the sequence a serial loop running each point would produce
/// (cells are independent deterministic runs, and the pool reassembles in
/// submission order). A cell that panics re-panics here, matching serial
/// semantics.
pub fn run_grid(
    pool: &opr_exec::RunPool,
    points: Vec<GridPoint>,
) -> Vec<Result<RunStats, RenamingError>> {
    let tasks: Vec<_> = points
        .into_iter()
        .map(|point| move || point.run())
        .collect();
    pool.run_batch(tasks)
        .into_iter()
        .map(|result| result.unwrap_or_else(|panic| std::panic::panic_any(panic.message)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IdDistribution;

    #[test]
    fn every_algorithm_runs_cleanly_under_its_canonical_adversary() {
        for alg in Algorithm::ALL {
            let t = 1usize;
            let n = alg.minimal_n(t).max(6);
            let cfg = SystemConfig::new(n, t).unwrap();
            let ids = IdDistribution::SparseRandom.generate(n - t, 11);
            let stats = alg
                .run(cfg, &ids, t, AdversarySpec::Silent, 5)
                .unwrap_or_else(|e| panic!("{alg}: {e}"));
            assert_eq!(stats.violations, 0, "{alg}");
            assert_eq!(stats.rounds, alg.rounds(cfg), "{alg}");
            assert!(stats.max_name.is_some(), "{alg}");
            assert!(stats.messages > 0, "{alg}");
        }
    }

    #[test]
    fn builder_runs_two_step() {
        let cfg = SystemConfig::new(11, 2).unwrap();
        let ids = IdDistribution::Clustered.generate(9, 3);
        let out = RenamingRun::builder(cfg, Regime::TwoStep)
            .correct_ids(ids)
            .adversary(AdversarySpec::FakeFlood, 2)
            .seed(8)
            .run()
            .unwrap();
        assert_eq!(out.stats.violations, 0);
        assert!(out.two_step_probe.is_some());
        assert!(out.alg1_probe.is_none());
    }

    #[test]
    fn builder_runs_alg1_with_probe() {
        let cfg = SystemConfig::new(7, 2).unwrap();
        let ids = IdDistribution::EvenSpaced.generate(5, 4);
        let out = RenamingRun::builder(cfg, Regime::LogTime)
            .correct_ids(ids)
            .adversary(AdversarySpec::RankSkew, 2)
            .seed(1)
            .run()
            .unwrap();
        assert_eq!(out.stats.violations, 0);
        let probe = out.alg1_probe.unwrap();
        assert!(!probe.spread_series().is_empty());
    }

    #[test]
    fn rounds_formulas_agree_with_measurements() {
        // Cross-check Algorithm::rounds against actual executions for a
        // couple of (n, t) points per implementation.
        for (alg, t) in [
            (Algorithm::Alg1LogTime, 2usize),
            (Algorithm::TwoStep, 2),
            (Algorithm::Consensus, 1),
            (Algorithm::CrashAa, 2),
        ] {
            let n = alg.minimal_n(t);
            let cfg = SystemConfig::new(n, t).unwrap();
            let ids = IdDistribution::Dense.generate(n - t, 2);
            let stats = alg.run(cfg, &ids, t, AdversarySpec::Silent, 3).unwrap();
            assert_eq!(stats.rounds, alg.rounds(cfg), "{alg}");
        }
    }

    #[test]
    fn run_rejects_bad_setups_uniformly() {
        use opr_types::RenamingError;
        let cfg = SystemConfig::new(7, 2).unwrap();
        // Wrong id count for every implementation that runs at (7, 2).
        for alg in [
            Algorithm::Alg1LogTime,
            Algorithm::CrashAa,
            Algorithm::Cht,
            Algorithm::Translated,
        ] {
            let too_few = IdDistribution::Dense.generate(3, 1);
            let err = alg
                .run(cfg, &too_few, 2, AdversarySpec::Silent, 1)
                .unwrap_err();
            assert!(
                matches!(err, RenamingError::WrongIdCount { .. }),
                "{alg}: {err}"
            );
        }
    }

    #[test]
    fn builder_rejects_regime_violation() {
        let cfg = SystemConfig::new(7, 2).unwrap(); // 7 ≤ 2t²+t = 10
        let ids = IdDistribution::Dense.generate(5, 1);
        let err = RenamingRun::builder(cfg, Regime::TwoStep)
            .correct_ids(ids)
            .adversary(AdversarySpec::Silent, 2)
            .run()
            .unwrap_err();
        assert!(matches!(
            err,
            opr_types::RenamingError::Config(opr_types::ConfigError::RegimeViolated { .. })
        ));
    }

    #[test]
    fn diagnosed_clean_run_reports_clean() {
        let cfg = SystemConfig::new(7, 2).unwrap();
        let ids = IdDistribution::EvenSpaced.generate(5, 4);
        let d = RenamingRun::builder(cfg, Regime::LogTime)
            .correct_ids(ids)
            .adversary(AdversarySpec::EchoSplit, 2)
            .seed(9)
            .run_diagnosed()
            .unwrap();
        assert!(d.degraded.is_clean(), "{:?}", d.degraded.violations);
        assert!(d.excluded.is_empty());
        assert_eq!(d.effective_faults(), 2);
        assert!(d.malformed.is_empty());
    }

    #[test]
    fn diagnosed_run_excludes_transport_disturbed_processes() {
        // One Byzantine actor plus one correct process crashed by the
        // transport from round 1: the crashed process leaves the judged set
        // (budget 2 = t), and the remaining healthy processes must still
        // rename cleanly.
        let cfg = SystemConfig::new(7, 2).unwrap();
        let ids = IdDistribution::EvenSpaced.generate(6, 4);
        let seed = 11;
        let mask = opr_core::fault_placement(cfg.n(), 1, seed);
        let victim = mask
            .iter()
            .position(|&f| !f)
            .expect("some process is correct");
        let d = RenamingRun::builder(cfg, Regime::LogTime)
            .correct_ids(ids)
            .adversary(AdversarySpec::Silent, 1)
            .seed(seed)
            .faults(FaultPlan::default().crash_from(victim, Round::FIRST))
            .run_diagnosed()
            .unwrap();
        assert_eq!(d.excluded.len(), 1);
        assert_eq!(d.effective_faults(), 2);
        assert!(d.degraded.is_clean(), "{:?}", d.degraded.violations);
        assert_eq!(d.degraded.outcome.len(), 5);
    }

    #[test]
    fn diagnosed_over_budget_degrades_without_error() {
        // 3 silent Byzantine actors against t = 2: over budget. The run must
        // come back as a diagnosis, whatever the protocol managed to do.
        let cfg = SystemConfig::new(7, 2).unwrap();
        let ids = IdDistribution::EvenSpaced.generate(4, 4);
        let d = RenamingRun::builder(cfg, Regime::LogTime)
            .correct_ids(ids)
            .adversary(AdversarySpec::Silent, 3)
            .seed(2)
            .allow_fault_overrun()
            .run_diagnosed()
            .unwrap();
        assert_eq!(d.effective_faults(), 3);
        // Clean or violated, both are legitimate over budget — the contract
        // is a structured report, which `digest` summarizes either way.
        assert!(!d.degraded.digest().is_empty());
    }

    #[test]
    fn run_grid_is_observably_serial_at_any_worker_count() {
        let cfg = SystemConfig::new(7, 2).unwrap();
        let points: Vec<GridPoint> = (0..6u64)
            .map(|seed| GridPoint {
                algorithm: Algorithm::Alg1LogTime,
                cfg,
                correct_ids: IdDistribution::SparseRandom.generate(5, seed * 7 + 1),
                faulty: 2,
                adversary: AdversarySpec::EchoSplit,
                seed,
            })
            .collect();
        let serial: Vec<_> = points.iter().map(GridPoint::run).collect();
        let parallel = run_grid(&opr_exec::RunPool::new(4), points);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn diagnosed_run_surfaces_a_trace_on_request() {
        let cfg = SystemConfig::new(7, 2).unwrap();
        let ids = IdDistribution::EvenSpaced.generate(5, 4);
        let build = || {
            RenamingRun::builder(cfg, Regime::LogTime)
                .correct_ids(ids.clone())
                .adversary(AdversarySpec::EchoSplit, 2)
                .seed(9)
        };
        let untraced = build().run_diagnosed().unwrap();
        assert!(untraced.trace.is_none());
        let traced = build().trace(100_000).run_diagnosed().unwrap();
        let trace = traced.trace.as_ref().expect("trace requested");
        assert!(!trace.events().is_empty());
        assert_eq!(trace.dropped(), 0);
        // Tracing observes the run without perturbing it.
        assert_eq!(untraced.degraded, traced.degraded);
        assert_eq!(untraced.metrics, traced.metrics);
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<&str> = Algorithm::ALL.iter().map(|a| a.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Algorithm::ALL.len());
    }
}
