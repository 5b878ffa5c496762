//! Execution of a full renaming system on the simulator.
//!
//! The runner assembles correct actors from the supplied original ids,
//! places caller-provided Byzantine actors at seeded positions, executes the
//! exact number of communication steps the algorithm specifies, and returns
//! the outcome plus metrics and invariant probes. Every run executes in a
//! [`RunArena`], new for a one-off run or kept across the instances of a
//! service shard, whose network and correct processes it resets in place.

use crate::messages::{Alg1Msg, TwoStepMsg};
use crate::probe::{Alg1Probe, ProcessProbe, TwoStepProbe, TwoStepProcessProbe};
use crate::renaming::{Alg1Tweaks, OrderPreservingRenaming};
use crate::two_step::{TwoStepRenaming, TwoStepTweaks};
use opr_obs::{shared_recorder, ProcessLog, RunLog, SharedRecorder};
use opr_rbcast::IdInterner;
use opr_sim::{Actor, Inbox, Network, Outbox, RunMetrics, Topology, Trace, WireSize};
use opr_transport::{BackendKind, ExecOptions};
use opr_types::math::mix64;
use opr_types::{
    MalformedSend, NewName, OriginalId, Regime, RenamingError, RenamingOutcome, Round, SystemConfig,
};
use std::fmt::Debug;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};

/// Context handed to an adversary factory for each faulty actor it builds.
///
/// This deliberately exposes *everything*: the paper's adversary is
/// full-information — Byzantine processes know the protocol, each other, the
/// topology and all original ids, and coordinate perfectly. Strategies that
/// target specific correct processes (e.g. delivering an echo to exactly
/// `N − 2t` of them) use [`AdversaryEnv::topology`] and
/// [`AdversaryEnv::correct_assignments`] to aim.
#[derive(Clone, Debug)]
pub struct AdversaryEnv<'a> {
    /// The system configuration.
    pub cfg: SystemConfig,
    /// 0-based slot among the faulty actors (0 ⋯ faulty_count−1).
    pub slot: usize,
    /// How many faulty actors there are in total (for coordinated plans).
    pub faulty_count: usize,
    /// The actor's index in the network (useful for per-actor seeding).
    pub index: usize,
    /// The original ids of the correct processes, ascending.
    pub correct_ids: &'a [OriginalId],
    /// `(actor index, original id)` of every correct process.
    pub correct_assignments: &'a [(usize, OriginalId)],
    /// The full network topology (who is behind each of my links).
    pub topology: &'a Topology,
    /// The run seed.
    pub seed: u64,
    /// The run-wide id interner every correct process's bitset payloads are
    /// relative to. Adversaries building [`opr_rbcast::IdSlotSet`] payloads
    /// should build them against this so forged messages travel the
    /// zero-decode fast path; sets built on a private interner stay correct
    /// through the decode fallback.
    pub interner: IdInterner<OriginalId>,
}

impl AdversaryEnv<'_> {
    /// The link labels (at this faulty actor) leading to each correct
    /// process, in ascending order of the correct process's original id.
    pub fn links_to_correct(&self) -> Vec<opr_types::LinkId> {
        let me = opr_types::ProcessIndex::new(self.index);
        let mut pairs: Vec<(OriginalId, opr_types::LinkId)> = self
            .correct_assignments
            .iter()
            .map(|&(idx, id)| {
                let peer = opr_types::ProcessIndex::new(idx);
                // The link *from me to peer* has the label l where
                // topology.peer(me, l) == peer; that is peer's position in
                // my local table, recoverable via the inverse relation.
                let l = (1..=self.cfg.n())
                    .map(opr_types::LinkId::new)
                    .find(|&l| self.topology.peer(me, l) == peer)
                    .expect("full mesh: a link to every process exists");
                (id, l)
            })
            .collect();
        pairs.sort_by_key(|&(id, _)| id);
        pairs.into_iter().map(|(_, l)| l).collect()
    }
}

/// The run surface of one protocol family: everything a run takes besides
/// the system itself (`cfg`, ids, fault count, adversary). `T` is the
/// family's experiment-only tweaks; the transport-level knobs are embedded
/// whole as [`ExecOptions`], not re-declared.
#[derive(Clone, Debug, Default)]
pub struct RunOptions<T> {
    /// Seed for topology labelling and faulty-actor placement.
    pub seed: u64,
    /// Selects nothing: every run steps its network on the calling thread.
    /// Kept for `benchmark/` until that package depends on the `opr`
    /// facade alone.
    pub backend: BackendKind,
    /// Skip the `faulty_count ≤ t` check — for over-budget chaos campaigns
    /// that deliberately exceed the fault bound to observe degradation.
    /// Strict entry points will then typically fail with
    /// [`RenamingError::MissedTermination`]; the `*_observed` entry points
    /// report what happened instead.
    pub allow_fault_overrun: bool,
    /// When `true`, attach a protocol-event recorder to every correct actor
    /// and return the deterministic streams in [`ObservedRun::events`].
    pub record_events: bool,
    /// Transport faults, payload cap, delivery tracing and the wall-plane
    /// attachments (spans, metrics registry), handed to the substrate whole.
    pub exec: ExecOptions,
    /// Algorithm knobs; the default is the paper's algorithm.
    pub tweaks: T,
}

impl<T> RunOptions<T> {
    /// The same run surface for another protocol family's tweaks.
    pub fn with_tweaks<U>(self, tweaks: U) -> RunOptions<U> {
        RunOptions {
            seed: self.seed,
            backend: self.backend,
            allow_fault_overrun: self.allow_fault_overrun,
            record_events: self.record_events,
            exec: self.exec,
            tweaks,
        }
    }
}

/// Options for [`run_alg1`].
pub type Alg1Options = RunOptions<Alg1Tweaks>;

/// Options for [`run_two_step`].
pub type TwoStepOptions = RunOptions<TwoStepTweaks>;

/// Everything observed in one run, *without* judging it — missed
/// termination and malformed traffic are reported, not turned into errors.
/// This is the entry point for chaos campaigns: the caller (an oracle
/// suite) decides whether what happened was acceptable for the fault load
/// it injected. [`ObservedRun::strict`] applies the classic judgement.
#[derive(Clone, Debug)]
pub struct ObservedRun<P> {
    /// Names decided by the correct processes (undecided ⇒ absent).
    pub outcome: RenamingOutcome,
    /// Network metrics (rounds, messages, bits).
    pub metrics: RunMetrics,
    /// Rounds executed.
    pub rounds: u32,
    /// The step budget the run was given.
    pub step_budget: u32,
    /// Whether every correct process decided within the budget.
    pub completed: bool,
    /// Sends the transport rejected, in `(round, sender, occurrence)` order.
    pub malformed: Vec<MalformedSend>,
    /// Which actor indices were Byzantine (`true` = faulty).
    pub faulty_mask: Vec<bool>,
    /// Delivery events, present iff a `trace_capacity` was requested.
    pub trace: Option<Trace>,
    /// Per-process protocol event streams, present iff event recording was
    /// requested. Deterministic: bit-identical across replays and job
    /// counts for the same schedule.
    pub events: Option<RunLog>,
    /// Aggregated invariant probes.
    pub probe: P,
}

impl<P> ObservedRun<P> {
    /// The malformed sends attributable to *correct* processes — always a
    /// protocol or harness bug, never legitimate degradation.
    pub fn correct_malformed(&self) -> Vec<MalformedSend> {
        self.malformed
            .iter()
            .filter(|m| !self.faulty_mask[m.sender.index()])
            .copied()
            .collect()
    }

    /// The strict judgement the classic entry points give: the observation
    /// is returned unchanged unless a correct process sent malformed
    /// traffic or missed its termination deadline.
    ///
    /// # Errors
    ///
    /// [`RenamingError::CorrectMalformed`] if a correct process sent
    /// malformed traffic; [`RenamingError::MissedTermination`] if any
    /// correct process failed to decide within the step budget.
    pub fn strict(self) -> Result<Self, RenamingError> {
        if let Some(&m) = self.correct_malformed().first() {
            return Err(RenamingError::CorrectMalformed(m));
        }
        if !self.completed {
            return Err(RenamingError::MissedTermination {
                budget: self.step_budget,
            });
        }
        Ok(self)
    }
}

/// An actor that never sends and never decides — the default Byzantine
/// behaviour when an adversary factory returns `None` (a silent process is
/// indistinguishable from a crashed one).
pub struct SilentActor<M, O>(PhantomData<fn() -> (M, O)>);

impl<M, O> Default for SilentActor<M, O> {
    fn default() -> Self {
        SilentActor(PhantomData)
    }
}

impl<M, O> Actor for SilentActor<M, O> {
    type Msg = M;
    type Output = O;
    fn send(&mut self, _round: Round) -> Outbox<M> {
        Outbox::Silent
    }
    fn deliver(&mut self, _round: Round, _inbox: Inbox<M>) {}
    fn output(&self) -> Option<O> {
        None
    }
}

/// `fault_bound` is `t`, or `N` when overrun is allowed: more faulty actors
/// than processes is never a system, and `n - faulty_count` must not wrap.
/// `sorted_ids` is the correct ids, ascending: a repeated id is an adjacent
/// pair.
fn validate(
    cfg: SystemConfig,
    sorted_ids: &[OriginalId],
    faulty_count: usize,
    fault_bound: usize,
) -> Result<(), RenamingError> {
    if faulty_count > fault_bound {
        return Err(RenamingError::TooManyFaultyActors {
            got: faulty_count,
            bound: fault_bound,
        });
    }
    if sorted_ids.len() + faulty_count != cfg.n() {
        return Err(RenamingError::WrongIdCount {
            got: sorted_ids.len(),
            expected: cfg.n() - faulty_count,
        });
    }
    if sorted_ids.windows(2).any(|pair| pair[0] == pair[1]) {
        return Err(RenamingError::DuplicateOriginalIds);
    }
    Ok(())
}

/// Deterministic placement of faulty actors: a seeded permutation of the
/// actor indices, faulty first. Public so chaos generators can predict
/// which indices a given `(n, faulty_count, seed)` run treats as Byzantine
/// and aim transport faults at known-correct processes.
pub fn fault_placement(n: usize, faulty_count: usize, seed: u64) -> Vec<bool> {
    let mut faulty = Vec::new();
    place_faults(n, faulty_count, seed, &mut Vec::new(), &mut faulty);
    faulty
}

/// [`fault_placement`] into `faulty`, shuffling in `indices`; both keep
/// their storage.
fn place_faults(
    n: usize,
    faulty_count: usize,
    seed: u64,
    indices: &mut Vec<usize>,
    faulty: &mut Vec<bool>,
) {
    // splitmix64; self-contained so placement is stable across rand
    // versions.
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(state)
    };
    indices.clear();
    indices.extend(0..n);
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        indices.swap(i, j);
    }
    faulty.clear();
    faulty.resize(n, false);
    for &idx in indices.iter().take(faulty_count) {
        faulty[idx] = true;
    }
}

/// The probes a run collects from its correct processes, named by the type
/// the caller asks [`ObservedRun`] for: a family's probe ([`Alg1Probe`],
/// [`TwoStepProbe`]) attaches a sink to every correct process and folds the
/// sinks after the run; `()` attaches none, for a caller that reads only
/// the outcome.
pub trait Probes<S>: Sized {
    /// Whether the run attaches a sink to each correct process.
    const ATTACHED: bool;

    /// The probe, from the sinks in the order of the correct ids (none
    /// when not [`ATTACHED`](Probes::ATTACHED)).
    fn from_sinks(sinks: Vec<S>) -> Self;
}

impl Probes<ProcessProbe> for Alg1Probe {
    const ATTACHED: bool = true;
    fn from_sinks(sinks: Vec<ProcessProbe>) -> Self {
        sinks.into()
    }
}

impl Probes<TwoStepProcessProbe> for TwoStepProbe {
    const ATTACHED: bool = true;
    fn from_sinks(sinks: Vec<TwoStepProcessProbe>) -> Self {
        sinks.into()
    }
}

impl<S> Probes<S> for () {
    const ATTACHED: bool = false;
    fn from_sinks(_: Vec<S>) -> Self {}
}

/// What runs leave behind for the next run to reuse: per protocol family,
/// the network (topology, payload, row and per-round metric tables) with
/// its correct processes in their seats, and the run's id interner and
/// placement buffers.
///
/// Every run executes in an arena. The one-off entry points
/// ([`run_alg1_observed`], [`run_two_step_observed`]) pass a new one; a
/// caller running instance after instance — a service shard, one epoch
/// after another — keeps one and passes it to [`run_alg1_in`] /
/// [`run_two_step_in`] each time. A run in a used arena resets every
/// correct process, the interner and the network in place and is
/// indistinguishable from a run in a new one: ids, seeds, topology,
/// adversaries and the system size may all change between runs (a new
/// size rebuilds the network). Adversaries are built per run. An arena a
/// run panicked in is dropped, never reused.
#[derive(Default)]
pub struct RunArena {
    run: RunBuffers,
    alg1: Option<Seats<OrderPreservingRenaming>>,
    two_step: Option<Seats<TwoStepRenaming>>,
}

/// The run-level part of an arena, whatever the family.
#[derive(Default)]
struct RunBuffers {
    /// The run's shared id-slot registry, cleared at the start of each run.
    interner: IdInterner<OriginalId>,
    faulty: Vec<bool>,
    shuffled: Vec<usize>,
    sorted_ids: Vec<OriginalId>,
    positions: Vec<(usize, OriginalId)>,
}

/// One family's network of `n` seats, and the correct processes of earlier
/// runs whose seats went to adversaries, kept for later runs.
struct Seats<C: Actor> {
    n: usize,
    net: Network<C::Msg, NewName, Member<C>>,
    spare: Vec<C>,
}

/// A seat's occupant: a correct process of the family, held by value so a
/// later run can reset it, or whatever the adversary built.
enum Member<C: Actor> {
    Correct(C),
    Byzantine(Box<dyn Actor<Msg = C::Msg, Output = C::Output>>),
}

impl<C: Actor + 'static> Member<C> {
    /// The occupant of a seat between runs: silent, and free to build (a
    /// box of a zero-sized actor does not allocate).
    fn vacant() -> Self {
        Member::Byzantine(Box::new(SilentActor::default()))
    }
}

impl<C: Actor> Actor for Member<C> {
    type Msg = C::Msg;
    type Output = C::Output;

    fn send(&mut self, round: Round) -> Outbox<Self::Msg> {
        match self {
            Member::Correct(process) => process.send(round),
            Member::Byzantine(actor) => actor.send(round),
        }
    }

    fn deliver(&mut self, round: Round, inbox: Inbox<'_, Self::Msg>) {
        match self {
            Member::Correct(process) => process.deliver(round, inbox),
            Member::Byzantine(actor) => actor.deliver(round, inbox),
        }
    }

    fn output(&self) -> Option<Self::Output> {
        match self {
            Member::Correct(process) => process.output(),
            Member::Byzantine(actor) => actor.output(),
        }
    }
}

/// Assembles and executes one system in `seats`, the arena's network for
/// the family. `prepare` readies a correct process — the one that sat in
/// the seat (or a spare) reset, or a new one on the run's interner when
/// there is none — with its probe sink and recorder attached; the sinks
/// fold into `P` after the run.
#[allow(clippy::too_many_arguments)]
fn generic_run<C, T, S, P>(
    run: &mut RunBuffers,
    seats: &mut Option<Seats<C>>,
    cfg: SystemConfig,
    correct_ids: &[OriginalId],
    faulty_count: usize,
    total_steps: u32,
    opts: RunOptions<T>,
    mut make_adversary: impl FnMut(
        &AdversaryEnv,
    ) -> Option<Box<dyn Actor<Msg = C::Msg, Output = NewName>>>,
    mut prepare: impl FnMut(
        Option<C>,
        OriginalId,
        &IdInterner<OriginalId>,
        Option<Arc<Mutex<S>>>,
        Option<SharedRecorder>,
    ) -> C,
) -> Result<ObservedRun<P>, RenamingError>
where
    C: Actor<Output = NewName> + 'static,
    C::Msg: Clone + Debug + WireSize + Send + Sync + 'static,
    S: Default,
    P: Probes<S>,
{
    let n = cfg.n();
    let fault_bound = if opts.allow_fault_overrun { n } else { cfg.t() };
    let RunBuffers {
        interner,
        faulty,
        shuffled,
        sorted_ids,
        positions,
    } = run;
    sorted_ids.clear();
    sorted_ids.extend_from_slice(correct_ids);
    sorted_ids.sort_unstable();
    validate(cfg, sorted_ids, faulty_count, fault_bound)?;
    let seed = opts.seed;
    place_faults(n, faulty_count, seed, shuffled, faulty);
    // The run's shared id-slot registry: every correct actor's bitset
    // payloads are relative to it, and every adversary's [`AdversaryEnv`]
    // carries it so forged payloads encode against the same slots. Cleared
    // first, so slots are numbered as in a new registry.
    interner.clear();
    // Pre-compute the correct placements so adversaries can aim.
    positions.clear();
    positions.extend(
        faulty
            .iter()
            .enumerate()
            .filter(|(_, &f)| !f)
            .map(|(index, _)| index)
            .zip(correct_ids.iter().copied()),
    );
    if seats.as_ref().is_none_or(|seats| seats.n != n) {
        *seats = Some(Seats {
            n,
            net: Network::new(
                (0..n).map(|_| Member::vacant()).collect(),
                Topology::canonical(n),
            ),
            spare: Vec::new(),
        });
    }
    let Seats { net, spare, .. } = seats.as_mut().expect("built above");
    let (faulty, sorted_ids, positions): (&[bool], &[OriginalId], &[(usize, OriginalId)]) =
        (faulty, sorted_ids, positions);
    let mut sinks = Vec::new();
    // Disabled runs never construct recorders.
    let mut recorders: Vec<(OriginalId, SharedRecorder)> = Vec::new();
    let mut position_iter = positions.iter();
    let mut slot = 0usize;
    net.rewind(seed, |topology, index, member| {
        if faulty[index] {
            let env = AdversaryEnv {
                cfg,
                slot,
                faulty_count,
                index,
                correct_ids: sorted_ids,
                correct_assignments: positions,
                topology,
                seed,
                interner: interner.clone(),
            };
            slot += 1;
            let adversary =
                make_adversary(&env).unwrap_or_else(|| Box::new(SilentActor::default()));
            if let Member::Correct(process) =
                std::mem::replace(member, Member::Byzantine(adversary))
            {
                spare.push(process);
            }
            false
        } else {
            let &(_, id) = position_iter.next().expect("mask and positions agree");
            let recorder = opts.record_events.then(shared_recorder);
            if let Some(rec) = &recorder {
                recorders.push((id, rec.clone()));
            }
            let sink = P::ATTACHED.then(|| Arc::new(Mutex::new(S::default())));
            if let Some(sink) = &sink {
                sinks.push(sink.clone());
            }
            let previous = match std::mem::replace(member, Member::vacant()) {
                Member::Correct(process) => Some(process),
                Member::Byzantine(_) => spare.pop(),
            };
            *member = Member::Correct(prepare(previous, id, interner, sink, recorder));
            true
        }
    });
    let report = opr_transport::run(net, opts.exec, total_steps);
    let outcome = RenamingOutcome::new(
        positions
            .iter()
            .map(|&(index, id)| (id, net.output_of(index))),
    );
    let events = opts.record_events.then(|| RunLog {
        processes: recorders
            .iter()
            .map(|(id, rec)| ProcessLog {
                id: *id,
                events: rec.lock().unwrap().events().to_vec(),
            })
            .collect(),
    });
    let (metrics, trace, malformed) = net.take_artifacts();
    Ok(ObservedRun {
        outcome,
        metrics,
        rounds: report.rounds_executed,
        step_budget: total_steps,
        completed: report.completed,
        malformed,
        faulty_mask: faulty.to_vec(),
        trace,
        events,
        probe: P::from_sinks(
            sinks
                .iter()
                .map(|sink| std::mem::take(&mut *sink.lock().unwrap()))
                .collect(),
        ),
    })
}

/// Runs Algorithm 1 (`regime` selects the log-time or constant-time voting
/// schedule) with `faulty_count` Byzantine actors built by `adversary`
/// (`None` ⇒ silent).
///
/// # Errors
///
/// Returns [`RenamingError`] for invalid configurations, id sets, fault
/// counts, or if any correct process fails to decide within the algorithm's
/// step budget (which would indicate a protocol bug — the algorithms are
/// fixed-length).
pub fn run_alg1<F>(
    cfg: SystemConfig,
    regime: Regime,
    correct_ids: &[OriginalId],
    faulty_count: usize,
    adversary: F,
    opts: Alg1Options,
) -> Result<ObservedRun<Alg1Probe>, RenamingError>
where
    F: FnMut(&AdversaryEnv) -> Option<Box<dyn Actor<Msg = Alg1Msg, Output = NewName>>>,
{
    run_alg1_observed(cfg, regime, correct_ids, faulty_count, adversary, opts)?.strict()
}

/// [`run_alg1`] without the strict judgement: missed terminations and
/// malformed sends are *reported* in the [`ObservedRun`] instead of becoming
/// errors. Combined with [`RunOptions::allow_fault_overrun`], this is how
/// chaos campaigns observe degradation beyond the fault bound.
///
/// # Errors
///
/// Returns [`RenamingError`] only for invalid configurations, id sets or
/// (unless overrun is allowed) fault counts — never for what happened
/// during the run itself.
pub fn run_alg1_observed<F>(
    cfg: SystemConfig,
    regime: Regime,
    correct_ids: &[OriginalId],
    faulty_count: usize,
    adversary: F,
    opts: Alg1Options,
) -> Result<ObservedRun<Alg1Probe>, RenamingError>
where
    F: FnMut(&AdversaryEnv) -> Option<Box<dyn Actor<Msg = Alg1Msg, Output = NewName>>>,
{
    run_alg1_in(
        &mut RunArena::default(),
        cfg,
        regime,
        correct_ids,
        faulty_count,
        adversary,
        opts,
    )
}

/// [`run_alg1_observed`] in `arena`, reusing what its earlier runs built;
/// the observation is that of a run in a new arena. `P` names the probes
/// collected: [`Alg1Probe`], or `()` for none.
///
/// # Errors
///
/// As [`run_alg1_observed`].
pub fn run_alg1_in<F, P>(
    arena: &mut RunArena,
    cfg: SystemConfig,
    regime: Regime,
    correct_ids: &[OriginalId],
    faulty_count: usize,
    adversary: F,
    opts: Alg1Options,
) -> Result<ObservedRun<P>, RenamingError>
where
    F: FnMut(&AdversaryEnv) -> Option<Box<dyn Actor<Msg = Alg1Msg, Output = NewName>>>,
    P: Probes<ProcessProbe>,
{
    let tweaks = opts.tweaks;
    if !tweaks.allow_regime_violation {
        cfg.require(regime)?;
    }
    let voting = tweaks
        .voting_steps_override
        .unwrap_or_else(|| cfg.voting_steps(regime))
        + tweaks.extra_voting_steps;
    generic_run(
        &mut arena.run,
        &mut arena.alg1,
        cfg,
        correct_ids,
        faulty_count,
        4 + voting,
        opts,
        adversary,
        |previous, id, interner, sink, recorder| {
            let mut process = match previous {
                Some(mut process) => {
                    process.reset(cfg, regime, id, tweaks);
                    process
                }
                None => OrderPreservingRenaming::new_unchecked(cfg, regime, id, tweaks, interner),
            };
            if let Some(sink) = sink {
                process.attach_probe(sink);
            }
            if let Some(rec) = recorder {
                process.attach_recorder(rec);
            }
            process
        },
    )
}

/// Runs Algorithm 4 (2-step renaming) with `faulty_count` Byzantine actors
/// built by `adversary` (`None` ⇒ silent).
///
/// # Errors
///
/// Same conditions as [`run_alg1`].
pub fn run_two_step<F>(
    cfg: SystemConfig,
    correct_ids: &[OriginalId],
    faulty_count: usize,
    adversary: F,
    opts: TwoStepOptions,
) -> Result<ObservedRun<TwoStepProbe>, RenamingError>
where
    F: FnMut(&AdversaryEnv) -> Option<Box<dyn Actor<Msg = TwoStepMsg, Output = NewName>>>,
{
    run_two_step_observed(cfg, correct_ids, faulty_count, adversary, opts)?.strict()
}

/// [`run_two_step`] without the strict judgement; see
/// [`run_alg1_observed`] for the contract.
///
/// # Errors
///
/// Returns [`RenamingError`] only for invalid configurations, id sets or
/// (unless overrun is allowed) fault counts.
pub fn run_two_step_observed<F>(
    cfg: SystemConfig,
    correct_ids: &[OriginalId],
    faulty_count: usize,
    adversary: F,
    opts: TwoStepOptions,
) -> Result<ObservedRun<TwoStepProbe>, RenamingError>
where
    F: FnMut(&AdversaryEnv) -> Option<Box<dyn Actor<Msg = TwoStepMsg, Output = NewName>>>,
{
    run_two_step_in(
        &mut RunArena::default(),
        cfg,
        correct_ids,
        faulty_count,
        adversary,
        opts,
    )
}

/// [`run_two_step_observed`] in `arena`; see [`run_alg1_in`]. `P` names
/// the probes collected: [`TwoStepProbe`], or `()` for none.
///
/// # Errors
///
/// As [`run_two_step_observed`].
pub fn run_two_step_in<F, P>(
    arena: &mut RunArena,
    cfg: SystemConfig,
    correct_ids: &[OriginalId],
    faulty_count: usize,
    adversary: F,
    opts: TwoStepOptions,
) -> Result<ObservedRun<P>, RenamingError>
where
    F: FnMut(&AdversaryEnv) -> Option<Box<dyn Actor<Msg = TwoStepMsg, Output = NewName>>>,
    P: Probes<TwoStepProcessProbe>,
{
    cfg.require(Regime::TwoStep)?;
    let clamp_offsets = !opts.tweaks.disable_clamp;
    generic_run(
        &mut arena.run,
        &mut arena.two_step,
        cfg,
        correct_ids,
        faulty_count,
        2,
        opts,
        adversary,
        |previous, id, interner, sink, recorder| {
            let mut process = match previous {
                Some(mut process) => {
                    process.reset(cfg, id, clamp_offsets);
                    process
                }
                None => TwoStepRenaming::with_clamp(cfg, id, clamp_offsets, interner)
                    .expect("regime checked above"),
            };
            if let Some(sink) = sink {
                process.attach_probe(sink);
            }
            if let Some(rec) = recorder {
                process.attach_recorder(rec);
            }
            process
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use opr_transport::FaultPlan;

    fn ids(raw: &[u64]) -> Vec<OriginalId> {
        raw.iter().map(|&x| OriginalId::new(x)).collect()
    }

    #[test]
    fn alg1_with_silent_byzantine_upholds_all_properties() {
        let cfg = SystemConfig::new(7, 2).unwrap();
        for seed in 0..5 {
            let result = run_alg1(
                cfg,
                Regime::LogTime,
                &ids(&[100, 2, 57, 31, 9]),
                2,
                |_| None,
                Alg1Options {
                    seed,
                    ..Alg1Options::default()
                },
            )
            .unwrap();
            let m = cfg.namespace_bound(Regime::LogTime);
            assert!(result.outcome.verify(m).is_empty(), "seed {seed}");
            assert_eq!(result.rounds, cfg.total_steps(Regime::LogTime));
            assert_eq!(result.probe.processes.len(), 5);
            assert_eq!(result.probe.containment_violations(), 0);
        }
    }

    #[test]
    fn two_step_with_silent_byzantine_upholds_all_properties() {
        let cfg = SystemConfig::new(11, 2).unwrap();
        let result = run_two_step(
            cfg,
            &ids(&[5, 10, 15, 20, 25, 30, 35, 40, 45]),
            2,
            |_| None,
            TwoStepOptions {
                seed: 3,
                ..TwoStepOptions::default()
            },
        )
        .unwrap();
        assert!(result.outcome.verify(121).is_empty());
        assert_eq!(result.rounds, 2);
    }

    #[test]
    fn rejects_too_many_faulty() {
        let cfg = SystemConfig::new(7, 2).unwrap();
        let err = run_alg1(
            cfg,
            Regime::LogTime,
            &ids(&[1, 2, 3, 4]),
            3,
            |_| None,
            Alg1Options::default(),
        )
        .unwrap_err();
        assert!(matches!(err, RenamingError::TooManyFaultyActors { .. }));
    }

    #[test]
    fn rejects_wrong_id_count() {
        let cfg = SystemConfig::new(7, 2).unwrap();
        let err = run_alg1(
            cfg,
            Regime::LogTime,
            &ids(&[1, 2, 3]),
            2,
            |_| None,
            Alg1Options::default(),
        )
        .unwrap_err();
        assert!(matches!(err, RenamingError::WrongIdCount { .. }));
    }

    #[test]
    fn rejects_duplicate_ids() {
        let cfg = SystemConfig::new(7, 2).unwrap();
        let err = run_alg1(
            cfg,
            Regime::LogTime,
            &ids(&[1, 2, 2, 4, 5]),
            2,
            |_| None,
            Alg1Options::default(),
        )
        .unwrap_err();
        assert!(matches!(err, RenamingError::DuplicateOriginalIds));
    }

    #[test]
    fn placement_is_deterministic_and_spread() {
        let a = fault_placement(10, 3, 42);
        let b = fault_placement(10, 3, 42);
        assert_eq!(a, b);
        assert_eq!(a.iter().filter(|&&f| f).count(), 3);
        let c = fault_placement(10, 3, 43);
        // Different seeds usually place differently (not guaranteed for
        // every pair, but 42 vs 43 differ).
        assert_ne!(a, c);
    }

    #[test]
    fn observed_run_reports_instead_of_erroring() {
        // Crash every process's transport from round 1: nobody hears
        // anything, so nobody can decide — the strict path errors, the
        // observed path reports.
        let cfg = SystemConfig::new(7, 2).unwrap();
        let correct = ids(&[1, 2, 3, 4, 5]);
        let mut faults = FaultPlan::default();
        for p in 0..7 {
            faults = faults.crash_from(p, Round::FIRST);
        }
        let opts = |faults: FaultPlan| Alg1Options {
            exec: ExecOptions {
                faults,
                ..ExecOptions::default()
            },
            ..Alg1Options::default()
        };
        let err = run_alg1(
            cfg,
            Regime::LogTime,
            &correct,
            2,
            |_| None,
            opts(faults.clone()),
        )
        .unwrap_err();
        assert!(matches!(err, RenamingError::MissedTermination { .. }));
        let observed =
            run_alg1_observed(cfg, Regime::LogTime, &correct, 2, |_| None, opts(faults)).unwrap();
        assert!(!observed.completed);
        assert_eq!(observed.rounds, observed.step_budget);
        assert!(observed
            .outcome
            .decisions()
            .values()
            .all(|name| name.is_none()));
        assert_eq!(observed.faulty_mask.iter().filter(|&&f| f).count(), 2);
    }

    #[test]
    fn fault_overrun_is_rejected_unless_allowed() {
        let cfg = SystemConfig::new(7, 2).unwrap();
        let correct = ids(&[1, 2, 3, 4]);
        let err = run_alg1_observed(
            cfg,
            Regime::LogTime,
            &correct,
            3,
            |_| None,
            Alg1Options::default(),
        )
        .unwrap_err();
        assert!(matches!(err, RenamingError::TooManyFaultyActors { .. }));
        let observed = run_alg1_observed(
            cfg,
            Regime::LogTime,
            &correct,
            3,
            |_| None,
            Alg1Options {
                allow_fault_overrun: true,
                ..Alg1Options::default()
            },
        )
        .unwrap();
        // 3 silent faulty out of N=7 exceeds t=2; whatever happened, the
        // run must report rather than panic or error.
        assert_eq!(observed.faulty_mask.iter().filter(|&&f| f).count(), 3);
        // Overrun lifts the bound to N, not to infinity: more faulty actors
        // than processes is a typed error, never an arithmetic underflow.
        let err = run_alg1_observed(
            cfg,
            Regime::LogTime,
            &[],
            cfg.n() + 2,
            |_| None,
            Alg1Options {
                allow_fault_overrun: true,
                ..Alg1Options::default()
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            RenamingError::TooManyFaultyActors { got: 9, bound: 7 }
        ));
    }

    #[test]
    fn recorded_events_and_spans_are_returned_when_requested() {
        let cfg = SystemConfig::new(7, 2).unwrap();
        let spans = opr_obs::shared_span_log();
        let observed = run_alg1_observed(
            cfg,
            Regime::LogTime,
            &ids(&[100, 2, 57, 31, 9]),
            2,
            |_| None,
            Alg1Options {
                seed: 1,
                record_events: true,
                exec: ExecOptions {
                    spans: Some(spans.clone()),
                    ..ExecOptions::default()
                },
                ..Alg1Options::default()
            },
        )
        .unwrap();
        let events = observed.events.expect("recording was requested");
        assert_eq!(events.processes.len(), 5);
        assert!(!events.is_empty());
        // Process order follows the caller's correct-id order.
        let ids_seen: Vec<u64> = events.processes.iter().map(|p| p.id.raw()).collect();
        assert_eq!(ids_seen, vec![100, 2, 57, 31, 9]);
        // Every correct process reached a decision event.
        for p in &events.processes {
            assert!(p
                .events
                .iter()
                .any(|e| matches!(e, opr_obs::ProtocolEvent::Decided { .. })));
        }
        // One wall span per executed round.
        assert_eq!(
            spans.lock().unwrap().spans().len(),
            observed.rounds as usize
        );
    }

    #[test]
    fn disabled_recording_returns_no_events() {
        let cfg = SystemConfig::new(7, 2).unwrap();
        let observed = run_alg1_observed(
            cfg,
            Regime::LogTime,
            &ids(&[1, 2, 3, 4, 5]),
            2,
            |_| None,
            Alg1Options::default(),
        )
        .unwrap();
        assert!(observed.events.is_none());
    }

    #[test]
    fn adversary_env_exposes_slots_and_ids() {
        let cfg = SystemConfig::new(7, 2).unwrap();
        let mut seen_slots = Vec::new();
        let correct = ids(&[1, 2, 3, 4, 5]);
        let _ = run_alg1(
            cfg,
            Regime::LogTime,
            &correct,
            2,
            |env| {
                seen_slots.push(env.slot);
                assert_eq!(env.correct_ids.len(), 5);
                None
            },
            Alg1Options::default(),
        )
        .unwrap();
        assert_eq!(seen_slots, vec![0, 1]);
    }
}
