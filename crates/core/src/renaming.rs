//! Algorithm 1: order-preserving Byzantine renaming.

use crate::messages::Alg1Msg;
use crate::probe::{SharedProcessProbe, VotingSnapshot};
use crate::ranks::{self, Ballot, RankVector, VoteScratch};
use opr_obs::{record_if, ProtocolEvent, SharedRecorder};
use opr_rbcast::{EchoReadyFlood, FloodObserver, IdInterner};
use opr_sim::{Actor, Inbox, Outbox};
use opr_types::{LinkId, NewName, OriginalId, Regime, Round, SystemConfig};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Maps flood threshold decisions onto recorder events (ids only — the
/// flood itself is value-generic and knows nothing about telemetry).
struct RecorderFloodObserver<'a> {
    recorder: Option<&'a SharedRecorder>,
}

impl FloodObserver<OriginalId> for RecorderFloodObserver<'_> {
    /// Without a recorder every callback is a no-op, so the flood can skip
    /// the slot→value decode that exists only to feed observers.
    fn is_enabled(&self) -> bool {
        self.recorder.is_some()
    }

    fn id_seen(&mut self, step: u32, link: LinkId, value: &OriginalId) {
        let id = *value;
        record_if(self.recorder, || ProtocolEvent::IdSeen { step, link, id });
    }

    fn echo_threshold(
        &mut self,
        step: u32,
        value: &OriginalId,
        echoes: usize,
        quorum: usize,
        kept: bool,
    ) {
        let id = *value;
        record_if(self.recorder, || ProtocolEvent::EchoThreshold {
            step,
            id,
            echoes,
            quorum,
            kept,
        });
    }

    fn ready_threshold(
        &mut self,
        step: u32,
        value: &OriginalId,
        readies: usize,
        quorum: usize,
        weak_quorum: usize,
        timely: bool,
        relayed: bool,
    ) {
        let id = *value;
        record_if(self.recorder, || ProtocolEvent::ReadyThreshold {
            step,
            id,
            readies,
            quorum,
            weak_quorum,
            timely,
            relayed,
        });
    }

    fn accept_threshold(
        &mut self,
        step: u32,
        value: &OriginalId,
        readies: usize,
        quorum: usize,
        accepted: bool,
    ) {
        let id = *value;
        record_if(self.recorder, || ProtocolEvent::AcceptThreshold {
            step,
            id,
            readies,
            quorum,
            accepted,
        });
    }
}

/// A correct process running Algorithm 1.
///
/// Steps 1–4 run the id-selection flood; steps 5 to
/// [`SystemConfig::total_steps`] run validated approximate-agreement voting;
/// at the final step the process decides `Round(ranks[my_id])`.
///
/// The `regime` selects the voting schedule:
/// [`Regime::LogTime`] (`3⌈log t⌉ + 3` voting steps, `N > 3t`) or
/// [`Regime::ConstantTime`] (4 voting steps, `N > t² + 2t`, strong
/// renaming). [`Alg1Tweaks`] exposes the knobs the margin and ablation
/// experiments turn.
#[derive(Clone, Debug)]
pub struct OrderPreservingRenaming {
    cfg: SystemConfig,
    my_id: OriginalId,
    total_steps: u32,
    delta: f64,
    tweaks: Alg1Tweaks,
    flood: EchoReadyFlood<OriginalId>,
    /// Shared with every [`VotingSnapshot`]: constant after step 4.
    timely: Arc<BTreeSet<OriginalId>>,
    /// `timely` as the sorted slice `isValid` merge-walks once per vote.
    timely_ids: Vec<OriginalId>,
    /// Shared with the snapshots; replaced only by a step that drops an id.
    /// Always the ids of `ranks`.
    accepted: Arc<BTreeSet<OriginalId>>,
    ranks: RankVector,
    scratch: VoteScratch,
    decided: Option<NewName>,
    probe: Option<SharedProcessProbe>,
    recorder: Option<SharedRecorder>,
}

/// Experimental knobs on Algorithm 1.
///
/// The defaults are the paper's algorithm; every deviation exists to power a
/// specific experiment:
///
/// * `extra_voting_steps` / `voting_steps_override` — margin studies and the
///   schedule-ablation experiment (A3): the paper's Lemma IV.9 constants are
///   loose at small `t`, and truncating the schedule shows where order
///   preservation actually starts failing.
/// * `disable_validation` — ablation A1: without the `isValid` filter
///   (Algorithm 2), Byzantine vote vectors with overlapping/inverted rank
///   intervals enter the approximation and order preservation collapses —
///   empirically demonstrating the paper's central design point.
/// * `early_output` — a safe early-deciding extension (in the spirit of
///   Alistarh et al. \[1\]): a process outputs as soon as one voting step
///   delivers at least `N − t` valid votes, counted in copies, *every one*
///   equal to its own rank vector. Every correct process's vote reaches
///   every correct process and is valid there (Lemma IV.4), so at that
///   point *every* correct process holds exactly this vector. At every
///   correct receiver each id's multiset is then at least `N − t` copies
///   of the common value (the correct votes, and the own-rank padding is
///   the same value) and at most `t` others, all of which the `t`-per-side
///   trim removes: every correct process computes the same vector, at this
///   step and at every later one — the common vector is a fixed point up to
///   the rounding of a mean of equal values, and the eventual decision is
///   already determined. The process keeps broadcasting until the schedule
///   ends (so it never starves others of votes); only its *output* happens
///   early.
/// * `allow_regime_violation` — the boundary experiment (T5) deliberately
///   runs the algorithm outside its regime to observe the failure mode.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Alg1Tweaks {
    /// Additional voting steps beyond the schedule.
    pub extra_voting_steps: u32,
    /// Replace the schedule's voting-step count entirely (before `extra` is
    /// added).
    pub voting_steps_override: Option<u32>,
    /// Skip the `isValid` vote filter (ablation A1). Breaks order
    /// preservation under the pair-squeeze adversary — never use outside
    /// experiments.
    pub disable_validation: bool,
    /// Output as soon as the decision is provably frozen (see above).
    pub early_output: bool,
    /// Skip the runner's resilience precondition check (experiment T5).
    pub allow_regime_violation: bool,
}

impl OrderPreservingRenaming {
    /// Creates a correct process with original id `my_id`.
    ///
    /// # Errors
    ///
    /// Returns [`opr_types::ConfigError::RegimeViolated`] if the
    /// configuration does not satisfy the regime's resilience precondition.
    ///
    /// # Panics
    ///
    /// Panics if `regime` is [`Regime::TwoStep`] — that is
    /// [`crate::TwoStepRenaming`]'s job.
    pub fn new(
        cfg: SystemConfig,
        regime: Regime,
        my_id: OriginalId,
    ) -> Result<Self, opr_types::ConfigError> {
        Self::with_extra_steps(cfg, regime, my_id, 0)
    }

    /// Like [`new`](Self::new) but runs `extra` additional voting steps —
    /// used by the experiments that study the convergence margin at regime
    /// boundaries (the paper's Lemma IV.9 / V.2 constants are loose for
    /// small `t`; see EXPERIMENTS.md).
    pub(crate) fn with_extra_steps(
        cfg: SystemConfig,
        regime: Regime,
        my_id: OriginalId,
        extra: u32,
    ) -> Result<Self, opr_types::ConfigError> {
        cfg.require(regime)?;
        Ok(Self::new_unchecked(
            cfg,
            regime,
            my_id,
            Alg1Tweaks {
                extra_voting_steps: extra,
                ..Alg1Tweaks::default()
            },
        ))
    }

    /// Full-control constructor with [`Alg1Tweaks`] that skips the
    /// resilience precondition — used by the resilience-boundary experiment (T5) to
    /// observe *how* the algorithm fails when `N ≤ 3t`. Never use this in a
    /// deployment.
    pub(crate) fn new_unchecked(
        cfg: SystemConfig,
        regime: Regime,
        my_id: OriginalId,
        tweaks: Alg1Tweaks,
    ) -> Self {
        assert!(
            regime != Regime::TwoStep,
            "use TwoStepRenaming for the 2-step algorithm"
        );
        let voting = tweaks
            .voting_steps_override
            .unwrap_or_else(|| cfg.voting_steps(regime))
            + tweaks.extra_voting_steps;
        OrderPreservingRenaming {
            cfg,
            my_id,
            total_steps: 4 + voting,
            delta: cfg.delta(),
            tweaks,
            flood: EchoReadyFlood::new(cfg.n(), cfg.t(), Some(my_id)),
            timely: Arc::default(),
            timely_ids: Vec::new(),
            accepted: Arc::default(),
            ranks: RankVector::new(),
            scratch: VoteScratch::default(),
            decided: None,
            probe: None,
            recorder: None,
        }
    }

    /// Attaches a probe sink recording per-step snapshots.
    pub fn attach_probe(&mut self, probe: SharedProcessProbe) {
        self.probe = Some(probe);
    }

    /// Rebases the id-selection flood onto a shared per-run [`IdInterner`],
    /// so co-participants' `Echo`/`Ready` bitsets arrive pre-interned and
    /// accumulate without decoding. Call before round 1 (the runner does,
    /// right after construction); sharing is purely a fast path — unshared
    /// processes interoperate bit-identically.
    pub fn share_interner(&mut self, interner: IdInterner<OriginalId>) {
        self.flood =
            EchoReadyFlood::with_interner(self.cfg.n(), self.cfg.t(), Some(self.my_id), interner);
    }

    /// Attaches a telemetry recorder capturing every decision point (see
    /// [`opr_obs::ProtocolEvent`]). Unattached processes pay one branch per
    /// decision and zero allocations.
    pub(crate) fn attach_recorder(&mut self, recorder: SharedRecorder) {
        self.recorder = Some(recorder);
    }

    /// The process's original id.
    pub fn my_id(&self) -> OriginalId {
        self.my_id
    }

    fn record_snapshot(&self, step: u32) {
        if let Some(probe) = &self.probe {
            probe.lock().unwrap().snapshots.push(VotingSnapshot {
                step,
                ranks: self.ranks.clone(),
                timely: Arc::clone(&self.timely),
                accepted: Arc::clone(&self.accepted),
            });
        }
    }
}

impl Actor for OrderPreservingRenaming {
    type Msg = Alg1Msg;
    type Output = NewName;

    fn send(&mut self, round: Round) -> Outbox<Alg1Msg> {
        let r = round.number();
        if r <= 4 {
            match self.flood.send(r) {
                Some(msg) => Outbox::Broadcast(Alg1Msg::Flood(msg)),
                None => Outbox::Silent,
            }
        } else if r <= self.total_steps {
            record_if(self.recorder.as_ref(), || ProtocolEvent::VoteVectorSent {
                step: r,
                ids: self.ranks.ids().collect(),
            });
            Outbox::Broadcast(Alg1Msg::Votes(self.ranks.to_wire()))
        } else {
            Outbox::Silent
        }
    }

    fn deliver(&mut self, round: Round, inbox: Inbox<Alg1Msg>) {
        let r = round.number();
        if r <= 4 {
            // Id-selection phase: forward flood messages, ignore anything
            // else (a Byzantine process may send Votes early; they are
            // meaningless before step 5). The flood borrows straight out of
            // the shared broadcast payloads — no per-receiver rebuild.
            let mut observer = RecorderFloodObserver {
                recorder: self.recorder.as_ref(),
            };
            self.flood.deliver_observed(
                r,
                inbox.messages().filter_map(|(link, msg)| match msg {
                    Alg1Msg::Flood(f) => Some((link, f)),
                    Alg1Msg::Votes(_) => None,
                }),
                &mut observer,
            );
            if r == 4 {
                let result = self
                    .flood
                    .result()
                    .expect("flood finishes at step 4")
                    .clone();
                self.timely_ids = result.timely.iter().copied().collect();
                self.timely = Arc::new(result.timely);
                self.accepted = Arc::new(result.accepted);
                self.ranks = RankVector::from_accepted(&self.accepted, self.delta);
                self.record_snapshot(4);
            }
        } else if r <= self.total_steps {
            // Voting step: validate, approximate. Votes stay where they
            // arrived — a canonical vote borrows from the shared payload —
            // and each distinct vote of the step is read once.
            let spacing = self.delta;
            let mut ballot = Ballot::with_capacity(inbox.len());
            let mut rejected = 0u64;
            for (link, msg) in inbox.messages() {
                let Alg1Msg::Votes(wire) = msg else { continue };
                let verdict = ballot.cast(wire, |vote| {
                    if self.tweaks.disable_validation {
                        Ok(())
                    } else {
                        ranks::check_valid(vote, self.timely_ids.iter().copied(), spacing)
                    }
                });
                match verdict {
                    Ok(()) => {
                        record_if(self.recorder.as_ref(), || ProtocolEvent::VoteAccepted {
                            step: r,
                            link,
                            entries: wire.len(),
                        });
                    }
                    Err(violation) => {
                        record_if(self.recorder.as_ref(), || ProtocolEvent::VoteRejected {
                            step: r,
                            link,
                            violation,
                        });
                        rejected += 1;
                    }
                }
            }
            if let Some(probe) = &self.probe {
                probe.lock().unwrap().rejected_votes += rejected;
            }
            // Early-output rule (see Alg1Tweaks::early_output): at least
            // N − t valid copies, every one equal to our own vector, freeze
            // the decision at every correct process.
            let frozen = self.tweaks.early_output
                && self.decided.is_none()
                && ballot.copies() >= self.cfg.quorum()
                && ballot
                    .votes()
                    .iter()
                    .all(|(vote, _)| **vote == *self.ranks.as_ref());
            let recorder = self.recorder.as_ref();
            let needed = self.cfg.quorum();
            self.ranks = self.scratch.approximate(
                &self.ranks,
                &self.accepted,
                ballot.votes(),
                self.cfg.n(),
                self.cfg.t(),
                |id, votes, rank| match rank {
                    Some(rank) => record_if(recorder, || ProtocolEvent::TrimmedMean {
                        step: r,
                        id,
                        votes,
                        rank,
                    }),
                    None => record_if(recorder, || ProtocolEvent::IdDropped {
                        step: r,
                        id,
                        votes,
                        needed,
                    }),
                },
            );
            if self.ranks.len() < self.accepted.len() {
                self.accepted = Arc::new(self.ranks.ids().collect());
            }
            self.record_snapshot(r);
            if frozen || r == self.total_steps {
                // Corollary IV.5 guarantees the own id survives voting in
                // any legal regime; outside the regime (T5 boundary runs)
                // it can be lost, which surfaces as a termination failure.
                if self.decided.is_none() {
                    self.decided = self.ranks.get(self.my_id).map(|rank| rank.round_to_name());
                    if let Some(name) = self.decided {
                        record_if(self.recorder.as_ref(), || ProtocolEvent::Decided {
                            step: r,
                            name,
                        });
                        if let Some(probe) = &self.probe {
                            probe.lock().unwrap().decided_at_step = Some(r);
                        }
                    }
                }
            }
        }
    }

    fn output(&self) -> Option<NewName> {
        self.decided
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::shared_probe;
    use opr_obs::ValidityViolation;
    use opr_sim::{Network, Topology};
    use opr_types::RenamingOutcome;

    fn run_correct_only(
        cfg: SystemConfig,
        regime: Regime,
        raw_ids: &[u64],
        seed: u64,
    ) -> RenamingOutcome {
        assert_eq!(raw_ids.len(), cfg.n());
        let actors: Vec<Box<dyn Actor<Msg = Alg1Msg, Output = NewName>>> = raw_ids
            .iter()
            .map(|&x| {
                Box::new(OrderPreservingRenaming::new(cfg, regime, OriginalId::new(x)).unwrap())
                    as Box<dyn Actor<Msg = Alg1Msg, Output = NewName>>
            })
            .collect();
        let mut net = Network::new(actors, Topology::seeded(cfg.n(), seed));
        let report = net.run(cfg.total_steps(regime));
        assert!(report.completed, "must decide at the final step");
        assert_eq!(report.rounds_executed, cfg.total_steps(regime));
        RenamingOutcome::new(
            raw_ids
                .iter()
                .enumerate()
                .map(|(i, &x)| (OriginalId::new(x), net.output_of(i))),
        )
    }

    #[test]
    fn fault_free_run_renames_cleanly() {
        let cfg = SystemConfig::new(4, 1).unwrap();
        let outcome = run_correct_only(cfg, Regime::LogTime, &[40, 10, 30, 20], 3);
        assert!(outcome
            .verify(cfg.namespace_bound(Regime::LogTime))
            .is_empty());
        // With no faults, everyone sees the same 4 ids: names are the exact
        // ranks 1..4.
        assert_eq!(outcome.name_of(OriginalId::new(10)), Some(NewName::new(1)));
        assert_eq!(outcome.name_of(OriginalId::new(40)), Some(NewName::new(4)));
    }

    #[test]
    fn constant_time_regime_runs_eight_steps() {
        let cfg = SystemConfig::new(16, 3).unwrap();
        let ids: Vec<u64> = (0..16).map(|i| 1000 + 7 * i).collect();
        let outcome = run_correct_only(cfg, Regime::ConstantTime, &ids, 5);
        // Strong renaming: namespace is exactly N.
        assert!(outcome.verify(16).is_empty());
    }

    #[test]
    fn log_time_step_count_matches_formula() {
        for (n, t) in [(4usize, 1usize), (7, 2), (13, 4)] {
            let cfg = SystemConfig::new(n, t).unwrap();
            let p = OrderPreservingRenaming::new(cfg, Regime::LogTime, OriginalId::new(1)).unwrap();
            assert_eq!(
                p.total_steps,
                3 * opr_types::math::ceil_log2(t) + 7,
                "N={n} t={t}"
            );
        }
    }

    #[test]
    fn probe_records_all_voting_steps() {
        let cfg = SystemConfig::new(4, 1).unwrap();
        let probe = shared_probe();
        let mut p = OrderPreservingRenaming::new(cfg, Regime::LogTime, OriginalId::new(5)).unwrap();
        p.attach_probe(probe.clone());
        let actors: Vec<Box<dyn Actor<Msg = Alg1Msg, Output = NewName>>> = vec![
            Box::new(p),
            Box::new(
                OrderPreservingRenaming::new(cfg, Regime::LogTime, OriginalId::new(6)).unwrap(),
            ),
            Box::new(
                OrderPreservingRenaming::new(cfg, Regime::LogTime, OriginalId::new(7)).unwrap(),
            ),
            Box::new(
                OrderPreservingRenaming::new(cfg, Regime::LogTime, OriginalId::new(8)).unwrap(),
            ),
        ];
        let mut net = Network::new(actors, Topology::seeded(4, 9));
        net.run(7);
        // Snapshot at step 4 + one per voting step (5, 6, 7).
        assert_eq!(probe.lock().unwrap().snapshots.len(), 4);
        assert_eq!(probe.lock().unwrap().snapshots[0].step, 4);
        assert_eq!(probe.lock().unwrap().rejected_votes, 0);
    }

    #[test]
    fn recorder_captures_the_decision_waterfall() {
        let cfg = SystemConfig::new(4, 1).unwrap();
        let recorder = opr_obs::shared_recorder();
        let mut p = OrderPreservingRenaming::new(cfg, Regime::LogTime, OriginalId::new(5)).unwrap();
        p.attach_recorder(recorder.clone());
        let mut actors: Vec<Box<dyn Actor<Msg = Alg1Msg, Output = NewName>>> = vec![Box::new(p)];
        for id in [6u64, 7, 8] {
            actors.push(Box::new(
                OrderPreservingRenaming::new(cfg, Regime::LogTime, OriginalId::new(id)).unwrap(),
            ));
        }
        let mut net = Network::new(actors, Topology::seeded(4, 9));
        assert!(net.run(7).completed);
        let events = recorder.lock().unwrap().clone().into_events();
        let kinds: BTreeSet<&str> = events.iter().map(|e| e.kind()).collect();
        // Flood decisions, vote validation, per-id means and the decision
        // all show up; a fault-free run rejects and drops nothing.
        for expected in [
            "id-seen",
            "echo-threshold",
            "ready-threshold",
            "accept-threshold",
            "vote-vector",
            "vote-accepted",
            "trimmed-mean",
            "decided",
        ] {
            assert!(kinds.contains(expected), "missing {expected}: {kinds:?}");
        }
        assert!(!kinds.contains("vote-rejected"));
        assert!(!kinds.contains("id-dropped"));
        // 4 announcements seen, one Decided event at the final step.
        assert_eq!(events.iter().filter(|e| e.kind() == "id-seen").count(), 4);
        let decided: Vec<_> = events.iter().filter(|e| e.kind() == "decided").collect();
        assert_eq!(decided.len(), 1);
        assert_eq!(decided[0].step(), 7);
        // Threshold events carry the real quorum arithmetic: N−t = 3.
        assert!(events.iter().any(|e| matches!(
            e,
            opr_obs::ProtocolEvent::EchoThreshold {
                echoes: 4,
                quorum: 3,
                kept: true,
                ..
            }
        )));
    }

    /// `n` correct processes (ids 5, 6, …) hand-driven through id selection
    /// and the first voting step; `tamper` rewrites, per link, the vote
    /// vector process 0 receives at step 5. Returns process 0's step-5
    /// events and its probe.
    fn first_voting_step(
        (n, t): (usize, usize),
        tamper: impl Fn(LinkId, &mut Vec<(OriginalId, opr_types::Rank)>),
    ) -> (Vec<ProtocolEvent>, crate::probe::ProcessProbe) {
        let cfg = SystemConfig::new(n, t).unwrap();
        let (recorder, probe) = (opr_obs::shared_recorder(), shared_probe());
        let mut actors: Vec<OrderPreservingRenaming> = (5..5 + n as u64)
            .map(|id| {
                OrderPreservingRenaming::new(cfg, Regime::LogTime, OriginalId::new(id)).unwrap()
            })
            .collect();
        actors[0].attach_recorder(recorder.clone());
        actors[0].attach_probe(probe.clone());
        let mut round = Round::FIRST;
        for step in 1..=5 {
            let sent: Vec<Alg1Msg> = actors
                .iter_mut()
                .map(|a| match a.send(round) {
                    Outbox::Broadcast(msg) => msg,
                    other => panic!("correct processes broadcast, got {other:?}"),
                })
                .collect();
            for (receiver, actor) in actors.iter_mut().enumerate() {
                let inbox = sent.iter().enumerate().map(|(sender, msg)| {
                    let link = LinkId::new(sender + 1);
                    let mut msg = msg.clone();
                    if let (5, 0, Alg1Msg::Votes(wire)) = (step, receiver, &mut msg) {
                        tamper(link, wire);
                    }
                    (link, msg)
                });
                actor.deliver(round, inbox.collect());
            }
            round = round.next();
        }
        let mut events = recorder.lock().unwrap().clone().into_events();
        events.retain(|e| e.step() == 5);
        let probe = probe.lock().unwrap().clone();
        (events, probe)
    }

    #[test]
    fn a_descending_vector_is_read_as_its_sorted_self_and_a_duplicate_rejected() {
        let (descending, duplicated) = (LinkId::new(2), LinkId::new(3));
        let duplicate = |link, wire: &mut Vec<_>| {
            if link == duplicated {
                wire.push(wire[0]);
            }
        };
        // The twin differs only in the order of one valid vector.
        let (twin_events, twin_probe) = first_voting_step((4, 1), duplicate);
        let (events, probe) = first_voting_step((4, 1), |link, wire| {
            duplicate(link, wire);
            if link == descending {
                wire.reverse();
                assert!(wire.windows(2).all(|w| w[0].0 > w[1].0));
            }
        });
        assert!(events.contains(&ProtocolEvent::VoteAccepted {
            step: 5,
            link: descending,
            entries: 4,
        }));
        assert!(events.contains(&ProtocolEvent::VoteRejected {
            step: 5,
            link: duplicated,
            violation: ValidityViolation::MalformedVector,
        }));
        assert_eq!(probe.rejected_votes, 1);
        // Same events, same resulting ranks: the sorted copy is
        // indistinguishable from the vector sent in order.
        assert_eq!(events, twin_events);
        assert_eq!(probe.snapshots.last().unwrap().step, 5);
        assert_eq!(probe.snapshots, twin_probe.snapshots);
        assert_eq!(probe.snapshots.last().unwrap().ranks.len(), 4);
    }

    /// Folding is invisible per link. At (7, 2) every correct vector is the
    /// same bits; links 3 and 4 carry one duplicate-id vector instead, so
    /// the common vector arrives as a run of two and a run of three. Each
    /// link still gets its own `VoteAccepted` / `VoteRejected` (the second
    /// malformed link by folding), `rejected_votes` counts links, and
    /// `TrimmedMean.votes` counts the five accepted copies.
    #[test]
    fn folded_votes_keep_one_verdict_event_per_link() {
        let (n, t) = (7, 2);
        let malformed = [LinkId::new(3), LinkId::new(4)];
        let (events, probe) = first_voting_step((n, t), |link, wire| {
            if malformed.contains(&link) {
                wire[1] = wire[0];
            }
        });
        let verdicts: Vec<&ProtocolEvent> = events
            .iter()
            .filter(|e| matches!(e.kind(), "vote-accepted" | "vote-rejected"))
            .collect();
        let expected: Vec<ProtocolEvent> = (1..=n)
            .map(LinkId::new)
            .map(|link| {
                if malformed.contains(&link) {
                    ProtocolEvent::VoteRejected {
                        step: 5,
                        link,
                        violation: ValidityViolation::MalformedVector,
                    }
                } else {
                    ProtocolEvent::VoteAccepted {
                        step: 5,
                        link,
                        entries: n,
                    }
                }
            })
            .collect();
        assert_eq!(verdicts, expected.iter().collect::<Vec<_>>());
        assert_eq!(probe.rejected_votes, 2);
        let means: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                ProtocolEvent::TrimmedMean { votes, .. } => Some(*votes),
                _ => None,
            })
            .collect();
        assert_eq!(means, vec![n - 2; n]);
    }

    #[test]
    fn rejects_wrong_regime_for_config() {
        let cfg = SystemConfig::new(10, 3).unwrap(); // 10 ≤ 3²+2·3
        assert!(
            OrderPreservingRenaming::new(cfg, Regime::ConstantTime, OriginalId::new(1)).is_err()
        );
    }

    #[test]
    #[should_panic(expected = "TwoStepRenaming")]
    fn rejects_two_step_regime() {
        let cfg = SystemConfig::new(22, 3).unwrap();
        let _ = OrderPreservingRenaming::new(cfg, Regime::TwoStep, OriginalId::new(1));
    }

    #[test]
    fn zero_fault_configuration_works() {
        let cfg = SystemConfig::new(3, 0).unwrap();
        let outcome = run_correct_only(cfg, Regime::LogTime, &[9, 1, 5], 2);
        assert!(outcome.verify(3).is_empty());
    }
}
