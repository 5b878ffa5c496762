//! Algorithm 4: 2-step order-preserving renaming for `N > 2t² + t`.

use crate::messages::TwoStepMsg;
use crate::probe::SharedTwoStepProbe;
use opr_obs::{record_if, ProtocolEvent, SharedRecorder};
use opr_rbcast::{for_each_slot, IdInterner, IdSlotSet};
use opr_sim::{Actor, Inbox, Outbox};
use opr_types::{LinkId, NewName, OriginalId, Regime, Round, SystemConfig};
use std::collections::{BTreeMap, BTreeSet};

/// A correct process running Algorithm 4.
///
/// Step 1: broadcast own id; remember which id each link announced. Step 2:
/// broadcast the `timely` set as a `MultiEcho`; count validated echoes per
/// id; compute new names as cumulative offsets `min(counter, N − t)` over
/// the sorted accepted set.
///
/// The per-link validity check (`isValid`, Algorithm 4) bounds Byzantine
/// influence: an echo is counted only if (a) the sending link announced an
/// id in step 1, (b) the echo carries at most `N` ids, and (c) it shares at
/// least `N − t` ids with the receiver's own `timely` set.
#[derive(Clone, Debug)]
pub struct TwoStepRenaming {
    cfg: SystemConfig,
    my_id: OriginalId,
    clamp_offsets: bool,
    /// `linkid[lnk]` — the id announced on each link in step 1 (the paper's
    /// `linkid` array; `None` is the paper's `⊥`).
    link_id: BTreeMap<LinkId, OriginalId>,
    timely: BTreeSet<OriginalId>,
    /// `timely` as a slot bitset over [`TwoStepRenaming::interner`]: what
    /// step 2 broadcasts, and the word-AND side of the `isValid` overlap
    /// check.
    timely_set: IdSlotSet<OriginalId>,
    decided: Option<NewName>,
    probe: Option<SharedTwoStepProbe>,
    recorder: Option<SharedRecorder>,
}

/// Experimental knobs on Algorithm 4; the default is the paper's algorithm.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TwoStepTweaks {
    /// Skip the `[0, N − t]` offset clamp (ablation A2). Never use outside
    /// experiments.
    pub disable_clamp: bool,
}

impl TwoStepRenaming {
    /// Creates a correct process with original id `my_id`.
    ///
    /// # Errors
    ///
    /// Returns [`opr_types::ConfigError::RegimeViolated`] unless
    /// `N > 2t² + t`.
    pub fn new(cfg: SystemConfig, my_id: OriginalId) -> Result<Self, opr_types::ConfigError> {
        Self::with_clamp(cfg, my_id, true)
    }

    /// Like [`new`](Self::new) but with the `min(counter, N − t)` offset
    /// clamp made optional — ablation A2. The clamp is what stops Byzantine
    /// processes from skewing *correct* ids' offsets by echoing them to only
    /// some receivers (Lemma VI.2's discussion); disabling it lets the
    /// half-echo adversary break order preservation. Never disable outside
    /// experiments.
    ///
    /// # Errors
    ///
    /// Returns [`opr_types::ConfigError::RegimeViolated`] unless
    /// `N > 2t² + t`.
    pub(crate) fn with_clamp(
        cfg: SystemConfig,
        my_id: OriginalId,
        clamp_offsets: bool,
    ) -> Result<Self, opr_types::ConfigError> {
        cfg.require(Regime::TwoStep)?;
        let interner = IdInterner::new();
        Ok(TwoStepRenaming {
            cfg,
            my_id,
            clamp_offsets,
            link_id: BTreeMap::new(),
            timely: BTreeSet::new(),
            timely_set: IdSlotSet::new(&interner),
            decided: None,
            probe: None,
            recorder: None,
        })
    }

    /// Attaches a probe sink recording the final name table.
    pub(crate) fn attach_probe(&mut self, probe: SharedTwoStepProbe) {
        self.probe = Some(probe);
    }

    /// Rebases onto a shared per-run [`IdInterner`], so co-participants'
    /// `MultiEcho` bitsets arrive pre-interned and validate/count through
    /// word operations. Call before round 1 (the runner does); unshared
    /// processes interoperate bit-identically through the decode fallback.
    pub(crate) fn share_interner(&mut self, interner: IdInterner<OriginalId>) {
        self.timely_set = IdSlotSet::new(&interner);
    }

    /// The interner this process's echo bitsets are relative to.
    pub(crate) fn interner(&self) -> &IdInterner<OriginalId> {
        self.timely_set.interner()
    }

    /// Attaches a telemetry recorder capturing id announcements, echo
    /// validation verdicts and the name-offset table (see
    /// [`opr_obs::ProtocolEvent`]).
    pub(crate) fn attach_recorder(&mut self, recorder: SharedRecorder) {
        self.recorder = Some(recorder);
    }

    /// The `isValid` check of Algorithm 4 for an incoming `MultiEcho`: the
    /// timely-overlap condition is a word-parallel AND + popcount against
    /// this process's own timely bitset.
    fn echo_is_valid(&self, link: LinkId, ids: &IdSlotSet<OriginalId>) -> bool {
        if !self.link_id.contains_key(&link) || ids.len() > self.cfg.n() {
            return false;
        }
        let words = ids.words_in(self.interner());
        let common: usize = words
            .iter()
            .zip(self.timely_set.words())
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum();
        common >= self.cfg.quorum()
    }
}

impl Actor for TwoStepRenaming {
    type Msg = TwoStepMsg;
    type Output = NewName;

    fn send(&mut self, round: Round) -> Outbox<TwoStepMsg> {
        match round.number() {
            1 => Outbox::Broadcast(TwoStepMsg::Id(self.my_id)),
            2 => Outbox::Broadcast(TwoStepMsg::MultiEcho(self.timely_set.clone())),
            _ => Outbox::Silent,
        }
    }

    fn deliver(&mut self, round: Round, inbox: Inbox<TwoStepMsg>) {
        match round.number() {
            1 => {
                for (link, msg) in inbox.messages() {
                    if let TwoStepMsg::Id(id) = msg {
                        record_if(self.recorder.as_ref(), || ProtocolEvent::IdSeen {
                            step: 1,
                            link,
                            id: *id,
                        });
                        self.link_id.insert(link, *id);
                        self.timely.insert(*id);
                        self.timely_set.insert(id);
                    }
                }
            }
            2 => {
                // Valid echoes bump flat per-slot counters via word walks;
                // ids only decode (and sort) once, for the name table.
                let mut counts: Vec<u16> = Vec::new();
                let mut rejected = 0u64;
                for (link, msg) in inbox.messages() {
                    if let TwoStepMsg::MultiEcho(ids) = msg {
                        let valid = self.echo_is_valid(link, ids);
                        record_if(self.recorder.as_ref(), || ProtocolEvent::EchoCounted {
                            step: 2,
                            link,
                            ids: ids.len(),
                            valid,
                        });
                        if valid {
                            let words = ids.words_in(self.interner());
                            if counts.len() < words.len() * opr_rbcast::WORD_BITS {
                                counts.resize(words.len() * opr_rbcast::WORD_BITS, 0);
                            }
                            for_each_slot(&words, |slot| counts[slot] += 1);
                        } else {
                            rejected += 1;
                        }
                    }
                }
                // Compute new names: cumulative clamped offsets over the
                // sorted accepted set (Algorithm 4, lines 18–22).
                let interner = self.interner();
                let mut accepted: Vec<(OriginalId, usize)> = counts
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(slot, &c)| (interner.value_of(slot as u32), c as usize))
                    .collect();
                accepted.sort_by_key(|&(id, _)| id);
                let clamp = self.cfg.quorum();
                let mut accum: i64 = 0;
                let mut newid: BTreeMap<OriginalId, NewName> = BTreeMap::new();
                for &(id, raw) in &accepted {
                    let offset = if self.clamp_offsets {
                        raw.min(clamp) as i64
                    } else {
                        raw as i64
                    };
                    accum += offset;
                    record_if(self.recorder.as_ref(), || ProtocolEvent::NameOffset {
                        step: 2,
                        id,
                        echoes: raw,
                        clamped: offset as usize,
                        name: NewName::new(accum),
                    });
                    newid.insert(id, NewName::new(accum));
                }
                self.decided = newid.get(&self.my_id).copied();
                if let Some(name) = self.decided {
                    record_if(self.recorder.as_ref(), || ProtocolEvent::Decided {
                        step: 2,
                        name,
                    });
                }
                if let Some(probe) = &self.probe {
                    let mut p = probe.lock().unwrap();
                    p.newid = newid;
                    p.timely = self.timely.clone();
                    p.rejected_echoes = rejected;
                }
            }
            _ => {}
        }
    }

    fn output(&self) -> Option<NewName> {
        self.decided
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::shared_two_step_probe;
    use opr_sim::{Network, Topology};
    use opr_types::RenamingOutcome;

    fn run_correct_only(cfg: SystemConfig, raw_ids: &[u64], seed: u64) -> RenamingOutcome {
        assert_eq!(raw_ids.len(), cfg.n());
        let actors: Vec<Box<dyn Actor<Msg = TwoStepMsg, Output = NewName>>> = raw_ids
            .iter()
            .map(|&x| {
                Box::new(TwoStepRenaming::new(cfg, OriginalId::new(x)).unwrap())
                    as Box<dyn Actor<Msg = TwoStepMsg, Output = NewName>>
            })
            .collect();
        let mut net = Network::new(actors, Topology::seeded(cfg.n(), seed));
        let report = net.run(2);
        assert!(report.completed, "2-step algorithm must decide in 2 rounds");
        RenamingOutcome::new(
            raw_ids
                .iter()
                .enumerate()
                .map(|(i, &x)| (OriginalId::new(x), net.output_of(i))),
        )
    }

    #[test]
    fn fault_free_names_are_multiples_of_n() {
        // With no faults every id is echoed exactly N times, clamped to
        // N − t; names are (N−t), 2(N−t), … in id order.
        let cfg = SystemConfig::new(4, 1).unwrap();
        let outcome = run_correct_only(cfg, &[40, 10, 30, 20], 1);
        assert!(outcome.verify(16).is_empty());
        assert_eq!(outcome.name_of(OriginalId::new(10)), Some(NewName::new(3)));
        assert_eq!(outcome.name_of(OriginalId::new(20)), Some(NewName::new(6)));
        assert_eq!(outcome.name_of(OriginalId::new(40)), Some(NewName::new(12)));
    }

    #[test]
    fn namespace_stays_within_n_squared() {
        let cfg = SystemConfig::new(11, 2).unwrap(); // 11 > 2t²+t = 10
        let ids: Vec<u64> = (1..=11).map(|i| i * 11).collect();
        let outcome = run_correct_only(cfg, &ids, 4);
        assert!(outcome.verify(121).is_empty());
        assert!(outcome.max_name().unwrap().raw() <= 121);
    }

    #[test]
    fn rejects_insufficient_resilience() {
        let cfg = SystemConfig::new(21, 3).unwrap(); // 21 ≤ 2·9+3
        assert!(TwoStepRenaming::new(cfg, OriginalId::new(1)).is_err());
    }

    #[test]
    fn probe_records_tables() {
        let cfg = SystemConfig::new(4, 1).unwrap();
        let probe = shared_two_step_probe();
        let mut first = TwoStepRenaming::new(cfg, OriginalId::new(5)).unwrap();
        first.attach_probe(probe.clone());
        let mut actors: Vec<Box<dyn Actor<Msg = TwoStepMsg, Output = NewName>>> =
            vec![Box::new(first)];
        for id in [6u64, 7, 8] {
            actors.push(Box::new(
                TwoStepRenaming::new(cfg, OriginalId::new(id)).unwrap(),
            ));
        }
        let mut net = Network::new(actors, Topology::seeded(4, 2));
        net.run(2);
        let p = probe.lock().unwrap();
        assert_eq!(p.newid.len(), 4);
        assert_eq!(p.timely.len(), 4);
        assert_eq!(p.rejected_echoes, 0);
    }

    #[test]
    fn recorder_captures_echo_counts_and_name_table() {
        let cfg = SystemConfig::new(4, 1).unwrap();
        let recorder = opr_obs::shared_recorder();
        let mut first = TwoStepRenaming::new(cfg, OriginalId::new(5)).unwrap();
        first.attach_recorder(recorder.clone());
        let mut actors: Vec<Box<dyn Actor<Msg = TwoStepMsg, Output = NewName>>> =
            vec![Box::new(first)];
        for id in [6u64, 7, 8] {
            actors.push(Box::new(
                TwoStepRenaming::new(cfg, OriginalId::new(id)).unwrap(),
            ));
        }
        let mut net = Network::new(actors, Topology::seeded(4, 2));
        assert!(net.run(2).completed);
        let events = recorder.lock().unwrap().clone().into_events();
        assert_eq!(events.iter().filter(|e| e.kind() == "id-seen").count(), 4);
        // All 4 echoes validated, 4 name-table rows, one decision.
        assert!(events.iter().all(|e| e.kind() != "echo-counted"
            || matches!(e, ProtocolEvent::EchoCounted { valid: true, .. })));
        assert_eq!(
            events.iter().filter(|e| e.kind() == "echo-counted").count(),
            4
        );
        assert_eq!(
            events.iter().filter(|e| e.kind() == "name-offset").count(),
            4
        );
        // Fault-free: every id echoed 4 times, clamped to N−t = 3.
        assert!(events.iter().any(|e| matches!(
            e,
            ProtocolEvent::NameOffset {
                echoes: 4,
                clamped: 3,
                ..
            }
        )));
        assert_eq!(events.iter().filter(|e| e.kind() == "decided").count(), 1);
    }

    #[test]
    fn echo_validity_rules() {
        let cfg = SystemConfig::new(4, 1).unwrap();
        let mut p = TwoStepRenaming::new(cfg, OriginalId::new(1)).unwrap();
        // Simulate step-1 state: links 1..=4 announced ids 1..=4.
        for l in 1..=4usize {
            p.link_id.insert(LinkId::new(l), OriginalId::new(l as u64));
            p.timely.insert(OriginalId::new(l as u64));
            p.timely_set.insert(&OriginalId::new(l as u64));
        }
        // Echoes arrive on a *foreign* interner, as from an unshared peer.
        let theirs = IdInterner::new();
        let set =
            |raw: &[u64]| IdSlotSet::from_values(&theirs, raw.iter().map(|&x| OriginalId::new(x)));
        let good = set(&[1, 2, 3, 4]);
        assert!(p.echo_is_valid(LinkId::new(1), &good));
        // Unknown link (announced nothing in step 1).
        let mut q = p.clone();
        q.link_id.remove(&LinkId::new(2));
        assert!(!q.echo_is_valid(LinkId::new(2), &good));
        // Oversized echo.
        let oversized = set(&[1, 2, 3, 4, 5]);
        assert!(!p.echo_is_valid(LinkId::new(1), &oversized));
        // Too little overlap with timely: needs ≥ N−t = 3 common ids.
        let disjoint = set(&[10, 11, 12, 13]);
        assert!(!p.echo_is_valid(LinkId::new(1), &disjoint));
        let two_common = set(&[1, 2, 10, 11]);
        assert!(!p.echo_is_valid(LinkId::new(1), &two_common));
        let three_common = set(&[1, 2, 3, 10]);
        assert!(p.echo_is_valid(LinkId::new(1), &three_common));
        // Same checks with a shared interner exercise the borrowed-word path.
        let mut s = TwoStepRenaming::new(cfg, OriginalId::new(1)).unwrap();
        s.share_interner(theirs.clone());
        for l in 1..=4usize {
            s.link_id.insert(LinkId::new(l), OriginalId::new(l as u64));
            s.timely_set.insert(&OriginalId::new(l as u64));
        }
        assert!(s.echo_is_valid(LinkId::new(1), &good));
        assert!(!s.echo_is_valid(LinkId::new(1), &two_common));
    }
}
