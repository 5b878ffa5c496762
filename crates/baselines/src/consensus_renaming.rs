//! B2: renaming via consensus — the Ω(t)-round route the paper argues
//! against.

use crate::phase_king::{ConsensusMsg, VectorPhaseKing};
use opr_rbcast::{EchoReadyFlood, FloodMsg, IdInterner};
use opr_sim::{Actor, Inbox, Outbox, WireSize, TAG_BITS};
use opr_types::{LinkId, NewName, OriginalId, Round, SystemConfig};
use std::collections::BTreeSet;

/// Messages: the id-selection flood followed by phase-king consensus on the
/// membership of each candidate id.
#[derive(Clone, Debug, PartialEq)]
pub enum B2Msg {
    /// Rounds 1–4: id selection.
    Flood(FloodMsg<OriginalId>),
    /// Rounds 5..4+2(t+1): per-id membership consensus.
    Consensus(ConsensusMsg<OriginalId>),
}

impl WireSize for B2Msg {
    fn wire_bits(&self) -> u64 {
        match self {
            B2Msg::Flood(f) => TAG_BITS + f.wire_bits(),
            B2Msg::Consensus(c) => TAG_BITS + c.wire_bits(),
        }
    }
}

/// A correct process of the consensus-based baseline.
///
/// Phase A (rounds 1–4) is the paper's own id-selection flood; phase B runs
/// phase-king consensus on every candidate id's membership bit. All correct
/// processes then hold the *same* final id set, so ranking it is trivially
/// order-preserving — at the price of `2(t+1)` extra rounds and the granted
/// global numbering (see the crate docs for why that gift is conservative).
#[derive(Clone, Debug)]
pub struct ConsensusRenaming {
    cfg: SystemConfig,
    my_id: OriginalId,
    flood: EchoReadyFlood<OriginalId>,
    consensus: Option<VectorPhaseKing<OriginalId>>,
    my_index: usize,
    king_links: Vec<LinkId>,
    decided: Option<NewName>,
}

impl ConsensusRenaming {
    /// Creates a correct process. `my_index`/`king_links` encode the granted
    /// global numbering (see [`king_links_for`](crate::phase_king::king_links_for)).
    ///
    /// # Panics
    ///
    /// Panics unless `N ≥ 4t + 2` (inherited from phase king).
    pub fn new(
        cfg: SystemConfig,
        my_id: OriginalId,
        my_index: usize,
        king_links: Vec<LinkId>,
    ) -> Self {
        assert!(
            cfg.n() >= 4 * cfg.t() + 2,
            "consensus baseline needs N ≥ 4t + 2"
        );
        ConsensusRenaming {
            cfg,
            my_id,
            flood: EchoReadyFlood::with_interner(cfg.n(), cfg.t(), Some(my_id), IdInterner::new()),
            consensus: None,
            my_index,
            king_links,
            decided: None,
        }
    }

    /// Total rounds: 4 (id selection) + 2(t+1) (phase king).
    pub fn total_rounds(t: usize) -> u32 {
        4 + 2 * (t as u32 + 1)
    }
}

impl Actor for ConsensusRenaming {
    type Msg = B2Msg;
    type Output = NewName;

    fn send(&mut self, round: Round) -> Outbox<B2Msg> {
        let r = round.number();
        if r <= 4 {
            match self.flood.send(r) {
                Some(m) => Outbox::Broadcast(B2Msg::Flood(m)),
                None => Outbox::Silent,
            }
        } else if r <= Self::total_rounds(self.cfg.t()) {
            let inner_round = Round::new(r - 4);
            match self
                .consensus
                .as_mut()
                .expect("consensus initialized at end of round 4")
                .send(inner_round)
            {
                Outbox::Silent => Outbox::Silent,
                Outbox::Broadcast(m) => Outbox::Broadcast(B2Msg::Consensus(m)),
                Outbox::Multicast(entries) => Outbox::Multicast(
                    entries
                        .into_iter()
                        .map(|(l, m)| (l, B2Msg::Consensus(m)))
                        .collect(),
                ),
            }
        } else {
            Outbox::Silent
        }
    }

    fn deliver(&mut self, round: Round, inbox: Inbox<B2Msg>) {
        let r = round.number();
        if r <= 4 {
            // Borrowed view straight over the shared broadcast payloads —
            // the flood never sees an owned per-receiver inbox.
            self.flood.deliver(
                r,
                inbox.messages().filter_map(|(l, m)| match m {
                    B2Msg::Flood(f) => Some((l, f)),
                    _ => None,
                }),
            );
            if r == 4 {
                let result = self.flood.result().expect("flood finishes at step 4");
                let accepted = result.accepted.iter().copied().collect();
                self.consensus = Some(VectorPhaseKing::new(
                    self.cfg.n(),
                    self.cfg.t(),
                    self.my_index,
                    self.king_links.clone(),
                    accepted,
                ));
            }
        } else if r <= Self::total_rounds(self.cfg.t()) {
            let inner_round = Round::new(r - 4);
            let consensus = self
                .consensus
                .as_mut()
                .expect("consensus initialized at end of round 4");
            consensus.deliver_borrowed(
                inner_round,
                inbox.messages().filter_map(|(l, m)| match m {
                    B2Msg::Consensus(c) => Some((l, c)),
                    _ => None,
                }),
            );
            if let Some(decided_set) = consensus.output() {
                let final_set: BTreeSet<OriginalId> = decided_set;
                let rank = final_set
                    .iter()
                    .position(|&id| id == self.my_id)
                    .expect("validity: own id decided into the set");
                self.decided = Some(NewName::new(rank as i64 + 1));
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
    use crate::phase_king::king_links_for;
    use opr_sim::{Network, Topology};
    use opr_types::RenamingOutcome;

    fn run(cfg: SystemConfig, raw_ids: &[u64], silent: usize, seed: u64) -> RenamingOutcome {
        assert_eq!(raw_ids.len() + silent, cfg.n());
        let topo = Topology::seeded(cfg.n(), seed);
        let mut actors: Vec<Box<dyn Actor<Msg = B2Msg, Output = NewName>>> = Vec::new();
        let mut correct = Vec::new();
        // Silent Byzantine actors occupy the first `silent` slots.
        struct SilentB2;
        impl Actor for SilentB2 {
            type Msg = B2Msg;
            type Output = NewName;
            fn send(&mut self, _r: Round) -> Outbox<B2Msg> {
                Outbox::Silent
            }
            fn deliver(&mut self, _r: Round, _i: Inbox<B2Msg>) {}
            fn output(&self) -> Option<NewName> {
                None
            }
        }
        for _ in 0..silent {
            actors.push(Box::new(SilentB2));
            correct.push(false);
        }
        for (offset, &x) in raw_ids.iter().enumerate() {
            let index = silent + offset;
            actors.push(Box::new(ConsensusRenaming::new(
                cfg,
                OriginalId::new(x),
                index,
                king_links_for(&topo, index),
            )));
            correct.push(true);
        }
        let mut net = Network::with_faults(actors, correct, topo);
        let report = net.run(ConsensusRenaming::total_rounds(cfg.t()));
        assert!(report.completed, "B2 must decide in 4 + 2(t+1) rounds");
        RenamingOutcome::new(
            raw_ids
                .iter()
                .enumerate()
                .map(|(i, &x)| (OriginalId::new(x), net.output_of(silent + i))),
        )
    }

    #[test]
    fn fault_free_consensus_renaming_is_exact() {
        let cfg = SystemConfig::new(6, 1).unwrap();
        let outcome = run(cfg, &[60, 10, 50, 20, 40, 30], 0, 3);
        assert!(outcome.verify(6).is_empty());
        assert_eq!(outcome.name_of(OriginalId::new(10)), Some(NewName::new(1)));
        assert_eq!(outcome.name_of(OriginalId::new(60)), Some(NewName::new(6)));
    }

    #[test]
    fn tolerates_silent_byzantine() {
        let cfg = SystemConfig::new(6, 1).unwrap();
        for seed in 0..5 {
            let outcome = run(cfg, &[11, 22, 33, 44, 55], 1, seed);
            assert!(
                outcome
                    .verify(cfg.namespace_bound(opr_types::Regime::LogTime))
                    .is_empty(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn all_correct_agree_because_consensus() {
        // The defining feature vs Algorithm 1: *exact* agreement on the id
        // set, so names are exactly the ranks in a common set.
        let cfg = SystemConfig::new(10, 2).unwrap();
        let ids: Vec<u64> = (1..=8).map(|i| i * 5).collect();
        let outcome = run(cfg, &ids, 2, 7);
        assert!(outcome.verify(12).is_empty());
        // Names must be a prefix-dense ranking 1..=8 (no holes) because all
        // correct processes decided the same set of exactly 8 ids.
        let names: Vec<i64> = ids
            .iter()
            .map(|&x| outcome.name_of(OriginalId::new(x)).unwrap().raw())
            .collect();
        let expected: Vec<i64> = (1..=8).collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn round_budget_is_linear_in_t() {
        assert_eq!(ConsensusRenaming::total_rounds(1), 8);
        assert_eq!(ConsensusRenaming::total_rounds(4), 14);
        assert_eq!(ConsensusRenaming::total_rounds(10), 26);
    }

    #[test]
    #[should_panic(expected = "4t + 2")]
    fn rejects_insufficient_resilience() {
        let cfg = SystemConfig::new(5, 1).unwrap();
        let _ = ConsensusRenaming::new(
            cfg,
            OriginalId::new(1),
            0,
            (1..=5).map(LinkId::new).collect(),
        );
    }
}
