//! B4: echo-translated Byzantine renaming — the cost model of applying a
//! crash-to-Byzantine translation \[3, 13\] to CHT, as done by
//! Okun–Barak–Gafni \[15\].

use opr_sim::{Actor, Inbox, Outbox, WireSize, COUNT_BITS, ID_BITS, TAG_BITS};
use opr_types::math::ceil_log2;
use opr_types::{NewName, OriginalId, Round, SystemConfig};
use std::collections::{BTreeMap, BTreeSet};

/// A namespace claim: `(id, lo, hi)`.
pub(crate) type Claim = (OriginalId, i64, i64);

/// Bits per claim on the wire.
const CLAIM_BITS: u64 = ID_BITS + 64;

/// Messages of the translated baseline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum B4Msg {
    /// Odd rounds: a claim.
    Claim(Claim),
    /// Even rounds: echo of all claims received in the preceding round.
    Echo(BTreeSet<Claim>),
}

impl WireSize for B4Msg {
    fn wire_bits(&self) -> u64 {
        match self {
            B4Msg::Claim(_) => TAG_BITS + CLAIM_BITS,
            B4Msg::Echo(set) => TAG_BITS + COUNT_BITS + set.len() as u64 * CLAIM_BITS,
        }
    }
}

/// A correct process of the translated baseline.
///
/// Each CHT splitting step is simulated by **two** rounds: a claim broadcast
/// followed by an echo round; only claims echoed on at least `N − t`
/// distinct links are *validated* and fed to the splitting rule. Because the
/// receiver cannot tell which ids are genuine, forged ids consume namespace:
/// the target namespace is `2N` instead of `N` — exactly the degradation the
/// paper reports for \[15\].
#[derive(Clone, Debug)]
pub struct TranslatedRenaming {
    cfg: SystemConfig,
    my_id: OriginalId,
    lo: i64,
    hi: i64,
    /// Claims received in the current claim round, per link (awaiting echo
    /// validation).
    pending: BTreeSet<Claim>,
    /// Echo support per claim in the current echo round.
    support: BTreeMap<Claim, usize>,
    total_rounds: u32,
    decided: Option<NewName>,
}

impl TranslatedRenaming {
    /// Creates a correct process.
    pub fn new(cfg: SystemConfig, my_id: OriginalId) -> Self {
        TranslatedRenaming {
            cfg,
            my_id,
            lo: 1,
            hi: 2 * cfg.n() as i64,
            pending: BTreeSet::new(),
            support: BTreeMap::new(),
            total_rounds: Self::total_rounds(cfg.n()),
            decided: None,
        }
    }

    /// Total rounds: `2 · (⌈log₂ 2N⌉ + 1)` — the 2× blow-up of the
    /// translation over CHT's `⌈log₂ N⌉ + 1`.
    pub fn total_rounds(n: usize) -> u32 {
        2 * (ceil_log2(2 * n).max(1) + 1)
    }
}

impl Actor for TranslatedRenaming {
    type Msg = B4Msg;
    type Output = NewName;

    fn send(&mut self, round: Round) -> Outbox<B4Msg> {
        let r = round.number();
        if r > self.total_rounds {
            return Outbox::Silent;
        }
        if r % 2 == 1 {
            Outbox::Broadcast(B4Msg::Claim((self.my_id, self.lo, self.hi)))
        } else {
            Outbox::Broadcast(B4Msg::Echo(self.pending.clone()))
        }
    }

    fn deliver(&mut self, round: Round, inbox: Inbox<B4Msg>) {
        let r = round.number();
        if r > self.total_rounds {
            return;
        }
        if r % 2 == 1 {
            // Claim round: stage claims for echoing.
            self.pending = inbox
                .messages()
                .filter_map(|(_, m)| match m {
                    B4Msg::Claim(c) => Some(*c),
                    _ => None,
                })
                .collect();
        } else {
            // Echo round: validate claims with ≥ N−t echo links, then apply
            // the CHT splitting rule on the validated group.
            self.support.clear();
            for (_, m) in inbox.messages() {
                if let B4Msg::Echo(set) = m {
                    for &c in set {
                        *self.support.entry(c).or_insert(0) += 1;
                    }
                }
            }
            let quorum = self.cfg.quorum();
            let mut group: Vec<OriginalId> = self
                .support
                .iter()
                .filter(|&(&(_, lo, hi), &links)| links >= quorum && lo == self.lo && hi == self.hi)
                .map(|(&(id, _, _), _)| id)
                .collect();
            group.sort_unstable();
            group.dedup();
            if group.len() > 1 && self.lo < self.hi {
                if let Some(my_pos) = group.iter().position(|&id| id == self.my_id) {
                    let g = group.len() as i64;
                    let left_size = (g + 1) / 2;
                    if (my_pos as i64) < left_size {
                        self.hi = self.lo + left_size - 1;
                    } else {
                        self.lo += left_size;
                    }
                    self.hi = self.hi.max(self.lo);
                }
            }
            if r == self.total_rounds {
                self.decided = Some(NewName::new(self.lo));
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
    use opr_sim::{Network, Topology};
    use opr_types::RenamingOutcome;

    /// Forges fake ids consistently (same claims to everyone) and otherwise
    /// follows the protocol — the attack that inflates the namespace toward
    /// 2N without breaking validation.
    struct ConsistentForger {
        inner: TranslatedRenaming,
    }
    impl Actor for ConsistentForger {
        type Msg = B4Msg;
        type Output = NewName;
        fn send(&mut self, round: Round) -> Outbox<B4Msg> {
            self.inner.send(round)
        }
        fn deliver(&mut self, round: Round, inbox: Inbox<B4Msg>) {
            self.inner.deliver(round, inbox);
        }
        fn output(&self) -> Option<NewName> {
            None
        }
    }

    fn run(
        cfg: SystemConfig,
        raw_ids: &[u64],
        forged: &[u64],
        seed: u64,
    ) -> (RenamingOutcome, u32) {
        assert_eq!(raw_ids.len() + forged.len(), cfg.n());
        let mut actors: Vec<Box<dyn Actor<Msg = B4Msg, Output = NewName>>> = Vec::new();
        let mut correct = Vec::new();
        for &f in forged {
            actors.push(Box::new(ConsistentForger {
                inner: TranslatedRenaming::new(cfg, OriginalId::new(f)),
            }));
            correct.push(false);
        }
        for &x in raw_ids {
            actors.push(Box::new(TranslatedRenaming::new(cfg, OriginalId::new(x))));
            correct.push(true);
        }
        let rounds = TranslatedRenaming::total_rounds(cfg.n());
        let mut net = Network::with_faults(actors, correct, Topology::seeded(cfg.n(), seed));
        let report = net.run(rounds);
        assert!(report.completed);
        let outcome = RenamingOutcome::new(
            raw_ids
                .iter()
                .enumerate()
                .map(|(i, &x)| (OriginalId::new(x), net.output_of(forged.len() + i))),
        );
        (outcome, report.rounds_executed)
    }

    #[test]
    fn fault_free_run_is_unique_within_2n() {
        let cfg = SystemConfig::new(6, 1).unwrap();
        let (outcome, rounds) = run(cfg, &[9, 18, 27, 36, 45, 54], &[], 2);
        assert!(outcome.verify(12).is_empty());
        assert_eq!(rounds, TranslatedRenaming::total_rounds(6));
    }

    #[test]
    fn forged_ids_consume_namespace_but_not_correctness() {
        let cfg = SystemConfig::new(7, 2).unwrap();
        let correct = [10u64, 20, 30, 40, 50];
        let (outcome, _) = run(cfg, &correct, &[15, 25], 5);
        // Uniqueness and validity within 2N must hold even with forged ids
        // interleaved among the correct ones.
        let violations = outcome.verify(14);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn round_cost_doubles_cht() {
        for n in [4usize, 8, 16] {
            let cht = crate::cht::ChtRenaming::total_rounds(n);
            let translated = TranslatedRenaming::total_rounds(n);
            assert!(
                translated >= 2 * cht,
                "n={n}: translated {translated} < 2×CHT {cht}"
            );
        }
    }

    #[test]
    fn namespace_is_not_tight_under_forgery() {
        // The paper's point about [15]: forged ids consume namespace because
        // correct processes cannot recognize them as bogus. With 2 forged
        // ids interleaved below the largest correct id, the largest correct
        // name must exceed the number of correct processes (tightness lost);
        // the guaranteed bound is only 2N.
        let cfg = SystemConfig::new(7, 2).unwrap();
        let correct = [10u64, 20, 30, 40, 50];
        let mut saw_inflation = false;
        for seed in 0..10 {
            let (outcome, _) = run(cfg, &correct, &[11, 12], seed);
            if let Some(max) = outcome.max_name() {
                if max.raw() > correct.len() as i64 {
                    saw_inflation = true;
                }
            }
        }
        assert!(
            saw_inflation,
            "forgery never inflated the namespace — attack too weak"
        );
    }
}
