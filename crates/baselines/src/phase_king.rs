//! Synchronous Byzantine consensus — the substrate of the consensus-based
//! renaming baseline (B2): phase king over a vector of binary instances.
//!
//! The paper argues (Sections I and III) that renaming *via consensus* is
//! viable in synchronous systems but needs `Ω(t)` rounds, whereas its own
//! algorithms need `O(log t)` or `O(1)`. To reproduce that comparison we
//! implement the classic **phase-king** protocol (Berman & Garay): `t + 1`
//! phases of two rounds each — a universal exchange followed by a king
//! broadcast — deciding after `2(t + 1)` rounds.
//!
//! # Model substitution (documented in DESIGN.md)
//!
//! Phase king requires a rotating, globally-agreed king, i.e. globally
//! consistent process numbering — which the paper's model deliberately lacks
//! (a receiver knows only local link labels). We grant the baseline this
//! *extra power*; it is used purely as a round/message-cost comparator, and
//! the gift only makes the baseline look better. The simple two-round phase
//! king also requires `N ≥ 4t + 2` rather than the optimal `N > 3t`;
//! baseline sweeps use `N = max(4t + 2, …)` accordingly.

use opr_rbcast::{for_each_slot, IdInterner, WORD_BITS};
use opr_sim::{Actor, Inbox, Outbox, WireSize, COUNT_BITS, TAG_BITS};
use opr_types::Round;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;

/// Phase-king messages: the universal exchange and the king broadcast, each
/// carrying one bit per live instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConsensusMsg<V> {
    /// Odd rounds: every process's current preferences.
    Pref(BTreeMap<V, bool>),
    /// Even rounds: the phase king's preferences.
    King(BTreeMap<V, bool>),
}

impl<V: WireSize> WireSize for ConsensusMsg<V> {
    fn wire_bits(&self) -> u64 {
        let map = match self {
            ConsensusMsg::Pref(m) | ConsensusMsg::King(m) => m,
        };
        TAG_BITS + COUNT_BITS + map.keys().map(|v| v.wire_bits() + 1).sum::<u64>()
    }
}

/// A correct phase-king participant deciding a set of values: one binary
/// consensus instance per key, all advancing in lock-step.
///
/// Instances are created lazily: a key first seen in another process's
/// message joins with preference `false`. This keeps the key universe open
/// (processes need not agree beforehand on which candidate ids exist) while
/// preserving validity for keys all correct processes start with.
///
/// Decides after `2(t + 1)` rounds with the set of keys whose instance
/// decided `true`.
#[derive(Clone, Debug)]
pub(crate) struct VectorPhaseKing<V> {
    n: usize,
    t: usize,
    /// This process's position in the (globally consistent, granted) king
    /// rotation: process `k` is king of phase `k + 1`.
    my_index: usize,
    /// `king_links[k]` = the local link label on which messages from the
    /// process at rotation position `k` arrive (self-loop for `my_index`).
    /// This encodes the granted global numbering: without it a Byzantine
    /// process could impersonate the king (see the module docs).
    king_links: Vec<opr_types::LinkId>,
    prefs: BTreeMap<V, bool>,
    /// Key ⇄ dense-slot registry: keys repeat every round, so counting runs
    /// over flat slot-indexed arrays instead of per-(key, sender) B-tree
    /// probes. Local to this participant — slots never reach the wire.
    slots: IdInterner<V>,
    /// Majority-count per slot from the last universal exchange (`0` ⇒ the
    /// key was not voted on that round).
    counts: Vec<u32>,
    decided: Option<BTreeSet<V>>,
}

impl<V: Ord + Clone + Debug> VectorPhaseKing<V> {
    /// Creates a participant with initial `true` preferences for
    /// `initial_true`, the given rotation position, and the link map that
    /// identifies each rotation position's incoming link (`king_links[k]` is
    /// the link messages from rotation position `k` arrive on).
    ///
    /// # Panics
    ///
    /// Panics unless `n ≥ 4t + 2` (the resilience this two-round phase king
    /// needs), `my_index < n`, and `king_links` covers all `n` positions.
    pub(crate) fn new(
        n: usize,
        t: usize,
        my_index: usize,
        king_links: Vec<opr_types::LinkId>,
        initial_true: BTreeSet<V>,
    ) -> Self {
        assert!(
            n >= 4 * t + 2,
            "phase king needs N ≥ 4t + 2 (got N={n}, t={t})"
        );
        assert!(my_index < n, "rotation position out of range");
        assert_eq!(king_links.len(), n, "king_links must cover all positions");
        VectorPhaseKing {
            n,
            t,
            my_index,
            king_links,
            prefs: initial_true.into_iter().map(|v| (v, true)).collect(),
            slots: IdInterner::new(),
            counts: Vec::new(),
            decided: None,
        }
    }

    fn phase_of(round: Round) -> usize {
        ((round.number() - 1) / 2 + 1) as usize
    }

    fn is_exchange_round(round: Round) -> bool {
        round.number() % 2 == 1
    }

    /// Delivers one round of messages from any borrowed `(link, &msg)` view.
    ///
    /// This is the zero-copy twin of the [`Actor::deliver`] impl: embedding
    /// protocols (e.g. the B2 baseline, whose wire type wraps
    /// [`ConsensusMsg`]) pass a `filter_map` view straight over their own
    /// inbox instead of materializing an owned `Inbox<ConsensusMsg<V>>` per
    /// receiver per round.
    pub(crate) fn deliver_borrowed<'a, I>(&mut self, round: Round, inbox: I)
    where
        V: 'a,
        I: IntoIterator<Item = (opr_types::LinkId, &'a ConsensusMsg<V>)>,
    {
        if self.decided.is_some() {
            return;
        }
        if Self::is_exchange_round(round) {
            // Universal exchange: adopt the majority per key; remember its
            // support count for the king round's threshold test. Keys are
            // interned to dense slots (stable across rounds), so the
            // per-sender inner loop is one intern + two array bumps.
            let mut yes: Vec<u32> = vec![0; self.slots.len()];
            let mut voted: Vec<u64> = Vec::new();
            for (_, msg) in inbox {
                if let ConsensusMsg::Pref(map) = msg {
                    for (v, &b) in map {
                        let slot = self.slots.intern(v) as usize;
                        if yes.len() <= slot {
                            yes.resize(self.slots.len(), 0);
                        }
                        let word = slot / WORD_BITS;
                        if voted.len() <= word {
                            voted.resize(word + 1, 0);
                        }
                        voted[word] |= 1u64 << (slot % WORD_BITS);
                        if b {
                            yes[slot] += 1;
                        }
                    }
                }
            }
            self.counts.clear();
            self.counts.resize(self.slots.len(), 0);
            for_each_slot(&voted, |slot| {
                // Keys we have never seen join with pref=false implicitly.
                // Absent senders count as false votes: the majority is over
                // all N processes, with silence read as false.
                let y = yes[slot] as usize;
                let no = self.n - y;
                let (maj, cnt) = if y >= no { (true, y) } else { (false, no) };
                self.prefs.insert(self.slots.value_of(slot as u32), maj);
                self.counts[slot] = cnt as u32;
            });
        } else {
            // King round: adopt the king's bit wherever our own support was
            // below the safety threshold n/2 + t + 1. Only the message from
            // the current phase king's own link counts — anything else is an
            // impersonation attempt and is ignored.
            let threshold = self.n / 2 + self.t + 1;
            let king_link = self.king_links[Self::phase_of(round) - 1];
            let king_map: Option<&BTreeMap<V, bool>> = inbox
                .into_iter()
                .find(|(l, _)| *l == king_link)
                .and_then(|(_, msg)| match msg {
                    ConsensusMsg::King(m) => Some(m),
                    _ => None,
                });
            let keys: Vec<V> = self.prefs.keys().cloned().collect();
            for v in keys {
                let count = self
                    .slots
                    .lookup(&v)
                    .and_then(|s| self.counts.get(s as usize).copied())
                    .unwrap_or(0) as usize;
                let supported = count >= threshold;
                if !supported {
                    let king_bit = king_map.and_then(|m| m.get(&v).copied()).unwrap_or(false);
                    self.prefs.insert(v, king_bit);
                }
            }
            // Also adopt king-only keys (instances we have never heard of).
            if let Some(m) = king_map {
                for (v, &b) in m {
                    self.prefs.entry(v.clone()).or_insert(b);
                }
            }
            if Self::phase_of(round) == self.t + 1 {
                self.decided = Some(
                    self.prefs
                        .iter()
                        .filter(|(_, &b)| b)
                        .map(|(v, _)| v.clone())
                        .collect(),
                );
            }
        }
    }
}

impl<V: Ord + Clone + Debug + WireSize + Send + Sync> Actor for VectorPhaseKing<V> {
    type Msg = ConsensusMsg<V>;
    type Output = BTreeSet<V>;

    fn send(&mut self, round: Round) -> Outbox<ConsensusMsg<V>> {
        if self.decided.is_some() {
            return Outbox::Silent;
        }
        if Self::is_exchange_round(round) {
            Outbox::Broadcast(ConsensusMsg::Pref(self.prefs.clone()))
        } else if Self::phase_of(round) == self.my_index + 1 {
            Outbox::Broadcast(ConsensusMsg::King(self.prefs.clone()))
        } else {
            Outbox::Silent
        }
    }

    fn deliver(&mut self, round: Round, inbox: Inbox<ConsensusMsg<V>>) {
        self.deliver_borrowed(round, inbox.messages());
    }

    fn output(&self) -> Option<BTreeSet<V>> {
        self.decided.clone()
    }
}

/// Builds the `king_links` vector for process `me` from a topology — the
/// harness-side embodiment of the granted global numbering.
pub fn king_links_for(topology: &opr_sim::Topology, me: usize) -> Vec<opr_types::LinkId> {
    (0..topology.n())
        .map(|k| {
            topology.incoming_label(
                opr_types::ProcessIndex::new(me),
                opr_types::ProcessIndex::new(k),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use opr_sim::{Network, Topology};
    use opr_types::Round as R;

    /// Key type for [`binary`] consensus (a unit that satisfies the wire-size
    /// bound of one bit-carrying key).
    #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
    struct Unit;

    impl WireSize for Unit {
        fn wire_bits(&self) -> u64 {
            1
        }
    }

    /// A single-instance (binary) phase-king participant: decides `{Unit}` for
    /// `true` or `{}` for `false`. See [`VectorPhaseKing::new`] for the
    /// `king_links` parameter.
    fn binary(
        n: usize,
        t: usize,
        my_index: usize,
        king_links: Vec<opr_types::LinkId>,
        input: bool,
    ) -> VectorPhaseKing<Unit> {
        let initial = if input {
            BTreeSet::from([Unit])
        } else {
            BTreeSet::new()
        };
        VectorPhaseKing::new(n, t, my_index, king_links, initial)
    }

    type Msg = ConsensusMsg<Unit>;
    type Out = BTreeSet<Unit>;

    impl<V> VectorPhaseKing<V> {
        /// Total rounds until decision: `2(t + 1)`.
        fn total_rounds(n_unused: usize, t: usize) -> u32 {
            let _ = n_unused;
            2 * (t as u32 + 1)
        }
    }

    /// Byzantine strategy for tests: equivocates prefs and lies as king.
    struct Liar {
        n: usize,
    }
    impl Actor for Liar {
        type Msg = Msg;
        type Output = Out;
        fn send(&mut self, round: R) -> Outbox<Msg> {
            // Send `true` to odd links, `false` to even links, every round,
            // and claim kingship messages whenever possible.
            let make = |b: bool, king: bool| {
                let map = BTreeMap::from([(Unit, b)]);
                if king {
                    ConsensusMsg::King(map)
                } else {
                    ConsensusMsg::Pref(map)
                }
            };
            let king_round = round.number().is_multiple_of(2);
            Outbox::Multicast(
                (1..=self.n)
                    .map(|l| (opr_types::LinkId::new(l), make(l % 2 == 0, king_round)))
                    .collect(),
            )
        }
        fn deliver(&mut self, _round: R, _inbox: Inbox<Msg>) {}
        fn output(&self) -> Option<Out> {
            None
        }
    }

    fn run_binary(n: usize, t: usize, inputs: &[Option<bool>], seed: u64) -> Vec<Option<bool>> {
        assert_eq!(inputs.len(), n);
        let topo = Topology::seeded(n, seed);
        let mut actors: Vec<Box<dyn Actor<Msg = Msg, Output = Out>>> = Vec::new();
        let mut correct = Vec::new();
        for (i, input) in inputs.iter().enumerate() {
            match input {
                Some(b) => {
                    actors.push(Box::new(binary(n, t, i, king_links_for(&topo, i), *b)));
                    correct.push(true);
                }
                None => {
                    actors.push(Box::new(Liar { n }));
                    correct.push(false);
                }
            }
        }
        let mut net = Network::with_faults(actors, correct.clone(), topo);
        let rounds = VectorPhaseKing::<Unit>::total_rounds(n, t);
        let report = net.run(rounds);
        assert!(
            report.completed,
            "consensus must terminate in 2(t+1) rounds"
        );
        assert_eq!(report.rounds_executed, rounds);
        (0..n)
            .map(|i| {
                if correct[i] {
                    Some(net.output_of(i).map(|s| s.contains(&Unit)).unwrap())
                } else {
                    None
                }
            })
            .collect()
    }

    #[test]
    fn unanimous_inputs_decide_that_value() {
        for value in [true, false] {
            let n = 6;
            let inputs = vec![Some(value); n];
            let outs = run_binary(n, 1, &inputs, 5);
            for o in outs.into_iter().flatten() {
                assert_eq!(o, value, "validity violated");
            }
        }
    }

    #[test]
    fn agreement_under_split_inputs_and_byzantine_king() {
        // N = 6, t = 1: the liar occupies rotation slot 0, so it is king of
        // phase 1 and lies; phase 2's king is correct and forces agreement.
        let n = 6;
        let inputs = vec![
            None,
            Some(true),
            Some(false),
            Some(true),
            Some(false),
            Some(true),
        ];
        for seed in 0..10 {
            let outs = run_binary(n, 1, &inputs, seed);
            let decided: Vec<bool> = outs.into_iter().flatten().collect();
            assert_eq!(decided.len(), 5);
            assert!(
                decided.iter().all(|&b| b == decided[0]),
                "agreement violated: {decided:?} (seed {seed})"
            );
        }
    }

    #[test]
    fn agreement_with_byzantine_in_every_rotation_slot() {
        let n = 10;
        let t = 2;
        for byz_slots in [[0usize, 1], [1, 2], [0, 2]] {
            let inputs: Vec<Option<bool>> = (0..n)
                .map(|i| {
                    if byz_slots.contains(&i) {
                        None
                    } else {
                        Some(i % 2 == 0)
                    }
                })
                .collect();
            let outs = run_binary(n, t, &inputs, 77);
            let decided: Vec<bool> = outs.into_iter().flatten().collect();
            assert!(decided.iter().all(|&b| b == decided[0]), "{decided:?}");
        }
    }

    #[test]
    fn vector_instances_decide_correct_ids() {
        // All correct processes propose {1, 2}; nobody proposes 9. The
        // decided set must contain 1 and 2 (validity) and the correct
        // processes must agree exactly.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
        struct K(u8);
        impl WireSize for K {
            fn wire_bits(&self) -> u64 {
                8
            }
        }
        let n = 6;
        let t = 1;
        let topo = Topology::seeded(n, 2);
        let mut actors: Vec<Box<dyn Actor<Msg = ConsensusMsg<K>, Output = BTreeSet<K>>>> =
            Vec::new();
        for i in 0..n {
            actors.push(Box::new(VectorPhaseKing::new(
                n,
                t,
                i,
                king_links_for(&topo, i),
                BTreeSet::from([K(1), K(2)]),
            )));
        }
        let mut net = Network::new(actors, topo);
        net.run(VectorPhaseKing::<K>::total_rounds(n, t));
        let first = net.output_of(0).unwrap();
        assert_eq!(first, BTreeSet::from([K(1), K(2)]));
        for i in 1..n {
            assert_eq!(net.output_of(i).unwrap(), first);
        }
    }

    #[test]
    #[should_panic(expected = "4t + 2")]
    fn rejects_insufficient_resilience() {
        let links = (1..=5).map(opr_types::LinkId::new).collect();
        let _ = binary(5, 1, 0, links, true);
    }

    #[test]
    fn total_rounds_is_linear_in_t() {
        assert_eq!(VectorPhaseKing::<Unit>::total_rounds(10, 0), 2);
        assert_eq!(VectorPhaseKing::<Unit>::total_rounds(10, 2), 6);
        assert_eq!(VectorPhaseKing::<Unit>::total_rounds(42, 10), 22);
    }

    #[test]
    fn message_size_counts_keys() {
        let m: ConsensusMsg<Unit> = ConsensusMsg::Pref(BTreeMap::from([(Unit, true)]));
        assert!(m.wire_bits() > 0);
    }
}
