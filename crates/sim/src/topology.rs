//! Full-mesh topology with per-process local link labelling.
//!
//! Process `p`'s links are labelled `1 ⋯ N`; label `N` is always the
//! self-loop (paper, Section II). The mapping from labels to peers is a
//! per-process permutation: *locally* meaningful, *globally* meaningless.
//! [`Topology::seeded`] draws independent random permutations so that any
//! protocol that smuggles identity information through labels breaks
//! deterministically in tests.

use opr_types::{LinkId, ProcessIndex};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The full mesh with each process's local link labelling.
#[derive(Clone, Debug)]
pub struct Topology {
    n: usize,
    /// `slots[p * n + l - 1]`: where process `p`'s link `l` lands.
    slots: Vec<Slot>,
    /// `label_of[r * n + s]` = label the receiver `r`'s side gives to the
    /// link from `s`.
    label_of: Vec<LinkId>,
}

/// Where one link lands: the process at its far end and the 0-based index
/// of that process's own label for the link — the engine's `(sender, link)
/// → row slot` lookup.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Slot {
    pub(crate) receiver: u32,
    pub(crate) label: u32,
}

impl Topology {
    /// A topology whose labellings are independent seeded permutations of
    /// the peers (self-loop fixed at label `N`).
    pub fn seeded(n: usize, seed: u64) -> Self {
        assert!(n >= 1, "topology needs at least one process");
        let mut topology = Topology {
            n,
            slots: Vec::with_capacity(n * n),
            label_of: Vec::with_capacity(n * n),
        };
        topology.reseed(seed);
        topology
    }

    /// Relabels the mesh in place as [`Topology::seeded`]`(n, seed)` labels
    /// it, keeping both tables' storage.
    pub(crate) fn reseed(&mut self, seed: u64) {
        let n = self.n;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x746f_706f_6c6f_6779);
        // The peer table first, in the receiver fields; `label` below.
        self.slots.clear();
        for p in 0..n {
            let peers = self.slots.len();
            self.slots.extend((0..n).filter(|&q| q != p).map(|q| Slot {
                receiver: q as u32,
                label: 0,
            }));
            self.slots[peers..].shuffle(&mut rng);
            self.slots.push(Slot {
                receiver: p as u32,
                label: 0,
            }); // label N: self-loop
        }
        self.label();
    }

    /// A topology where process `p`'s label for peer `q` follows a fixed
    /// arithmetic pattern — convenient for hand-written unit tests.
    pub fn canonical(n: usize) -> Self {
        assert!(n >= 1, "topology needs at least one process");
        let slots = (0..n)
            .flat_map(|p| (1..=n).map(move |off| (p + off) % n))
            .map(|peer| Slot {
                receiver: peer as u32,
                label: 0,
            })
            .collect();
        let mut topology = Topology {
            n,
            slots,
            label_of: Vec::with_capacity(n * n),
        };
        topology.label();
        topology
    }

    /// Fills `label_of` and every slot's `label` from the peer table held
    /// in the slots' `receiver` fields: `slots[p * n + l - 1].receiver` is
    /// the process `p` reaches via label `l`.
    fn label(&mut self) {
        let n = self.n;
        debug_assert_eq!(self.slots.len(), n * n);
        self.label_of.clear();
        self.label_of.resize(n * n, LinkId::new(1));
        for (p, peers) in self.slots.chunks(n).enumerate() {
            debug_assert_eq!(
                peers[n - 1].receiver as usize,
                p,
                "label N must be the self-loop"
            );
            for (idx, peer) in peers.iter().enumerate() {
                // `p`'s link idx+1 joins it to `peer`, so messages from
                // `peer` arrive at `p` on that label: the incoming label is
                // defined by the receiver's own table.
                self.label_of[p * n + peer.receiver as usize] = LinkId::new(idx + 1);
            }
        }
        for (i, slot) in self.slots.iter_mut().enumerate() {
            slot.label = self.label_of[slot.receiver as usize * n + i / n].index() as u32;
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Where `sender`'s link `link` lands.
    pub(crate) fn slot(&self, sender: ProcessIndex, link: LinkId) -> Slot {
        self.slots[sender.index() * self.n + link.index()]
    }

    /// The process reached from `sender` via local link label `link`.
    ///
    /// # Panics
    ///
    /// Panics if `link.label() > N` or `sender` is out of range.
    pub fn peer(&self, sender: ProcessIndex, link: LinkId) -> ProcessIndex {
        assert!(link.label() <= self.n, "link label out of range");
        ProcessIndex::new(self.slot(sender, link).receiver as usize)
    }

    /// The label `receiver` gives to its link from `sender` (the label the
    /// receiver observes when `sender`'s message arrives).
    pub fn incoming_label(&self, receiver: ProcessIndex, sender: ProcessIndex) -> LinkId {
        assert!(sender.index() < self.n, "sender out of range");
        self.label_of[receiver.index() * self.n + sender.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn check_wellformed(topo: &Topology) {
        let n = topo.n();
        for p in 0..n {
            let p = ProcessIndex::new(p);
            // Label N is the self-loop.
            assert_eq!(topo.peer(p, LinkId::new(n)), p);
            // Labels 1..N-1 hit each other process exactly once.
            let peers: BTreeSet<usize> = (1..n)
                .map(|l| topo.peer(p, LinkId::new(l)).index())
                .collect();
            assert_eq!(peers.len(), n - 1);
            assert!(!peers.contains(&p.index()));
            // incoming_label is the inverse of peer.
            for l in 1..=n {
                let link = LinkId::new(l);
                let q = topo.peer(p, link);
                assert_eq!(topo.incoming_label(p, q), link, "inverse at p={p:?} l={l}");
            }
        }
    }

    #[test]
    fn canonical_topology_is_wellformed() {
        for n in 1..=8 {
            check_wellformed(&Topology::canonical(n));
        }
    }

    #[test]
    fn seeded_topology_is_wellformed() {
        for seed in 0..5 {
            check_wellformed(&Topology::seeded(7, seed));
        }
    }

    #[test]
    fn seeded_topology_is_deterministic() {
        let a = Topology::seeded(6, 99);
        let b = Topology::seeded(6, 99);
        for p in 0..6 {
            for l in 1..=6 {
                assert_eq!(
                    a.peer(ProcessIndex::new(p), LinkId::new(l)),
                    b.peer(ProcessIndex::new(p), LinkId::new(l))
                );
            }
        }
    }

    #[test]
    fn reseeding_in_place_is_seeding_anew() {
        let mut topology = Topology::seeded(9, 1);
        for seed in [2, 77, 1] {
            topology.reseed(seed);
            let fresh = Topology::seeded(9, seed);
            for p in 0..9 {
                let p = ProcessIndex::new(p);
                for l in 1..=9 {
                    let link = LinkId::new(l);
                    assert_eq!(topology.peer(p, link), fresh.peer(p, link));
                    let q = fresh.peer(p, link);
                    assert_eq!(topology.incoming_label(q, p), fresh.incoming_label(q, p));
                }
            }
        }
    }

    #[test]
    fn different_seeds_give_different_labellings() {
        let a = Topology::seeded(16, 1);
        let b = Topology::seeded(16, 2);
        let mut differs = false;
        for p in 0..16 {
            for l in 1..16 {
                if a.peer(ProcessIndex::new(p), LinkId::new(l))
                    != b.peer(ProcessIndex::new(p), LinkId::new(l))
                {
                    differs = true;
                }
            }
        }
        assert!(differs, "seeds should shuffle labels differently");
    }

    #[test]
    fn labels_are_local_not_global() {
        // In the seeded topology there exist p, q where p's label for q
        // differs from q's label for p — labels carry no global identity.
        let topo = Topology::seeded(10, 3);
        let asymmetric = (0..10).any(|p| {
            (0..10).any(|q| {
                p != q
                    && topo.incoming_label(ProcessIndex::new(p), ProcessIndex::new(q))
                        != topo.incoming_label(ProcessIndex::new(q), ProcessIndex::new(p))
            })
        });
        assert!(asymmetric);
    }

    #[test]
    fn single_process_topology() {
        let topo = Topology::canonical(1);
        assert_eq!(
            topo.peer(ProcessIndex::new(0), LinkId::new(1)),
            ProcessIndex::new(0)
        );
    }
}
