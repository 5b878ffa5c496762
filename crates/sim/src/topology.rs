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
    /// `peer_of[p][l-1]` = process reached from `p` via link label `l`.
    peer_of: Vec<Vec<ProcessIndex>>,
    /// `label_of[receiver][sender]` = label the receiver's side gives to the
    /// link from `sender`.
    label_of: Vec<Vec<LinkId>>,
}

impl Topology {
    /// A topology whose labellings are independent seeded permutations of
    /// the peers (self-loop fixed at label `N`).
    pub fn seeded(n: usize, seed: u64) -> Self {
        assert!(n >= 1, "topology needs at least one process");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x746f_706f_6c6f_6779);
        let mut peer_of = Vec::with_capacity(n);
        for p in 0..n {
            let mut peers: Vec<ProcessIndex> =
                (0..n).filter(|&q| q != p).map(ProcessIndex::new).collect();
            peers.shuffle(&mut rng);
            peers.push(ProcessIndex::new(p)); // label N: self-loop
            peer_of.push(peers);
        }
        Self::from_peer_table(n, peer_of)
    }

    /// A topology where process `p`'s label for peer `q` follows a fixed
    /// arithmetic pattern — convenient for hand-written unit tests.
    pub fn canonical(n: usize) -> Self {
        assert!(n >= 1, "topology needs at least one process");
        let mut peer_of = Vec::with_capacity(n);
        for p in 0..n {
            let mut peers: Vec<ProcessIndex> =
                (1..n).map(|off| ProcessIndex::new((p + off) % n)).collect();
            peers.push(ProcessIndex::new(p));
            peer_of.push(peers);
        }
        Self::from_peer_table(n, peer_of)
    }

    fn from_peer_table(n: usize, peer_of: Vec<Vec<ProcessIndex>>) -> Self {
        let mut label_of = vec![vec![LinkId::new(1); n]; n];
        for (r, peers) in peer_of.iter().enumerate() {
            debug_assert_eq!(peers.len(), n);
            debug_assert_eq!(peers[n - 1].index(), r, "label N must be the self-loop");
            for (idx, peer) in peers.iter().enumerate() {
                // Receiver r sees messages from `peer` on r's link idx+1:
                // the incoming label is defined by the receiver's own table.
                label_of[r][peer.index()] = LinkId::new(idx + 1);
            }
        }
        Topology {
            n,
            peer_of,
            label_of,
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The process reached from `sender` via local link label `link`.
    ///
    /// # Panics
    ///
    /// Panics if `link.label() > N` or `sender` is out of range.
    pub fn peer(&self, sender: ProcessIndex, link: LinkId) -> ProcessIndex {
        self.peer_of[sender.index()][link.index()]
    }

    /// The label `receiver` gives to its link from `sender` (the label the
    /// receiver observes when `sender`'s message arrives).
    pub fn incoming_label(&self, receiver: ProcessIndex, sender: ProcessIndex) -> LinkId {
        self.label_of[receiver.index()][sender.index()]
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
