//! The accepted-set divergence gadget shared by the splitting attacks.
//!
//! Within the `N > 3t` regime the Echo/Ready thresholds make acceptance
//! *nearly* binary: if `N − 2t` correct processes observe step-3 `Ready`s,
//! everyone relays and the id is accepted everywhere. The one crack is the
//! 4-step truncation — step-4 relays cannot trigger further relays. The
//! gadget drives a fake id through exactly that crack:
//!
//! * step 1: announce the fake to `S₁` = `N − 2t` correct processes (the
//!   minimum that lets any correct process reach the echo quorum, and the
//!   reason Lemma A.1's capacity bound is what it is);
//! * step 2: echo it to `T` = `N − 3t` of them — together with the `t`
//!   Byzantine echoes exactly the `N − t` echo quorum, so precisely `T`
//!   issues step-3 `Ready`s;
//! * step 3: send Byzantine `Ready`s to `R` = `t` further correct processes
//!   — `|T| + t = N − 2t` step-3 `Ready`s is exactly the relay threshold,
//!   so precisely `T ∪ R`'s `Ready`s exist by step 4 (`N − 2t` of them,
//!   below the `N − t` acceptance quorum on their own);
//! * step 4: top up with `t` Byzantine `Ready`s — but only toward the
//!   favoured half `F`, which therefore accepts the fake while everyone
//!   else does not.
//!
//! Result: `accepted` sets genuinely diverge (the fake is `timely` nowhere,
//! so Lemma IV.1 is not contradicted), producing the initial rank
//! discrepancy `Δ₅ > 0` that Lemma IV.7 bounds and the voting phase must
//! repair.

use opr_core::{AdversaryEnv, Alg1Msg};
use opr_rbcast::{FloodMsg, IdInterner, IdSlotSet};
use opr_sim::Outbox;
use opr_types::{LinkId, OriginalId};
use std::collections::BTreeSet;

/// Per-step link targeting for one fake id (see the module docs).
#[derive(Clone, Debug)]
pub(crate) struct DivergencePlan {
    /// The fake id being driven through the crack.
    pub fake: OriginalId,
    /// `S₁`: step-1 announcement targets (`N − 2t` correct links).
    pub init_links: Vec<LinkId>,
    /// `T`: step-2 echo targets (`N − 3t` correct links).
    pub echo_links: Vec<LinkId>,
    /// `R`: step-3 ready targets (`t` further correct links).
    pub ready3_links: Vec<LinkId>,
    /// `F`: step-4 ready targets (the favoured half).
    pub ready4_links: Vec<LinkId>,
    /// All correct links, in ascending order of the correct process's id.
    pub all_correct_links: Vec<LinkId>,
    /// The run interner the forged bitset payloads are built against (so
    /// they travel the receivers' zero-decode fast path).
    pub interner: IdInterner<OriginalId>,
}

impl DivergencePlan {
    /// Builds the plan with the favoured half as acceptance targets. All
    /// colluding actors derive identical target sets (links are ordered by
    /// the correct processes' ids, which every slot sees identically).
    pub(crate) fn new(env: &AdversaryEnv<'_>, fake: OriginalId) -> Self {
        let c = env.links_to_correct().len();
        Self::with_favoured(env, fake, c.div_ceil(2))
    }

    /// Builds the plan with an explicit number of favoured (fake-accepting)
    /// correct processes — the multi-fake squeezer staggers this count per
    /// fake to create a position *gradient* across processes.
    pub(crate) fn with_favoured(env: &AdversaryEnv<'_>, fake: OriginalId, favoured: usize) -> Self {
        let n = env.cfg.n();
        let t = env.cfg.t();
        let links = env.links_to_correct();
        let c = links.len();
        let s1 = n.saturating_sub(2 * t).min(c);
        let tt = n.saturating_sub(3 * t).min(c);
        let r_end = (tt + t).min(c);
        DivergencePlan {
            fake,
            init_links: links[..s1].to_vec(),
            echo_links: links[..tt].to_vec(),
            ready3_links: links[tt..r_end].to_vec(),
            ready4_links: links[..favoured.min(c)].to_vec(),
            all_correct_links: links,
            interner: env.interner.clone(),
        }
    }

    /// Whether `link` is in the favoured (fake-accepting) half.
    pub(crate) fn favours(&self, link: LinkId) -> bool {
        self.ready4_links.contains(&link)
    }

    /// The outbox for flood step `1 ..= 4`, where `base` is the id set the
    /// actor otherwise behaves honestly about (typically all correct ids it
    /// has seen).
    ///
    /// # Panics
    ///
    /// Panics for steps outside `1..=4`.
    pub(crate) fn flood_outbox(&self, step: u32, base: &BTreeSet<OriginalId>) -> Outbox<Alg1Msg> {
        let plain = IdSlotSet::from_values(&self.interner, base.iter().copied());
        let spiked = {
            let mut s = plain.clone();
            s.insert(&self.fake);
            s
        };
        match step {
            1 => Outbox::Multicast(
                self.init_links
                    .iter()
                    .map(|&l| (l, Alg1Msg::Flood(FloodMsg::Init(self.fake))))
                    .collect(),
            ),
            2 => Outbox::Multicast(
                self.all_correct_links
                    .iter()
                    .map(|&l| {
                        let set = if self.echo_links.contains(&l) {
                            spiked.clone()
                        } else {
                            plain.clone()
                        };
                        (l, Alg1Msg::Flood(FloodMsg::Echo(set)))
                    })
                    .collect(),
            ),
            3 => Outbox::Multicast(
                self.all_correct_links
                    .iter()
                    .map(|&l| {
                        let set = if self.ready3_links.contains(&l) {
                            spiked.clone()
                        } else {
                            plain.clone()
                        };
                        (l, Alg1Msg::Flood(FloodMsg::Ready(set)))
                    })
                    .collect(),
            ),
            4 => Outbox::Multicast(
                self.ready4_links
                    .iter()
                    .map(|&l| {
                        let set = IdSlotSet::from_values(&self.interner, [self.fake]);
                        (l, Alg1Msg::Flood(FloodMsg::Ready(set)))
                    })
                    .collect(),
            ),
            _ => panic!("divergence gadget covers flood steps 1..=4, got {step}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opr_sim::Topology;
    use opr_types::SystemConfig;

    fn plan_for(n: usize, t: usize) -> DivergencePlan {
        let cfg = SystemConfig::new(n, t).unwrap();
        let topo = Topology::seeded(n, 1);
        let ids: Vec<OriginalId> = (0..n - t).map(|i| OriginalId::new(i as u64 + 10)).collect();
        let assignments: Vec<(usize, OriginalId)> =
            ids.iter().enumerate().map(|(i, &id)| (i + t, id)).collect();
        let env = AdversaryEnv {
            cfg,
            slot: 0,
            faulty_count: t,
            index: 0,
            correct_ids: &ids,
            correct_assignments: &assignments,
            topology: &topo,
            seed: 1,
            interner: IdInterner::new(),
        };
        DivergencePlan::new(&env, OriginalId::new(5))
    }

    #[test]
    fn target_set_sizes_match_the_threshold_arithmetic() {
        for (n, t) in [(7usize, 2usize), (10, 3), (13, 4), (4, 1)] {
            let plan = plan_for(n, t);
            assert_eq!(plan.init_links.len(), n - 2 * t, "S₁ at N={n}");
            assert_eq!(plan.echo_links.len(), n - 3 * t, "T at N={n}");
            assert_eq!(plan.ready3_links.len(), t, "R at N={n}");
            assert_eq!(plan.all_correct_links.len(), n - t);
            // T and R are disjoint prefixes.
            for l in &plan.ready3_links {
                assert!(!plan.echo_links.contains(l));
            }
        }
    }

    #[test]
    fn flood_outboxes_are_well_formed() {
        let plan = plan_for(10, 3);
        let base: BTreeSet<OriginalId> = (0..7).map(|i| OriginalId::new(i + 10)).collect();
        for step in 1..=4 {
            match plan.flood_outbox(step, &base) {
                Outbox::Multicast(entries) => {
                    assert!(!entries.is_empty(), "step {step}");
                }
                _ => panic!("divergence gadget always multicasts"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "flood steps")]
    fn rejects_voting_steps() {
        let plan = plan_for(7, 2);
        let _ = plan.flood_outbox(5, &BTreeSet::new());
    }
}
