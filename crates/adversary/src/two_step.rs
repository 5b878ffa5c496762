//! Byzantine strategies against Algorithm 4 (2-step renaming).

use crate::fakes::fake_ids;
use opr_core::{AdversaryEnv, TwoStepMsg};
use opr_rbcast::{IdInterner, IdSlotSet};
use opr_sim::{Actor, Inbox, Outbox};
use opr_types::{LinkId, NewName, OriginalId, Round};
use std::collections::{BTreeMap, BTreeSet};

/// The Lemma VI.1 worst case: every echo message carries the maximum `2t`
/// Byzantine ids that still passes `isValid` — `t` fakes the receiver
/// already knows (announced to it in step 1) plus `t` brand-new fakes — with
/// correct ids dropped as needed to stay within the `N`-id size limit.
pub(crate) struct FakeFlooder {
    n: usize,
    t: usize,
    /// Per correct-process link: the fake announced to that link in step 1.
    announced: BTreeMap<LinkId, OriginalId>,
    /// Fakes never announced anywhere (unknown to every receiver).
    hidden_fakes: Vec<OriginalId>,
    correct_ids: Vec<OriginalId>,
    correct_links: Vec<LinkId>,
    interner: IdInterner<OriginalId>,
}

impl FakeFlooder {
    /// Creates the flooder from the adversary environment.
    pub(crate) fn new(env: &AdversaryEnv<'_>) -> Self {
        let n = env.cfg.n();
        let t = env.cfg.t();
        let correct_links = env.links_to_correct();
        // Generate enough fakes for per-link announcements plus t hidden
        // ones per slot, disjoint across slots.
        let per_slot = correct_links.len() + t;
        let all = fake_ids(env, per_slot * env.faulty_count.max(1));
        let mine: Vec<OriginalId> = all
            .iter()
            .skip(env.slot * per_slot)
            .take(per_slot)
            .copied()
            .collect();
        let announced: BTreeMap<LinkId, OriginalId> = correct_links
            .iter()
            .copied()
            .zip(mine.iter().copied())
            .collect();
        let hidden_fakes = mine[correct_links.len().min(mine.len())..].to_vec();
        FakeFlooder {
            n,
            t,
            announced,
            hidden_fakes,
            correct_ids: env.correct_ids.to_vec(),
            correct_links,
            interner: env.interner.clone(),
        }
    }
}

impl Actor for FakeFlooder {
    type Msg = TwoStepMsg;
    type Output = NewName;

    fn send(&mut self, round: Round) -> Outbox<TwoStepMsg> {
        match round.number() {
            1 => Outbox::Multicast(
                self.announced
                    .iter()
                    .map(|(&l, &f)| (l, TwoStepMsg::Id(f)))
                    .collect(),
            ),
            2 => {
                let mut entries = Vec::new();
                for &l in &self.correct_links {
                    // Receiver-specific echo: all correct ids (trimmed to
                    // make room), the fake we announced to this receiver,
                    // and t hidden fakes.
                    let mut set: BTreeSet<OriginalId> = self.correct_ids.iter().copied().collect();
                    if let Some(&f) = self.announced.get(&l) {
                        set.insert(f);
                    }
                    for &h in self.hidden_fakes.iter().take(self.t) {
                        set.insert(h);
                    }
                    // Trim largest correct ids until |set| ≤ N, keeping at
                    // least N−t overlap with the receiver's timely set.
                    while set.len() > self.n {
                        let largest_correct = self
                            .correct_ids
                            .iter()
                            .rev()
                            .find(|id| set.contains(id))
                            .copied();
                        match largest_correct {
                            Some(id) => {
                                set.remove(&id);
                            }
                            None => break,
                        }
                    }
                    entries.push((
                        l,
                        TwoStepMsg::MultiEcho(IdSlotSet::from_values(
                            &self.interner,
                            set.iter().copied(),
                        )),
                    ));
                }
                Outbox::Multicast(entries)
            }
            _ => Outbox::Silent,
        }
    }

    fn deliver(&mut self, _round: Round, _inbox: Inbox<TwoStepMsg>) {}

    fn output(&self) -> Option<NewName> {
        None
    }
}

/// Echoes a shared fake id to only half of the correct processes, so their
/// counters (and hence cumulative offsets) diverge — the discrepancy attack
/// that the `min(counter, N−t)` clamp and the `N > 2t² + t` bound absorb
/// (Lemmas VI.1, VI.2).
pub(crate) struct EchoWithholder {
    fake: OriginalId,
    correct_ids: Vec<OriginalId>,
    favoured: Vec<LinkId>,
    others: Vec<LinkId>,
    interner: IdInterner<OriginalId>,
}

impl EchoWithholder {
    /// Creates the withholder from the adversary environment.
    pub(crate) fn new(env: &AdversaryEnv<'_>) -> Self {
        // All slots share the same fake (coordinated), so its counter gets
        // t echoes at favoured receivers and 0 elsewhere.
        let fake = fake_ids(env, 1)[0];
        let links = env.links_to_correct();
        let half = links.len() / 2;
        EchoWithholder {
            fake,
            correct_ids: env.correct_ids.to_vec(),
            favoured: links[..half].to_vec(),
            others: links[half..].to_vec(),
            interner: env.interner.clone(),
        }
    }
}

impl Actor for EchoWithholder {
    type Msg = TwoStepMsg;
    type Output = NewName;

    fn send(&mut self, round: Round) -> Outbox<TwoStepMsg> {
        match round.number() {
            1 => {
                // Announce the shared fake to the favoured half only, so it
                // is in their timely sets (and counts toward overlap there).
                Outbox::Multicast(
                    self.favoured
                        .iter()
                        .map(|&l| (l, TwoStepMsg::Id(self.fake)))
                        .collect(),
                )
            }
            2 => {
                let without =
                    IdSlotSet::from_values(&self.interner, self.correct_ids.iter().copied());
                let with_fake = {
                    let mut s = without.clone();
                    s.insert(&self.fake);
                    s
                };
                let mut entries: Vec<(LinkId, TwoStepMsg)> = self
                    .favoured
                    .iter()
                    .map(|&l| (l, TwoStepMsg::MultiEcho(with_fake.clone())))
                    .collect();
                entries.extend(
                    self.others
                        .iter()
                        .map(|&l| (l, TwoStepMsg::MultiEcho(without.clone()))),
                );
                Outbox::Multicast(entries)
            }
            _ => Outbox::Silent,
        }
    }

    fn deliver(&mut self, _round: Round, _inbox: Inbox<TwoStepMsg>) {}

    fn output(&self) -> Option<NewName> {
        None
    }
}

/// The attack the offset clamp `min(counter, N − t)` exists to stop
/// (ablation A2): echo the correct ids to only half of the correct
/// processes. Counters for *every* correct id then differ by `t` across the
/// two halves; with the clamp both sides floor at `N − t` and nothing
/// happens, but without it the per-id error accumulates linearly along the
/// sorted id sequence and eventually inverts names across processes.
pub(crate) struct HalfEcho {
    fake: OriginalId,
    correct_ids: Vec<OriginalId>,
    favoured: Vec<LinkId>,
    interner: IdInterner<OriginalId>,
}

impl HalfEcho {
    /// Creates the half-echoer from the adversary environment.
    pub(crate) fn new(env: &AdversaryEnv<'_>) -> Self {
        let links = env.links_to_correct();
        let half = links.len() / 2;
        HalfEcho {
            fake: fake_ids(env, 1)[0],
            correct_ids: env.correct_ids.to_vec(),
            favoured: links[..half].to_vec(),
            interner: env.interner.clone(),
        }
    }
}

impl Actor for HalfEcho {
    type Msg = TwoStepMsg;
    type Output = NewName;

    fn send(&mut self, round: Round) -> Outbox<TwoStepMsg> {
        match round.number() {
            // Announce to everyone so our echoes pass the linkid ≠ ⊥ check.
            1 => Outbox::Broadcast(TwoStepMsg::Id(self.fake)),
            2 => {
                let set = IdSlotSet::from_values(
                    &self.interner,
                    self.correct_ids.iter().copied().chain([self.fake]),
                );
                Outbox::Multicast(
                    self.favoured
                        .iter()
                        .map(|&l| (l, TwoStepMsg::MultiEcho(set.clone())))
                        .collect(),
                )
            }
            _ => Outbox::Silent,
        }
    }

    fn deliver(&mut self, _round: Round, _inbox: Inbox<TwoStepMsg>) {}

    fn output(&self) -> Option<NewName> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opr_core::runner::{run_two_step, TwoStepOptions};
    use opr_types::SystemConfig;

    fn ids(raw: &[u64]) -> Vec<OriginalId> {
        raw.iter().map(|&x| OriginalId::new(x)).collect()
    }

    fn correct_set(raw: &[u64]) -> BTreeSet<OriginalId> {
        raw.iter().map(|&x| OriginalId::new(x)).collect()
    }

    #[test]
    fn fake_flooder_cannot_break_renaming() {
        let cfg = SystemConfig::new(11, 2).unwrap();
        let raw: Vec<u64> = (1..=9).map(|i| i * 13).collect();
        for seed in 0..5 {
            let result = run_two_step(
                cfg,
                &ids(&raw),
                2,
                |env| Some(Box::new(FakeFlooder::new(env))),
                TwoStepOptions {
                    seed,
                    ..TwoStepOptions::default()
                },
            )
            .unwrap();
            let violations = result.outcome.verify(121);
            assert!(violations.is_empty(), "seed {seed}: {violations:?}");
            // Lemma VI.1: cross-process discrepancy stays within 2t².
            let delta = result.probe.max_discrepancy(&correct_set(&raw));
            assert!(delta <= 2 * 2 * 2, "Δ = {delta} > 2t²");
        }
    }

    #[test]
    fn echo_withholder_cannot_break_renaming() {
        let cfg = SystemConfig::new(11, 2).unwrap();
        let raw: Vec<u64> = (1..=9).map(|i| i * 7 + 100).collect();
        for seed in 0..5 {
            let result = run_two_step(
                cfg,
                &ids(&raw),
                2,
                |env| Some(Box::new(EchoWithholder::new(env))),
                TwoStepOptions {
                    seed,
                    ..TwoStepOptions::default()
                },
            )
            .unwrap();
            assert!(result.outcome.verify(121).is_empty(), "seed {seed}");
            // Lemma VI.2: consecutive correct ids at least N−t apart in
            // every correct process's table.
            let gap = result.probe.min_correct_gap(&correct_set(&raw));
            assert!(gap >= (cfg.quorum()) as i64, "gap {gap} < N−t");
        }
    }

    #[test]
    fn withholder_actually_creates_discrepancy() {
        // Sanity check that the attack does something: the fake's counter
        // differs across processes, so *some* discrepancy should usually
        // exist (bounded by 2t²). If this ever measures 0 for all seeds the
        // attack has regressed into a no-op.
        let cfg = SystemConfig::new(11, 2).unwrap();
        let raw: Vec<u64> = (1..=9).map(|i| i * 10).collect();
        let mut max_delta = 0;
        for seed in 0..10 {
            let result = run_two_step(
                cfg,
                &ids(&raw),
                2,
                |env| Some(Box::new(EchoWithholder::new(env))),
                TwoStepOptions {
                    seed,
                    ..TwoStepOptions::default()
                },
            )
            .unwrap();
            max_delta = max_delta.max(result.probe.max_discrepancy(&correct_set(&raw)));
        }
        assert!(max_delta > 0, "withholder never created any discrepancy");
        assert!(max_delta <= 8, "Δ = {max_delta} exceeds 2t²");
    }

    #[test]
    fn half_echo_is_harmless_with_the_clamp() {
        // The A2 ablation adversary against the *unmodified* algorithm:
        // the clamp floors both halves' correct-id offsets at N−t, so the
        // attack achieves nothing.
        let cfg = SystemConfig::new(11, 2).unwrap();
        let raw: Vec<u64> = (1..=9).map(|i| i * 4 + 50).collect();
        for seed in 0..5 {
            let result = run_two_step(
                cfg,
                &ids(&raw),
                2,
                |env| Some(Box::new(HalfEcho::new(env))),
                TwoStepOptions {
                    seed,
                    ..TwoStepOptions::default()
                },
            )
            .unwrap();
            assert!(result.outcome.verify(121).is_empty(), "seed {seed}");
            // Correct-id discrepancy is exactly zero: the clamp equalizes.
            assert_eq!(result.probe.max_discrepancy(&correct_set(&raw)), 0);
        }
    }

    #[test]
    fn flooder_at_minimal_two_step_resilience() {
        // t = 1 ⇒ N > 3: minimal N = 4.
        let cfg = SystemConfig::new(4, 1).unwrap();
        let result = run_two_step(
            cfg,
            &ids(&[6, 12, 25]),
            1,
            |env| Some(Box::new(FakeFlooder::new(env))),
            TwoStepOptions {
                seed: 9,
                ..TwoStepOptions::default()
            },
        )
        .unwrap();
        assert!(result.outcome.verify(16).is_empty());
    }
}
