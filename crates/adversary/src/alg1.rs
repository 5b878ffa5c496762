//! Byzantine strategies against Algorithm 1.

use crate::fakes::fake_ids;
use opr_core::{AdversaryEnv, Alg1Msg};
use opr_rbcast::{FloodMsg, IdInterner, IdSlotSet};
use opr_sim::{Actor, Inbox, Outbox};
use opr_types::{LinkId, NewName, OriginalId, Rank, Round};
use std::collections::BTreeSet;

/// Interns `ids` into a bitset payload against the run interner — how the
/// strategies here that keep their ids in a `BTreeSet` ship their
/// Echo/Ready sets.
fn slot_set(
    interner: &IdInterner<OriginalId>,
    ids: &BTreeSet<OriginalId>,
) -> IdSlotSet<OriginalId> {
    IdSlotSet::from_values(interner, ids.iter().copied())
}

/// Builds a δ-spaced (hence always `isValid`) vote vector over `ids` with a
/// constant `shift` added to every rank — the adversary's only lever that
/// survives validation.
fn shifted_votes<'i>(
    ids: impl IntoIterator<Item = &'i OriginalId>,
    delta: f64,
    shift: f64,
) -> Vec<(OriginalId, Rank)> {
    ids.into_iter()
        .enumerate()
        .map(|(i, &id)| (id, Rank::new((i + 1) as f64 * delta + shift)))
        .collect()
}

/// Floods fake identifiers: announces a *different* fake id on every link in
/// step 1, then echoes and readies every id it knows (fakes included) for
/// the rest of the id-selection phase, and votes validly over the superset.
///
/// This is the attack Lemma IV.3 bounds: no matter how many fakes are
/// announced, at most `t + ⌊t²/(N−2t)⌋` can reach any `accepted` set,
/// because each fake needs `N − 2t` *correct* echoers (Lemma A.1).
///
/// The id set is a bitset over the run's interner: a received `Echo` or
/// `Ready` is ORed in word by word and the set itself is what steps 2–4
/// broadcast. It is frozen when id selection ends, so the vote vector is
/// decoded once, at the first voting step.
pub(crate) struct IdForger {
    n: usize,
    delta: f64,
    per_link_fakes: Vec<OriginalId>,
    known: IdSlotSet<OriginalId>,
    votes: Option<Vec<(OriginalId, Rank)>>,
}

impl IdForger {
    /// Creates the forger from the adversary environment.
    pub(crate) fn new(env: &AdversaryEnv<'_>) -> Self {
        let n = env.cfg.n();
        // One distinct fake per link; different slots use different fakes.
        let all = fake_ids(env, n * env.faulty_count.max(1));
        let per_link_fakes: Vec<OriginalId> =
            all.iter().skip(env.slot * n).take(n).copied().collect();
        let known = IdSlotSet::from_values(
            &env.interner,
            env.correct_ids.iter().chain(&per_link_fakes).copied(),
        );
        IdForger {
            n,
            delta: env.cfg.delta(),
            per_link_fakes,
            known,
            votes: None,
        }
    }
}

impl Actor for IdForger {
    type Msg = Alg1Msg;
    type Output = NewName;

    fn send(&mut self, round: Round) -> Outbox<Alg1Msg> {
        match round.number() {
            1 => Outbox::Multicast(
                (1..=self.n)
                    .map(|l| {
                        (
                            LinkId::new(l),
                            Alg1Msg::Flood(FloodMsg::Init(self.per_link_fakes[l - 1])),
                        )
                    })
                    .collect(),
            ),
            2 => Outbox::Broadcast(Alg1Msg::Flood(FloodMsg::Echo(self.known.clone()))),
            3 | 4 => Outbox::Broadcast(Alg1Msg::Flood(FloodMsg::Ready(self.known.clone()))),
            _ => {
                let votes = self.votes.get_or_insert_with(|| {
                    shifted_votes(&self.known.values_sorted(), self.delta, 0.0)
                });
                Outbox::Broadcast(Alg1Msg::Votes(votes.clone()))
            }
        }
    }

    fn deliver(&mut self, round: Round, inbox: Inbox<Alg1Msg>) {
        if round.number() > 4 {
            return; // id selection is over: `known` is frozen
        }
        for (_, msg) in inbox.messages() {
            match msg {
                Alg1Msg::Flood(FloodMsg::Init(id)) => self.known.insert(id),
                Alg1Msg::Flood(FloodMsg::Echo(set)) | Alg1Msg::Flood(FloodMsg::Ready(set)) => {
                    self.known |= set;
                }
                Alg1Msg::Votes(_) => {}
            }
        }
    }

    fn output(&self) -> Option<NewName> {
        None
    }
}

/// The threshold-gaming attack: colluding Byzantine processes drive a fake
/// id through the step-4 truncation crack (see
/// [`DivergencePlan`](crate::divergence::DivergencePlan)) so that exactly
/// the favoured half of the correct processes accept it. This produces the
/// maximal initial rank discrepancy Δ₅ the voting phase must repair
/// (Lemma IV.7); during voting it keeps pulling with valid opposite-shift
/// votes per half.
pub(crate) struct EchoSplitter {
    delta: f64,
    plan: crate::divergence::DivergencePlan,
    known: BTreeSet<OriginalId>,
}

impl EchoSplitter {
    /// Creates the splitter from the adversary environment.
    pub(crate) fn new(env: &AdversaryEnv<'_>) -> Self {
        let fake = fake_ids(env, 1)[0];
        let known: BTreeSet<OriginalId> = env.correct_ids.iter().copied().collect();
        EchoSplitter {
            delta: env.cfg.delta(),
            plan: crate::divergence::DivergencePlan::new(env, fake),
            known,
        }
    }
}

impl Actor for EchoSplitter {
    type Msg = Alg1Msg;
    type Output = NewName;

    fn send(&mut self, round: Round) -> Outbox<Alg1Msg> {
        let r = round.number();
        if r <= 4 {
            // Base set: correct ids only — the fake's propagation is
            // entirely controlled by the divergence plan.
            let base: BTreeSet<OriginalId> = self
                .known
                .iter()
                .copied()
                .filter(|&id| id != self.plan.fake)
                .collect();
            self.plan.flood_outbox(r, &base)
        } else {
            // Valid superset votes with opposite shifts per half, to keep
            // pulling ranks apart without being filtered.
            let mut full = self.known.clone();
            full.insert(self.plan.fake);
            let low = Alg1Msg::Votes(shifted_votes(&full, self.delta, -1.0));
            let high = Alg1Msg::Votes(shifted_votes(&full, self.delta, 1.0));
            Outbox::Multicast(
                self.plan
                    .all_correct_links
                    .iter()
                    .map(|&l| {
                        let msg = if self.plan.favours(l) {
                            low.clone()
                        } else {
                            high.clone()
                        };
                        (l, msg)
                    })
                    .collect(),
            )
        }
    }

    fn deliver(&mut self, _round: Round, inbox: Inbox<Alg1Msg>) {
        for (_, msg) in inbox.messages() {
            match msg {
                Alg1Msg::Flood(FloodMsg::Init(id)) => {
                    self.known.insert(*id);
                }
                Alg1Msg::Flood(FloodMsg::Echo(set)) | Alg1Msg::Flood(FloodMsg::Ready(set)) => {
                    self.known.extend(set.values_sorted());
                }
                Alg1Msg::Votes(_) => {}
            }
        }
    }

    fn output(&self) -> Option<NewName> {
        None
    }
}

/// Participates honestly in id selection (with one consistent fake id), then
/// attacks the voting phase with *valid* but extremal vote vectors —
/// per-link alternating low/high shifts of `±(t+1)·δ`. Every vote passes
/// `isValid`; the trim-`t` + `select_t` reduction (Lemma IV.8) is the only
/// defence. This is the designated worst case for the convergence
/// experiment (F1).
pub(crate) struct RankSkewer {
    n: usize,
    t: usize,
    delta: f64,
    fake: OriginalId,
    known: BTreeSet<OriginalId>,
    interner: IdInterner<OriginalId>,
}

impl RankSkewer {
    /// Creates the skewer from the adversary environment.
    pub(crate) fn new(env: &AdversaryEnv<'_>) -> Self {
        let fakes = fake_ids(env, env.faulty_count.max(1));
        let mut known: BTreeSet<OriginalId> = env.correct_ids.iter().copied().collect();
        let fake = fakes[env.slot.min(fakes.len() - 1)];
        known.insert(fake);
        RankSkewer {
            n: env.cfg.n(),
            t: env.cfg.t(),
            delta: env.cfg.delta(),
            fake,
            known,
            interner: env.interner.clone(),
        }
    }
}

impl Actor for RankSkewer {
    type Msg = Alg1Msg;
    type Output = NewName;

    fn send(&mut self, round: Round) -> Outbox<Alg1Msg> {
        match round.number() {
            1 => Outbox::Broadcast(Alg1Msg::Flood(FloodMsg::Init(self.fake))),
            2 => Outbox::Broadcast(Alg1Msg::Flood(FloodMsg::Echo(slot_set(
                &self.interner,
                &self.known,
            )))),
            3 | 4 => Outbox::Broadcast(Alg1Msg::Flood(FloodMsg::Ready(slot_set(
                &self.interner,
                &self.known,
            )))),
            _ => {
                let amplitude = (self.t as f64 + 1.0) * self.delta;
                let low = Alg1Msg::Votes(shifted_votes(&self.known, self.delta, -amplitude));
                let high = Alg1Msg::Votes(shifted_votes(&self.known, self.delta, amplitude));
                Outbox::Multicast(
                    (1..=self.n)
                        .map(|l| {
                            let msg = if l % 2 == 0 {
                                low.clone()
                            } else {
                                high.clone()
                            };
                            (LinkId::new(l), msg)
                        })
                        .collect(),
                )
            }
        }
    }

    fn deliver(&mut self, _round: Round, inbox: Inbox<Alg1Msg>) {
        for (_, msg) in inbox.messages() {
            match msg {
                Alg1Msg::Flood(FloodMsg::Init(id)) => {
                    self.known.insert(*id);
                }
                Alg1Msg::Flood(FloodMsg::Echo(set)) | Alg1Msg::Flood(FloodMsg::Ready(set)) => {
                    self.known.extend(set.values_sorted());
                }
                Alg1Msg::Votes(_) => {}
            }
        }
    }

    fn output(&self) -> Option<NewName> {
        None
    }
}

/// Attacks order preservation head-on: sends vote vectors that *invert* the
/// ranks of adjacent ids, under-space them, or omit timely ids entirely.
/// All of these must be rejected by `isValid` (Algorithm 2); the test-suite
/// asserts the rejections are observed and order preservation survives.
pub(crate) struct OrderInverter {
    fake: OriginalId,
    known: BTreeSet<OriginalId>,
    delta: f64,
    interner: IdInterner<OriginalId>,
}

impl OrderInverter {
    /// Creates the inverter from the adversary environment.
    pub(crate) fn new(env: &AdversaryEnv<'_>) -> Self {
        let fakes = fake_ids(env, 1);
        let mut known: BTreeSet<OriginalId> = env.correct_ids.iter().copied().collect();
        known.insert(fakes[0]);
        OrderInverter {
            fake: fakes[0],
            known,
            delta: env.cfg.delta(),
            interner: env.interner.clone(),
        }
    }
}

impl Actor for OrderInverter {
    type Msg = Alg1Msg;
    type Output = NewName;

    fn send(&mut self, round: Round) -> Outbox<Alg1Msg> {
        match round.number() {
            1 => Outbox::Broadcast(Alg1Msg::Flood(FloodMsg::Init(self.fake))),
            2 => Outbox::Broadcast(Alg1Msg::Flood(FloodMsg::Echo(slot_set(
                &self.interner,
                &self.known,
            )))),
            3 | 4 => Outbox::Broadcast(Alg1Msg::Flood(FloodMsg::Ready(slot_set(
                &self.interner,
                &self.known,
            )))),
            r => {
                let mut votes = shifted_votes(&self.known, self.delta, 0.0);
                match r % 3 {
                    0 if votes.len() >= 2 => {
                        // Swap the first two ranks: inverted order.
                        let tmp = votes[0].1;
                        votes[0].1 = votes[1].1;
                        votes[1].1 = tmp;
                    }
                    1 if !votes.is_empty() => {
                        // Omit the smallest id: missing timely entry.
                        votes.remove(0);
                    }
                    _ => {
                        // Collapse spacing below δ.
                        for (i, entry) in votes.iter_mut().enumerate() {
                            entry.1 = Rank::new(1.0 + i as f64 * self.delta * 0.5);
                        }
                    }
                }
                Outbox::Broadcast(Alg1Msg::Votes(votes))
            }
        }
    }

    fn deliver(&mut self, _round: Round, inbox: Inbox<Alg1Msg>) {
        for (_, msg) in inbox.messages() {
            if let Alg1Msg::Flood(FloodMsg::Init(id)) = msg {
                self.known.insert(*id);
            }
        }
    }

    fn output(&self) -> Option<NewName> {
        None
    }
}

/// The attack the `isValid` filter exists to stop (ablation A1, and the
/// paper's Section I motivation): drive `t` fake ids below the id space
/// through the divergence gadget with *staggered* favoured sets, so the
/// correct processes' rank hulls for two adjacent victim ids overlap on a
/// segment of width `(t−1)·δ`; then vote both victims onto the middle of
/// the overlap. The vote pair has spacing `0 < δ`, so with validation
/// enabled it is rejected and harmless; with validation ablated the per-id
/// approximate agreements converge to a *common* value for both victims,
/// destroying uniqueness/order (demonstrated by experiment A1; needs
/// `t ≥ 2` for a non-degenerate overlap).
pub(crate) struct PairSqueezer {
    delta: f64,
    slot: usize,
    plans: Vec<crate::divergence::DivergencePlan>,
    /// The two adjacent correct ids being squeezed.
    victim_low: OriginalId,
    victim_high: OriginalId,
    known: BTreeSet<OriginalId>,
}

impl PairSqueezer {
    /// Creates the squeezer from the adversary environment.
    pub(crate) fn new(env: &AdversaryEnv<'_>) -> Self {
        let t = env.cfg.t().max(1);
        let correct: Vec<OriginalId> = env.correct_ids.to_vec();
        let c = correct.len();
        let mid = c / 2;
        let victim_low = correct[mid.min(c - 1)];
        let victim_high = correct[(mid + 1).min(c - 1)];
        // t fakes strictly below every correct id, so each accepted fake
        // shifts every correct position up by one.
        let min_raw = correct.first().map(|i| i.raw()).unwrap_or(u64::MAX);
        let fakes: Vec<OriginalId> = if min_raw > t as u64 {
            (1..=t as u64)
                .map(|j| OriginalId::new(min_raw - j))
                .collect()
        } else {
            crate::fakes::fake_ids(env, t)
        };
        // Staggered favoured counts: fake j is accepted by the first
        // ⌈c·(j+1)/(t+1)⌉ correct processes, creating a position gradient.
        let plans = fakes
            .iter()
            .enumerate()
            .map(|(j, &fake)| {
                let favoured = (c * (j + 1)).div_ceil(t + 1).min(c);
                crate::divergence::DivergencePlan::with_favoured(env, fake, favoured)
            })
            .collect();
        PairSqueezer {
            delta: env.cfg.delta(),
            slot: env.slot,
            plans,
            victim_low,
            victim_high,
            known: correct.iter().copied().collect(),
        }
    }

    fn correct_only(&self) -> BTreeSet<OriginalId> {
        let fakes: BTreeSet<OriginalId> = self.plans.iter().map(|p| p.fake).collect();
        self.known.difference(&fakes).copied().collect()
    }

    /// The squeeze vote: position-spaced ranks over correct ids plus all
    /// fakes, with both victims on the midpoint of their hull overlap.
    fn squeeze_votes(&self) -> Vec<(OriginalId, Rank)> {
        let mut all = self.known.clone();
        for plan in &self.plans {
            all.insert(plan.fake);
        }
        let sorted: Vec<OriginalId> = all.iter().copied().collect();
        // Position of the low victim among correct ids only (its hull
        // bottom); the hull top is +t, the high victim's hull is shifted by
        // one — overlap midpoint = k0 + (t+1)/2.
        let correct = self.correct_only();
        let k0 = correct
            .iter()
            .position(|&id| id == self.victim_low)
            .map(|p| p + 1)
            .unwrap_or(1);
        let target = (k0 as f64 + (self.plans.len() as f64 + 1.0) / 2.0) * self.delta;
        sorted
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                let value = if id == self.victim_low || id == self.victim_high {
                    target
                } else {
                    (i + 1) as f64 * self.delta
                };
                (id, Rank::new(value))
            })
            .collect()
    }
}

impl Actor for PairSqueezer {
    type Msg = Alg1Msg;
    type Output = NewName;

    fn send(&mut self, round: Round) -> Outbox<Alg1Msg> {
        let r = round.number();
        let base = self.correct_only();
        match r {
            1 => {
                // One fake per Byzantine slot (one Init per link per round).
                match self.plans.get(self.slot) {
                    Some(plan) => plan.flood_outbox(1, &base),
                    None => Outbox::Silent,
                }
            }
            2 | 3 => {
                // Merge all plans: per link, the echoed/ready set is the
                // base plus every fake whose plan targets that link.
                let links = &self.plans[0].all_correct_links;
                let entries = links
                    .iter()
                    .map(|&l| {
                        let mut set = base.clone();
                        for plan in &self.plans {
                            let targeted = if r == 2 {
                                plan.echo_links.contains(&l)
                            } else {
                                plan.ready3_links.contains(&l)
                            };
                            if targeted {
                                set.insert(plan.fake);
                            }
                        }
                        let payload = slot_set(&self.plans[0].interner, &set);
                        let msg = if r == 2 {
                            Alg1Msg::Flood(FloodMsg::Echo(payload))
                        } else {
                            Alg1Msg::Flood(FloodMsg::Ready(payload))
                        };
                        (l, msg)
                    })
                    .collect();
                Outbox::Multicast(entries)
            }
            4 => {
                let links = &self.plans[0].all_correct_links;
                let entries: Vec<(LinkId, Alg1Msg)> = links
                    .iter()
                    .filter_map(|&l| {
                        let set: BTreeSet<OriginalId> = self
                            .plans
                            .iter()
                            .filter(|plan| plan.favours(l))
                            .map(|plan| plan.fake)
                            .collect();
                        #[allow(clippy::unnecessary_lazy_evaluations)]
                        (!set.is_empty()).then(|| {
                            (
                                l,
                                Alg1Msg::Flood(FloodMsg::Ready(slot_set(
                                    &self.plans[0].interner,
                                    &set,
                                ))),
                            )
                        })
                    })
                    .collect();
                if entries.is_empty() {
                    Outbox::Silent
                } else {
                    Outbox::Multicast(entries)
                }
            }
            _ => Outbox::Broadcast(Alg1Msg::Votes(self.squeeze_votes())),
        }
    }

    fn deliver(&mut self, _round: Round, inbox: Inbox<Alg1Msg>) {
        for (_, msg) in inbox.messages() {
            match msg {
                Alg1Msg::Flood(FloodMsg::Init(id)) => {
                    self.known.insert(*id);
                }
                Alg1Msg::Flood(FloodMsg::Echo(set)) | Alg1Msg::Flood(FloodMsg::Ready(set)) => {
                    self.known.extend(set.values_sorted());
                }
                Alg1Msg::Votes(_) => {}
            }
        }
    }

    fn output(&self) -> Option<NewName> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opr_core::runner::{run_alg1, Alg1Options};
    use opr_types::{Regime, SystemConfig};

    fn ids(raw: &[u64]) -> Vec<OriginalId> {
        raw.iter().map(|&x| OriginalId::new(x)).collect()
    }

    fn check_strategy<F>(
        cfg: SystemConfig,
        raw_ids: &[u64],
        f: usize,
        build: F,
    ) -> opr_core::ObservedRun<opr_core::Alg1Probe>
    where
        F: FnMut(&AdversaryEnv) -> Option<Box<dyn Actor<Msg = Alg1Msg, Output = NewName>>>,
    {
        let result = run_alg1(
            cfg,
            Regime::LogTime,
            &ids(raw_ids),
            f,
            build,
            Alg1Options {
                seed: 42,
                ..Alg1Options::default()
            },
        )
        .unwrap();
        let m = cfg.namespace_bound(Regime::LogTime);
        let violations = result.outcome.verify(m);
        assert!(violations.is_empty(), "violations: {violations:?}");
        result
    }

    #[test]
    fn id_forger_cannot_break_renaming() {
        let cfg = SystemConfig::new(7, 2).unwrap();
        let result = check_strategy(cfg, &[5, 18, 33, 47, 90], 2, |env| {
            Some(Box::new(IdForger::new(env)))
        });
        // Lemma IV.3: accepted sets stay within the bound.
        for size in result.probe.accepted_sizes() {
            assert!(size <= cfg.accepted_bound(), "{size} > bound");
        }
    }

    #[test]
    fn echo_splitter_cannot_break_renaming() {
        let cfg = SystemConfig::new(7, 2).unwrap();
        let result = check_strategy(cfg, &[5, 18, 33, 47, 90], 2, |env| {
            Some(Box::new(EchoSplitter::new(env)))
        });
        assert_eq!(result.probe.containment_violations(), 0);
    }

    #[test]
    fn rank_skewer_cannot_break_renaming() {
        let cfg = SystemConfig::new(7, 2).unwrap();
        let result = check_strategy(cfg, &[5, 18, 33, 47, 90], 2, |env| {
            Some(Box::new(RankSkewer::new(env)))
        });
        // The spread must still contract to a safe level by the end.
        let series = result.probe.spread_series();
        let last = *series.last().unwrap();
        assert!(
            last < (cfg.delta() - 1.0) / 2.0 + 1e-9,
            "final spread {last} too large"
        );
    }

    #[test]
    fn order_inverter_votes_are_rejected() {
        let cfg = SystemConfig::new(7, 2).unwrap();
        let result = check_strategy(cfg, &[5, 18, 33, 47, 90], 2, |env| {
            Some(Box::new(OrderInverter::new(env)))
        });
        assert!(
            result.probe.total_rejected_votes() > 0,
            "isValid should have rejected the inverted votes"
        );
    }

    #[test]
    fn strategies_work_at_minimal_resilience() {
        // N = 3t+1 is the tightest legal configuration.
        let cfg = SystemConfig::new(4, 1).unwrap();
        check_strategy(cfg, &[11, 22, 33], 1, |env| {
            Some(Box::new(IdForger::new(env)))
        });
        check_strategy(cfg, &[11, 22, 33], 1, |env| {
            Some(Box::new(RankSkewer::new(env)))
        });
        check_strategy(cfg, &[11, 22, 33], 1, |env| {
            Some(Box::new(EchoSplitter::new(env)))
        });
    }

    #[test]
    fn shifted_votes_are_delta_spaced() {
        let set: BTreeSet<OriginalId> = [3u64, 7, 9].iter().map(|&x| OriginalId::new(x)).collect();
        let delta = 1.01;
        let votes = shifted_votes(&set, delta, 5.0);
        for w in votes.windows(2) {
            assert!(w[0].1.spaced_at_least(w[1].1, delta));
        }
        assert_eq!(votes[0].1, Rank::new(delta + 5.0));
    }
}
