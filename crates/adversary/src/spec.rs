//! The enumerable adversary suite.

use crate::alg1::{EchoSplitter, IdForger, OrderInverter, PairSqueezer, RankSkewer};
use crate::generic::{CrashAfter, Noise, Replay};
use crate::two_step::{EchoWithholder, FakeFlooder, HalfEcho};
use opr_core::{AdversaryEnv, Alg1Msg, TwoStepMsg};
use opr_rbcast::{FloodMsg, IdSlotSet};
use opr_sim::Actor;
use opr_types::{NewName, OriginalId, Rank, Regime};
use rand::Rng;
use std::collections::BTreeSet;
use std::fmt;

/// A named Byzantine strategy, suitable for experiment tables and sweeps.
///
/// Not every strategy applies to every protocol; [`AdversarySpec::ALG1`] and
/// [`AdversarySpec::TWO_STEP`] list the applicable suites. Building a
/// non-applicable combination falls back to silence (which is always legal
/// Byzantine behaviour).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum AdversarySpec {
    /// Sends nothing at all (crash at time zero).
    Silent,
    /// Behaves correctly, then crashes mid-protocol.
    CrashMidway,
    /// Sends well-formed random garbage, equivocating per link.
    RandomNoise,
    /// Replays observed messages on random links.
    Replay,
    /// Floods fake ids, one per link (Algorithm 1).
    IdForge,
    /// Threshold-gaming echo/ready splits (Algorithm 1).
    EchoSplit,
    /// Valid-but-extremal vote vectors (Algorithm 1).
    RankSkew,
    /// Invalid vote vectors attacking order (Algorithm 1).
    OrderInvert,
    /// Per-receiver `2t`-fake echo sets (Algorithm 4).
    FakeFlood,
    /// Asymmetric fake echoes (Algorithm 4).
    EchoWithhold,
    /// Hull-overlap + zero-spacing vote pairs (Algorithm 1; the attack the
    /// `isValid` filter defeats — harmless with validation on, lethal in
    /// ablation A1).
    PairSqueeze,
    /// Echo everything to only half the correct processes (Algorithm 4; the
    /// attack the offset clamp defeats — harmless with the clamp, lethal in
    /// ablation A2).
    HalfEcho,
}

impl AdversarySpec {
    /// The suite for Algorithm 1 (both voting schedules).
    pub const ALG1: [AdversarySpec; 9] = [
        AdversarySpec::Silent,
        AdversarySpec::CrashMidway,
        AdversarySpec::RandomNoise,
        AdversarySpec::Replay,
        AdversarySpec::IdForge,
        AdversarySpec::EchoSplit,
        AdversarySpec::RankSkew,
        AdversarySpec::OrderInvert,
        AdversarySpec::PairSqueeze,
    ];

    /// The suite for Algorithm 4.
    pub const TWO_STEP: [AdversarySpec; 7] = [
        AdversarySpec::Silent,
        AdversarySpec::CrashMidway,
        AdversarySpec::RandomNoise,
        AdversarySpec::Replay,
        AdversarySpec::FakeFlood,
        AdversarySpec::EchoWithhold,
        AdversarySpec::HalfEcho,
    ];

    /// The applicable suite for a regime.
    pub fn suite(regime: Regime) -> &'static [AdversarySpec] {
        match regime {
            Regime::LogTime | Regime::ConstantTime => &Self::ALG1,
            Regime::TwoStep => &Self::TWO_STEP,
        }
    }

    /// A short stable label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            AdversarySpec::Silent => "silent",
            AdversarySpec::CrashMidway => "crash-midway",
            AdversarySpec::RandomNoise => "random-noise",
            AdversarySpec::Replay => "replay",
            AdversarySpec::IdForge => "id-forge",
            AdversarySpec::EchoSplit => "echo-split",
            AdversarySpec::RankSkew => "rank-skew",
            AdversarySpec::OrderInvert => "order-invert",
            AdversarySpec::FakeFlood => "fake-flood",
            AdversarySpec::EchoWithhold => "echo-withhold",
            AdversarySpec::PairSqueeze => "pair-squeeze",
            AdversarySpec::HalfEcho => "half-echo",
        }
    }

    /// Parses an [`AdversarySpec::label`].
    pub fn parse(label: &str) -> Option<AdversarySpec> {
        AdversarySpec::ALG1
            .into_iter()
            .chain(AdversarySpec::TWO_STEP)
            .find(|spec| spec.label() == label)
    }

    /// Builds an Algorithm 1 actor for this strategy (`None` ⇒ silent).
    pub fn build_alg1(
        &self,
        env: &AdversaryEnv<'_>,
    ) -> Option<Box<dyn Actor<Msg = Alg1Msg, Output = NewName>>> {
        let per_actor_seed = env.seed ^ (env.index as u64) << 32 ^ 0xa1;
        match self {
            AdversarySpec::Silent => None,
            AdversarySpec::CrashMidway => {
                // Behave as a correct process with a fake id, crash halfway
                // through the protocol.
                let fake = crate::fakes::fake_ids(env, env.faulty_count.max(1))
                    [env.slot.min(env.faulty_count.saturating_sub(1))];
                let regime = if env.cfg.supports(Regime::ConstantTime) {
                    Regime::ConstantTime
                } else {
                    Regime::LogTime
                };
                let inner = opr_core::OrderPreservingRenaming::new(env.cfg, regime, fake)
                    .expect("regime chosen to fit the config");
                let alive = 2 + (env.seed + env.slot as u64) as u32 % env.cfg.total_steps(regime);
                Some(Box::new(CrashAfter::new(inner, alive)))
            }
            AdversarySpec::RandomNoise => {
                let pool: Vec<OriginalId> = env
                    .correct_ids
                    .iter()
                    .copied()
                    .chain(crate::fakes::fake_ids(env, env.cfg.n()))
                    .collect();
                let delta = env.cfg.delta();
                let interner = env.interner.clone();
                Some(Box::new(Noise::new(
                    env.cfg.n(),
                    per_actor_seed,
                    move |rng, _round| {
                        let mut set = BTreeSet::new();
                        for &id in &pool {
                            if rng.gen_bool(0.5) {
                                set.insert(id);
                            }
                        }
                        let msg = match rng.gen_range(0..4) {
                            0 => Alg1Msg::Flood(FloodMsg::Init(pool[rng.gen_range(0..pool.len())])),
                            1 => Alg1Msg::Flood(FloodMsg::Echo(IdSlotSet::from_values(
                                &interner,
                                set.iter().copied(),
                            ))),
                            2 => Alg1Msg::Flood(FloodMsg::Ready(IdSlotSet::from_values(
                                &interner,
                                set.iter().copied(),
                            ))),
                            _ => Alg1Msg::Votes(
                                set.iter()
                                    .map(|&id| (id, Rank::new(rng.gen_range(-10.0..10.0) * delta)))
                                    .collect(),
                            ),
                        };
                        rng.gen_bool(0.9).then_some(msg)
                    },
                )))
            }
            AdversarySpec::Replay => Some(Box::new(Replay::new(env.cfg.n(), per_actor_seed))),
            AdversarySpec::IdForge => Some(Box::new(IdForger::new(env))),
            AdversarySpec::EchoSplit => Some(Box::new(EchoSplitter::new(env))),
            AdversarySpec::RankSkew => Some(Box::new(RankSkewer::new(env))),
            AdversarySpec::OrderInvert => Some(Box::new(OrderInverter::new(env))),
            AdversarySpec::PairSqueeze => Some(Box::new(PairSqueezer::new(env))),
            // Two-step-only strategies degrade to silence under Algorithm 1.
            AdversarySpec::FakeFlood | AdversarySpec::EchoWithhold | AdversarySpec::HalfEcho => {
                None
            }
        }
    }

    /// Builds an Algorithm 4 actor for this strategy (`None` ⇒ silent).
    pub fn build_two_step(
        &self,
        env: &AdversaryEnv<'_>,
    ) -> Option<Box<dyn Actor<Msg = TwoStepMsg, Output = NewName>>> {
        let per_actor_seed = env.seed ^ (env.index as u64) << 32 ^ 0x42;
        match self {
            AdversarySpec::Silent => None,
            AdversarySpec::CrashMidway => {
                let fake = crate::fakes::fake_ids(env, env.faulty_count.max(1))
                    [env.slot.min(env.faulty_count.saturating_sub(1))];
                let inner = opr_core::TwoStepRenaming::new(env.cfg, fake)
                    .expect("caller ensured the two-step regime");
                Some(Box::new(CrashAfter::new(inner, 1)))
            }
            AdversarySpec::RandomNoise => {
                let pool: Vec<OriginalId> = env
                    .correct_ids
                    .iter()
                    .copied()
                    .chain(crate::fakes::fake_ids(env, env.cfg.n()))
                    .collect();
                let n = env.cfg.n();
                let interner = env.interner.clone();
                Some(Box::new(Noise::new(
                    n,
                    per_actor_seed,
                    move |rng, _round| {
                        let msg = if rng.gen_bool(0.5) {
                            TwoStepMsg::Id(pool[rng.gen_range(0..pool.len())])
                        } else {
                            let mut set = BTreeSet::new();
                            for &id in &pool {
                                if rng.gen_bool(0.5) && set.len() < n {
                                    set.insert(id);
                                }
                            }
                            TwoStepMsg::MultiEcho(IdSlotSet::from_values(
                                &interner,
                                set.iter().copied(),
                            ))
                        };
                        rng.gen_bool(0.9).then_some(msg)
                    },
                )))
            }
            AdversarySpec::Replay => Some(Box::new(Replay::new(env.cfg.n(), per_actor_seed))),
            AdversarySpec::FakeFlood => Some(Box::new(FakeFlooder::new(env))),
            AdversarySpec::EchoWithhold => Some(Box::new(EchoWithholder::new(env))),
            AdversarySpec::HalfEcho => Some(Box::new(HalfEcho::new(env))),
            // Alg-1-only strategies degrade to silence under Algorithm 4.
            AdversarySpec::IdForge
            | AdversarySpec::EchoSplit
            | AdversarySpec::RankSkew
            | AdversarySpec::OrderInvert
            | AdversarySpec::PairSqueeze => None,
        }
    }
}

impl fmt::Display for AdversarySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opr_core::{run_alg1, run_two_step, Alg1Options, TwoStepOptions};
    use opr_types::SystemConfig;

    fn ids(raw: &[u64]) -> Vec<OriginalId> {
        raw.iter().map(|&x| OriginalId::new(x)).collect()
    }

    #[test]
    fn every_alg1_spec_upholds_properties() {
        let cfg = SystemConfig::new(7, 2).unwrap();
        let correct = ids(&[4, 19, 33, 51, 87]);
        for spec in AdversarySpec::ALG1 {
            for seed in 0..3 {
                let result = run_alg1(
                    cfg,
                    Regime::LogTime,
                    &correct,
                    2,
                    |env| spec.build_alg1(env),
                    Alg1Options {
                        seed,
                        ..Alg1Options::default()
                    },
                )
                .unwrap();
                let violations = result.outcome.verify(cfg.namespace_bound(Regime::LogTime));
                assert!(violations.is_empty(), "{spec} seed {seed}: {violations:?}");
            }
        }
    }

    #[test]
    fn every_two_step_spec_upholds_properties() {
        let cfg = SystemConfig::new(11, 2).unwrap();
        let correct = ids(&[3, 9, 27, 81, 243, 300, 301, 302, 500]);
        for spec in AdversarySpec::TWO_STEP {
            for seed in 0..3 {
                let result = run_two_step(
                    cfg,
                    &correct,
                    2,
                    |env| spec.build_two_step(env),
                    TwoStepOptions {
                        seed,
                        ..TwoStepOptions::default()
                    },
                )
                .unwrap();
                let violations = result.outcome.verify(121);
                assert!(violations.is_empty(), "{spec} seed {seed}: {violations:?}");
            }
        }
    }

    #[test]
    fn suites_match_regimes() {
        assert_eq!(AdversarySpec::suite(Regime::LogTime).len(), 9);
        assert_eq!(AdversarySpec::suite(Regime::ConstantTime).len(), 9);
        assert_eq!(AdversarySpec::suite(Regime::TwoStep).len(), 7);
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<&str> = AdversarySpec::ALG1
            .iter()
            .chain(AdversarySpec::TWO_STEP.iter())
            .map(|s| s.label())
            .collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 12);
    }
}
