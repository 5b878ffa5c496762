//! Seeded random schedule generation, aimed at an explicit fault budget.
//!
//! The generator is a pure function of `(seed, budget)`: the same pair
//! always yields the same [`ChaosSchedule`], so a campaign is reproducible
//! from its seed alone and a repro file only has to name the schedule.
//!
//! Budget aiming works backwards from the *effective* fault count `E`
//! (Byzantine actors plus transport-disturbed correct processes): the
//! regime picks `E` relative to `t`, a random split decides how much of it
//! is Byzantine placement versus transport faults, and transport faults are
//! aimed at indices the placement mask marks correct — so the generated
//! schedule lands in the requested [`BudgetRegime`] by construction.

use crate::schedule::{BudgetRegime, ChaosSchedule};
use opr_adversary::AdversarySpec;
use opr_core::fault_placement;
use opr_transport::FaultPlan;
use opr_types::{LinkId, Regime, Round, SystemConfig};
use opr_workload::IdDistribution;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

/// Valid `(n, t)` shapes per regime, kept small so campaigns stay fast while
/// still crossing the interesting resilience thresholds.
fn shape_pool(regime: Regime) -> &'static [(usize, usize)] {
    match regime {
        Regime::LogTime => &[(4, 1), (7, 2), (10, 3)],
        Regime::ConstantTime => &[(4, 1), (9, 2)],
        Regime::TwoStep => &[(4, 1), (11, 2)],
    }
}

/// A payload cap no correct message approaches (ids are 48-bit, sets hold at
/// most `N ≤ 11` of them) — present on a fraction of schedules so the
/// oversized-payload path stays exercised without framing correct traffic.
pub(crate) const GENEROUS_CAP_BITS: u64 = 1 << 20;

/// Generates the deterministic schedule for `(seed, budget)`.
pub fn generate_schedule(seed: u64, budget: BudgetRegime) -> ChaosSchedule {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6368_616f_732d_6765); // "chaos-ge"

    let regime = *Regime::ALL
        .choose_weighted(&mut rng, |r| match r {
            Regime::LogTime => 3.0,
            Regime::ConstantTime | Regime::TwoStep => 2.0,
        })
        .expect("static non-empty pool");
    let &(n, t) = shape_pool(regime)
        .choose(&mut rng)
        .expect("static non-empty pool");
    let cfg = SystemConfig::new(n, t).expect("pool shapes are valid");
    let rounds = cfg.total_steps(regime) as usize;

    // Effective fault target, then its Byzantine/transport split.
    let effective = match budget {
        BudgetRegime::InBudget => rng.gen_range(0..t),
        BudgetRegime::AtBudget => t,
        BudgetRegime::OverBudget => (t + 1 + rng.gen_range(0..=1usize)).min(n - 2),
    };
    let byzantine = rng.gen_range(0..=effective);
    let disturbed = effective - byzantine;

    let adversary = if byzantine == 0 {
        AdversarySpec::Silent
    } else {
        *AdversarySpec::suite(regime)
            .choose_weighted(&mut rng, |spec| match spec {
                AdversarySpec::Silent => 0.5,
                AdversarySpec::CrashMidway => 1.0,
                _ => 1.5,
            })
            .expect("suites are non-empty with positive weights")
    };

    let run_seed = rng.next_u64();
    let id_seed = rng.next_u64();
    let id_dist = *IdDistribution::ALL
        .choose(&mut rng)
        .expect("static non-empty pool");

    // Aim transport faults at indices the placement leaves correct, so each
    // victim adds exactly one effective fault.
    let mask = fault_placement(n, byzantine, run_seed);
    let correct_indices: Vec<usize> = (0..n).filter(|&i| !mask[i]).collect();
    let victims: Vec<usize> = correct_indices
        .choose_multiple(&mut rng, disturbed)
        .into_iter()
        .copied()
        .collect();

    let mut plan = FaultPlan::default();
    for &victim in &victims {
        plan = match *["crash", "silence", "drops"]
            .choose_weighted(&mut rng, |k| if *k == "crash" { 0.8 } else { 1.1 })
            .expect("static non-empty pool")
        {
            "crash" => plan.crash_from(victim, round_in(&mut rng, rounds)),
            "silence" => {
                let mut p = plan;
                for _ in 0..rng.gen_range(1..=2usize) {
                    p = p.silence_link_from(
                        victim,
                        link_in(&mut rng, n),
                        round_in(&mut rng, rounds),
                    );
                }
                p
            }
            _ => {
                let mut p = plan;
                for _ in 0..rng.gen_range(1..=3usize) {
                    p = p.drop_message(victim, link_in(&mut rng, n), round_in(&mut rng, rounds));
                }
                p
            }
        };
    }
    // Occasional faults aimed at Byzantine senders: they must not shift the
    // budget accounting (the sender is already counted) and give the
    // oracles a chance to catch it if they ever do.
    if byzantine > 0 && rng.gen_bool(0.3) {
        let byz = (0..n).find(|&i| mask[i]).expect("byzantine > 0");
        plan = plan.drop_message(byz, link_in(&mut rng, n), round_in(&mut rng, rounds));
    }

    let payload_cap = rng.gen_bool(0.15).then_some(GENEROUS_CAP_BITS);

    ChaosSchedule {
        regime,
        n,
        t,
        id_dist,
        id_seed,
        adversary,
        byzantine,
        run_seed,
        events: plan.events(),
        payload_cap,
    }
}

fn round_in(rng: &mut StdRng, rounds: usize) -> Round {
    Round::new(rng.gen_range(1..=rounds) as u32)
}

fn link_in(rng: &mut StdRng, n: usize) -> LinkId {
    LinkId::new(rng.gen_range(1..=n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_in_seed() {
        for seed in [0u64, 7, 991] {
            for budget in BudgetRegime::ALL {
                assert_eq!(
                    generate_schedule(seed, budget),
                    generate_schedule(seed, budget)
                );
            }
        }
        assert_ne!(
            generate_schedule(1, BudgetRegime::AtBudget),
            generate_schedule(2, BudgetRegime::AtBudget)
        );
    }

    #[test]
    fn schedules_land_in_the_requested_budget_regime() {
        for seed in 0..120u64 {
            for budget in BudgetRegime::ALL {
                let s = generate_schedule(seed, budget);
                assert_eq!(s.budget_regime(), budget, "seed {seed}: {}", s.describe());
            }
        }
    }

    #[test]
    fn events_are_canonical() {
        // Stored events must round-trip through FaultPlan unchanged, or the
        // shrinker's event-level edits would not compose.
        for seed in 0..60u64 {
            let s = generate_schedule(seed, BudgetRegime::OverBudget);
            assert_eq!(
                FaultPlan::from_events(s.events.iter().copied()).events(),
                s.events
            );
        }
    }

    #[test]
    fn generated_schedules_are_runnable() {
        for seed in 0..8u64 {
            for budget in BudgetRegime::ALL {
                let s = generate_schedule(seed, budget);
                s.run()
                    .unwrap_or_else(|e| panic!("seed {seed} {budget}: {e}"));
            }
        }
    }

    #[test]
    fn generator_covers_the_space() {
        use std::collections::BTreeSet;
        let mut regimes = BTreeSet::new();
        let mut adversaries = BTreeSet::new();
        let mut dists = BTreeSet::new();
        let mut capped = false;
        for seed in 0..200u64 {
            let s = generate_schedule(seed, BudgetRegime::AtBudget);
            regimes.insert(format!("{:?}", s.regime));
            adversaries.insert(s.adversary.label());
            dists.insert(s.id_dist.label());
            capped |= s.payload_cap.is_some();
        }
        assert_eq!(regimes.len(), 3);
        assert!(adversaries.len() >= 6, "{adversaries:?}");
        assert_eq!(dists.len(), 4);
        assert!(capped);
    }
}
