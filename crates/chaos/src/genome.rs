//! The schedule-as-genome view the guided search mutates.
//!
//! A [`ChaosSchedule`] already *is* a complete attack genome: the fault
//! plan (drops, silences, crashes and their onsets), the Byzantine count
//! (placement follows deterministically from `run_seed`), the per-run
//! Byzantine strategy, and the workload layout (id distribution + seed).
//! This module adds the three operations a search needs on top:
//!
//! * [`genome_key`] — a stable 64-bit fingerprint for deduplication, so
//!   neither random campaigns nor guided search pay to re-evaluate an
//!   attack they have already run;
//! * [`mutate`] — a seeded, deterministic point mutation that stays inside
//!   a target [`BudgetRegime`];
//! * [`crossover`] — recombination of two parents, shape taken jointly
//!   from one of them so the child is always a legal `(n, t)` system.
//!
//! Every operation ends in a repair pass that re-aims the *effective*
//! fault count (Byzantine + transport-disturbed correct senders) at the
//! target regime and re-canonicalizes the event list through
//! [`FaultPlan`], so mutants compose with the shrinker exactly like
//! generated schedules do.

use crate::generator::GENEROUS_CAP_BITS;
use crate::schedule::{BudgetRegime, ChaosSchedule};
use opr_adversary::AdversarySpec;
use opr_core::fault_placement;
use opr_transport::{FaultEvent, FaultPlan};
use opr_types::math::mix64;
use opr_types::Regime;
use opr_workload::IdDistribution;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore};
use std::collections::BTreeSet;

/// Folds `value` into the running digest `state`.
fn mix(state: u64, value: u64) -> u64 {
    mix64(
        state
            .wrapping_add(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(value.wrapping_mul(0xff51_afd7_ed55_8ccd)),
    )
}

fn regime_index(regime: Regime) -> u64 {
    match regime {
        Regime::LogTime => 0,
        Regime::ConstantTime => 1,
        Regime::TwoStep => 2,
    }
}

fn dist_index(dist: IdDistribution) -> u64 {
    IdDistribution::ALL
        .iter()
        .position(|d| *d == dist)
        .unwrap_or(0) as u64
}

/// The stable fingerprint of a schedule genome. Two schedules share a key
/// exactly when every behavioural field agrees (regime, shape, workload,
/// adversary, Byzantine count, seeds, canonical fault events, payload
/// cap), so a key-deduped campaign never re-evaluates an identical attack.
pub fn genome_key(schedule: &ChaosSchedule) -> u64 {
    let mut h = 0x6765_6e6f_6d65_2d6bu64; // "genome-k"
    h = mix(h, regime_index(schedule.regime));
    h = mix(h, schedule.n as u64);
    h = mix(h, schedule.t as u64);
    h = mix(h, dist_index(schedule.id_dist));
    h = mix(h, schedule.id_seed);
    for byte in schedule.adversary.label().bytes() {
        h = mix(h, u64::from(byte));
    }
    h = mix(h, schedule.byzantine as u64);
    h = mix(h, schedule.run_seed);
    for event in &schedule.events {
        let (tag, sender, link, round) = match *event {
            FaultEvent::Drop {
                sender,
                link,
                round,
            } => (1u64, sender, link, round),
            FaultEvent::SilenceLink { sender, link, from } => (2, sender, link, from),
            FaultEvent::Crash { sender, from } => (3, sender, 0, from),
        };
        h = mix(h, tag);
        h = mix(h, sender as u64);
        h = mix(h, link as u64);
        h = mix(h, u64::from(round));
    }
    h = mix(h, schedule.payload_cap.map_or(0, |cap| cap | 1));
    h
}

/// The legal effective-fault range for `budget` on an `(n, t)` shape.
fn effective_bounds(n: usize, t: usize, budget: BudgetRegime) -> (usize, usize) {
    match budget {
        BudgetRegime::InBudget => (0, t.saturating_sub(1)),
        BudgetRegime::AtBudget => (t, t),
        BudgetRegime::OverBudget => (t + 1, (t + 2).min(n.saturating_sub(2)).max(t + 1)),
    }
}

/// The round budget of a schedule's shape, for clamping fault onsets.
fn round_budget(schedule: &ChaosSchedule) -> u32 {
    schedule
        .cfg()
        .map(|cfg| cfg.total_steps(schedule.regime))
        .unwrap_or(8)
        .max(1)
}

fn random_round(rng: &mut StdRng, rounds: u32) -> u32 {
    rng.gen_range(1..=rounds)
}

fn random_link(rng: &mut StdRng, n: usize) -> usize {
    rng.gen_range(1..=n)
}

fn event_round(event: &FaultEvent) -> u32 {
    match *event {
        FaultEvent::Drop { round, .. } => round,
        FaultEvent::SilenceLink { from, .. } | FaultEvent::Crash { from, .. } => from,
    }
}

fn with_round(event: FaultEvent, round: u32) -> FaultEvent {
    match event {
        FaultEvent::Drop { sender, link, .. } => FaultEvent::Drop {
            sender,
            link,
            round,
        },
        FaultEvent::SilenceLink { sender, link, .. } => FaultEvent::SilenceLink {
            sender,
            link,
            from: round,
        },
        FaultEvent::Crash { sender, .. } => FaultEvent::Crash {
            sender,
            from: round,
        },
    }
}

/// Canonicalizes the event list through [`FaultPlan`] (sorted, deduped,
/// duplicate silences merged to the earliest onset) and normalizes the
/// strategy of a Byzantine-free schedule, so equal attacks hash equal.
fn canonicalize(mut schedule: ChaosSchedule) -> ChaosSchedule {
    schedule.events = FaultPlan::from_events(schedule.events.iter().copied()).events();
    if schedule.byzantine == 0 {
        schedule.adversary = AdversarySpec::Silent;
    }
    schedule
}

/// Re-aims `schedule` at `budget`: sheds disturbed senders or Byzantine
/// actors while over target, crashes undisturbed correct processes or adds
/// Byzantine actors while under. Bounded; falls back to a bare
/// `effective = lo` schedule if the walk fails to land (it cannot in
/// practice — every step moves the count by one in the right direction).
fn repair(mut schedule: ChaosSchedule, budget: BudgetRegime, rng: &mut StdRng) -> ChaosSchedule {
    let (lo, hi) = effective_bounds(schedule.n, schedule.t, budget);
    let rounds = round_budget(&schedule);
    let n = schedule.n;
    // Events must name an in-range sender/link before any accounting.
    schedule.events.retain(|e| {
        e.sender() < n
            && match *e {
                FaultEvent::Drop { link, .. } | FaultEvent::SilenceLink { link, .. } => {
                    (1..=n).contains(&link)
                }
                FaultEvent::Crash { .. } => true,
            }
    });
    for event in &mut schedule.events {
        let clamped = event_round(event).clamp(1, rounds);
        *event = with_round(*event, clamped);
    }
    schedule.byzantine = schedule.byzantine.min(hi);

    for _ in 0..(4 * n + 8) {
        let effective = schedule.effective_faults();
        if (lo..=hi).contains(&effective) {
            return canonicalize(schedule);
        }
        let mask = fault_placement(n, schedule.byzantine, schedule.run_seed);
        let disturbed: BTreeSet<usize> = schedule
            .events
            .iter()
            .map(FaultEvent::sender)
            .filter(|&s| !mask[s])
            .collect();
        if effective > hi {
            let pool: Vec<usize> = disturbed.into_iter().collect();
            if let Some(&victim) = pool.as_slice().choose(rng) {
                schedule.events.retain(|e| e.sender() != victim);
            } else if schedule.byzantine > 0 {
                schedule.byzantine -= 1;
            } else {
                break;
            }
        } else {
            let pool: Vec<usize> = (0..n)
                .filter(|&i| !mask[i] && !disturbed.contains(&i))
                .collect();
            if let Some(&victim) = pool.as_slice().choose(rng) {
                schedule.events.push(FaultEvent::Crash {
                    sender: victim,
                    from: random_round(rng, rounds),
                });
            } else if schedule.byzantine < hi {
                schedule.byzantine += 1;
            } else {
                break;
            }
        }
    }
    // Unreachable walk end: land exactly at the regime floor.
    schedule.events.clear();
    schedule.byzantine = lo;
    canonicalize(schedule)
}

/// One seeded point mutation of `schedule`, kept inside `budget`. Applies
/// one or two of the mutation operators (onset jiggle, fault add/remove/
/// retarget, adversary swap, Byzantine count shift, seed and workload
/// perturbations, payload-cap toggle), then repairs and canonicalizes.
pub fn mutate(schedule: &ChaosSchedule, budget: BudgetRegime, rng: &mut StdRng) -> ChaosSchedule {
    let mut child = schedule.clone();
    let ops = rng.gen_range(1..=2usize);
    for _ in 0..ops {
        apply_random_op(&mut child, rng);
    }
    repair(child, budget, rng)
}

fn apply_random_op(schedule: &mut ChaosSchedule, rng: &mut StdRng) {
    let rounds = round_budget(schedule);
    let n = schedule.n;
    match rng.gen_range(0..10u32) {
        // Perturb one fault onset by ±1 round.
        0 => {
            if !schedule.events.is_empty() {
                let i = rng.gen_range(0..schedule.events.len());
                let old = event_round(&schedule.events[i]);
                let new = if rng.gen_bool(0.5) {
                    old.saturating_sub(1).max(1)
                } else {
                    (old + 1).min(rounds)
                };
                schedule.events[i] = with_round(schedule.events[i], new);
            }
        }
        // Add one fault event (repair re-aims the budget afterwards).
        1 => {
            let sender = rng.gen_range(0..n);
            let event = match rng.gen_range(0..3u32) {
                0 => FaultEvent::Crash {
                    sender,
                    from: random_round(rng, rounds),
                },
                1 => FaultEvent::SilenceLink {
                    sender,
                    link: random_link(rng, n),
                    from: random_round(rng, rounds),
                },
                _ => FaultEvent::Drop {
                    sender,
                    link: random_link(rng, n),
                    round: random_round(rng, rounds),
                },
            };
            schedule.events.push(event);
        }
        // Remove one fault event.
        2 => {
            if !schedule.events.is_empty() {
                let i = rng.gen_range(0..schedule.events.len());
                schedule.events.remove(i);
            }
        }
        // Retarget one drop/silence onto a different link.
        3 => {
            if !schedule.events.is_empty() {
                let i = rng.gen_range(0..schedule.events.len());
                let link = random_link(rng, n);
                schedule.events[i] = match schedule.events[i] {
                    FaultEvent::Drop { sender, round, .. } => FaultEvent::Drop {
                        sender,
                        link,
                        round,
                    },
                    FaultEvent::SilenceLink { sender, from, .. } => {
                        FaultEvent::SilenceLink { sender, link, from }
                    }
                    crash => crash,
                };
            }
        }
        // Swap the Byzantine strategy within the regime's suite.
        4 => {
            if let Some(&spec) = AdversarySpec::suite(schedule.regime).choose(rng) {
                schedule.adversary = spec;
            }
        }
        // Shift the Byzantine count by ±1 (repair clamps and re-aims).
        5 => {
            if rng.gen_bool(0.5) {
                schedule.byzantine = schedule.byzantine.saturating_sub(1);
            } else {
                schedule.byzantine += 1;
            }
        }
        // Reseed the run (moves the Byzantine placement and all
        // strategy-internal randomness).
        6 => schedule.run_seed = rng.next_u64(),
        // Reseed the workload ids.
        7 => schedule.id_seed = rng.next_u64(),
        // Swap the id distribution.
        8 => {
            if let Some(&dist) = IdDistribution::ALL.as_slice().choose(rng) {
                schedule.id_dist = dist;
            }
        }
        // Toggle the payload cap.
        _ => {
            schedule.payload_cap = match schedule.payload_cap {
                Some(_) => None,
                None => Some(GENEROUS_CAP_BITS),
            };
        }
    }
}

/// Seeded recombination of two parents: the `(regime, n, t)` shape comes
/// jointly from one parent (so the child is always a legal system), every
/// other gene is drawn per-field, and the fault events are a subset-merge
/// of both parents' plans — then repaired into `budget`.
pub fn crossover(
    a: &ChaosSchedule,
    b: &ChaosSchedule,
    budget: BudgetRegime,
    rng: &mut StdRng,
) -> ChaosSchedule {
    let shape = if rng.gen_bool(0.5) { a } else { b };
    let pick_u64 = |rng: &mut StdRng, x: u64, y: u64| if rng.gen_bool(0.5) { x } else { y };

    let mut adversary = if rng.gen_bool(0.5) {
        a.adversary
    } else {
        b.adversary
    };
    if !AdversarySpec::suite(shape.regime).contains(&adversary) {
        adversary = shape.adversary;
    }

    let mut events = Vec::new();
    for parent in [a, b] {
        for &event in &parent.events {
            if rng.gen_bool(0.5) {
                events.push(event);
            }
        }
    }

    let child = ChaosSchedule {
        regime: shape.regime,
        n: shape.n,
        t: shape.t,
        id_dist: if rng.gen_bool(0.5) {
            a.id_dist
        } else {
            b.id_dist
        },
        id_seed: pick_u64(rng, a.id_seed, b.id_seed),
        adversary,
        byzantine: if rng.gen_bool(0.5) {
            a.byzantine
        } else {
            b.byzantine
        },
        run_seed: pick_u64(rng, a.run_seed, b.run_seed),
        events,
        payload_cap: if rng.gen_bool(0.5) {
            a.payload_cap
        } else {
            b.payload_cap
        },
    };
    repair(child, budget, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate_schedule;
    use rand::SeedableRng;

    #[test]
    fn genome_key_separates_and_identifies() {
        let a = generate_schedule(1, BudgetRegime::AtBudget);
        let b = generate_schedule(2, BudgetRegime::AtBudget);
        assert_eq!(genome_key(&a), genome_key(&a.clone()));
        assert_ne!(genome_key(&a), genome_key(&b));
        // Every field participates: flip one and the key moves.
        let mut c = a.clone();
        c.run_seed ^= 1;
        assert_ne!(genome_key(&a), genome_key(&c));
        let mut d = a.clone();
        d.payload_cap = match d.payload_cap {
            Some(_) => None,
            None => Some(GENEROUS_CAP_BITS),
        };
        assert_ne!(genome_key(&a), genome_key(&d));
    }

    #[test]
    fn mutation_stays_in_regime_and_is_deterministic() {
        for budget in BudgetRegime::ALL {
            for seed in 0..40u64 {
                let parent = generate_schedule(seed, budget);
                let mut rng = StdRng::seed_from_u64(seed);
                let child = mutate(&parent, budget, &mut rng);
                assert_eq!(child.budget_regime(), budget, "seed {seed} {budget}");
                // Canonical events: mutants compose with the shrinker.
                assert_eq!(
                    FaultPlan::from_events(child.events.iter().copied()).events(),
                    child.events
                );
                let mut rng2 = StdRng::seed_from_u64(seed);
                assert_eq!(child, mutate(&parent, budget, &mut rng2));
            }
        }
    }

    #[test]
    fn mutation_moves_the_genome() {
        let parent = generate_schedule(5, BudgetRegime::AtBudget);
        let mut rng = StdRng::seed_from_u64(11);
        let moved = (0..20)
            .map(|_| mutate(&parent, BudgetRegime::AtBudget, &mut rng))
            .filter(|child| genome_key(child) != genome_key(&parent))
            .count();
        assert!(moved >= 15, "only {moved}/20 mutations moved the genome");
    }

    #[test]
    fn crossover_lands_in_regime_with_a_legal_shape() {
        for seed in 0..30u64 {
            let a = generate_schedule(seed, BudgetRegime::AtBudget);
            let b = generate_schedule(seed + 1000, BudgetRegime::AtBudget);
            let mut rng = StdRng::seed_from_u64(seed);
            let child = crossover(&a, &b, BudgetRegime::AtBudget, &mut rng);
            assert_eq!(child.budget_regime(), BudgetRegime::AtBudget);
            assert!(
                (child.n, child.t) == (a.n, a.t) || (child.n, child.t) == (b.n, b.t),
                "shape must come jointly from one parent"
            );
            assert!(child.events.iter().all(|e| e.sender() < child.n));
            // The child must actually run.
            child.run_on(opr_transport::BackendKind::Sim).unwrap();
        }
    }

    #[test]
    fn repair_lands_even_from_hostile_inputs() {
        // A schedule whose events all target out-of-range senders and whose
        // Byzantine count exceeds every regime bound.
        let mut s = generate_schedule(3, BudgetRegime::InBudget);
        s.byzantine = s.n; // absurd
        s.events = vec![FaultEvent::Crash {
            sender: s.n + 5,
            from: 99,
        }];
        let mut rng = StdRng::seed_from_u64(0);
        let fixed = repair(s, BudgetRegime::AtBudget, &mut rng);
        assert_eq!(fixed.budget_regime(), BudgetRegime::AtBudget);
    }
}
