//! Cross-crate lemma checks via the invariant probes — the structural
//! guarantees behind the headline theorems, observed on live runs.

use opr::core::{run_alg1, run_two_step, Alg1Options, TwoStepOptions};
use opr::prelude::*;
use std::collections::BTreeSet;

fn ids_of(raw: &[u64]) -> Vec<OriginalId> {
    raw.iter().map(|&x| OriginalId::new(x)).collect()
}

/// Lemmas IV.1 + IV.2: the timely/accepted containment structure.
#[test]
fn containment_structure_holds_under_every_attack() {
    let cfg = SystemConfig::new(10, 3).unwrap();
    let correct = ids_of(&[2, 30, 71, 102, 555, 7001, 90000]);
    for spec in AdversarySpec::ALG1 {
        for seed in 0..4u64 {
            let result = run_alg1(
                cfg,
                Regime::LogTime,
                &correct,
                3,
                |env| spec.build_alg1(env),
                Alg1Options {
                    seed,
                    ..Alg1Options::default()
                },
            )
            .unwrap();
            // IV.1: union of timely ⊆ every accepted.
            assert_eq!(
                result.probe.containment_violations(),
                0,
                "{spec} seed {seed}"
            );
            // IV.2: every correct id is timely at every correct process.
            for p in &result.probe.processes {
                let first = p.snapshots.first().unwrap();
                for id in &correct {
                    assert!(
                        first.timely.contains(id),
                        "{spec} seed {seed}: {id:?} not timely"
                    );
                }
            }
        }
    }
}

/// Lemma IV.3: |accepted| ≤ N + ⌊t²/(N−2t)⌋ — and the Theorem IV.10
/// corollary |accepted| ≤ N + t − 1.
#[test]
fn accepted_set_size_is_bounded() {
    for (n, t) in [(7usize, 2usize), (10, 3), (13, 4)] {
        let cfg = SystemConfig::new(n, t).unwrap();
        let correct = IdDistribution::EvenSpaced.generate(n - t, 5);
        for seed in 0..3u64 {
            let result = run_alg1(
                cfg,
                Regime::LogTime,
                &correct,
                t,
                |env| AdversarySpec::IdForge.build_alg1(env),
                Alg1Options {
                    seed,
                    ..Alg1Options::default()
                },
            )
            .unwrap();
            for size in result.probe.accepted_sizes() {
                assert!(size <= cfg.accepted_bound(), "N={n} t={t}: {size}");
                assert!(size < n + t, "N={n} t={t}: {size} > N+t−1");
            }
        }
    }
}

/// Corollary IV.6: ranks of correct ids stay δ-spaced at every step.
#[test]
fn correct_ids_stay_delta_spaced_through_voting() {
    let cfg = SystemConfig::new(7, 2).unwrap();
    let correct = ids_of(&[10, 20, 30, 40, 50]);
    let delta = cfg.delta();
    let result = run_alg1(
        cfg,
        Regime::LogTime,
        &correct,
        2,
        |env| AdversarySpec::RankSkew.build_alg1(env),
        Alg1Options::default(),
    )
    .unwrap();
    for p in &result.probe.processes {
        for snap in &p.snapshots {
            let ranks: Vec<_> = correct
                .iter()
                .filter_map(|&id| snap.ranks.get(id))
                .collect();
            assert_eq!(ranks.len(), correct.len(), "correct ids always ranked");
            for w in ranks.windows(2) {
                assert!(
                    w[0].spaced_at_least(w[1], delta),
                    "step {}: {} then {}",
                    snap.step,
                    w[0],
                    w[1]
                );
            }
        }
    }
}

/// Lemma IV.8's monotone contraction: the spread series never increases.
#[test]
fn spread_series_is_monotone_nonincreasing() {
    let cfg = SystemConfig::new(13, 4).unwrap();
    let correct = IdDistribution::EvenSpaced.generate(9, 2);
    for spec in [AdversarySpec::RankSkew, AdversarySpec::EchoSplit] {
        let result = run_alg1(
            cfg,
            Regime::LogTime,
            &correct,
            4,
            |env| spec.build_alg1(env),
            Alg1Options::default(),
        )
        .unwrap();
        let series = result.probe.spread_series();
        for w in series.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-9,
                "{spec}: spread grew {} -> {}",
                w[0],
                w[1]
            );
        }
    }
}

/// Lemmas VI.1 + VI.2 on live two-step runs.
#[test]
fn two_step_discrepancy_vs_gap_mechanism() {
    let cfg = SystemConfig::new(11, 2).unwrap();
    let raw: Vec<u64> = (1..=9).map(|i| i * 100).collect();
    let correct: BTreeSet<OriginalId> = raw.iter().map(|&x| OriginalId::new(x)).collect();
    for spec in AdversarySpec::TWO_STEP {
        for seed in 0..4u64 {
            let result = run_two_step(
                cfg,
                &ids_of(&raw),
                2,
                |env| spec.build_two_step(env),
                TwoStepOptions {
                    seed,
                    ..TwoStepOptions::default()
                },
            )
            .unwrap();
            let delta = result.probe.max_discrepancy(&correct);
            let gap = result.probe.min_correct_gap(&correct);
            assert!(delta <= 8, "{spec}: Δ={delta} > 2t²");
            assert!(gap >= 9, "{spec}: gap {gap} < N−t");
            assert!(delta < gap, "{spec}: Δ={delta} ≥ gap={gap}");
        }
    }
}

/// The isValid filter earns its keep: under the order-inverting adversary,
/// rejections happen and order survives; under no adversary, none happen.
#[test]
fn is_valid_rejections_track_adversary_behaviour() {
    let cfg = SystemConfig::new(7, 2).unwrap();
    let correct = ids_of(&[3, 14, 15, 92, 65]);
    let hostile = run_alg1(
        cfg,
        Regime::LogTime,
        &correct,
        2,
        |env| AdversarySpec::OrderInvert.build_alg1(env),
        Alg1Options::default(),
    )
    .unwrap();
    assert!(hostile.probe.total_rejected_votes() > 0);

    let benign = run_alg1(
        cfg,
        Regime::LogTime,
        &correct,
        2,
        |_| None,
        Alg1Options::default(),
    )
    .unwrap();
    assert_eq!(benign.probe.total_rejected_votes(), 0);
}
