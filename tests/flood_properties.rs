//! Property tests of the id-selection substrate and the voting core under
//! randomized Byzantine behaviour — the invariants behind Lemmas IV.1–IV.3
//! must hold for *arbitrary* (not only scripted) faulty messages.

use opr::core::ranks::{approximate, RankVector};
use opr::core::{run_alg1, Alg1Options};
use opr::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn rank_vector(ids: &[u64], values: &[f64]) -> RankVector {
    ids.iter()
        .zip(values)
        .map(|(&id, &v)| (OriginalId::new(id), Rank::new(v)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Algorithm 3's output for every id stays inside the convex hull of
    /// the votes that survive trimming — hence inside the correct votes'
    /// hull whenever at most t are Byzantine (the DLPSW guarantee lifted to
    /// the per-id vector setting).
    #[test]
    fn approximate_outputs_stay_in_vote_hull(
        correct_values in proptest::collection::vec(0.0f64..100.0, 5..9),
        byz_value in -1e6f64..1e6,
    ) {
        let t = 1usize;
        let n = correct_values.len() + t;
        prop_assume!(n > 3 * t);
        let id = 7u64;
        let accepted: BTreeSet<OriginalId> = [OriginalId::new(id)].into();
        let mine = rank_vector(&[id], &correct_values[..1]);
        let mut votes: Vec<RankVector> = correct_values
            .iter()
            .map(|&v| rank_vector(&[id], &[v]))
            .collect();
        votes.push(rank_vector(&[id], &[byz_value]));
        let (new_ranks, _) = approximate(&mine, &accepted, &votes, n, t);
        let out = new_ranks.get(OriginalId::new(id)).unwrap().value();
        let lo = correct_values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = correct_values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(out >= lo - 1e-9 && out <= hi + 1e-9, "{out} outside [{lo}, {hi}]");
    }

    /// Vote order must not matter: approximate is a function of the vote
    /// *multiset*.
    #[test]
    fn approximate_is_permutation_invariant(
        values in proptest::collection::vec(0.0f64..50.0, 4..8),
        swap_a in 0usize..8,
        swap_b in 0usize..8,
    ) {
        let t = 1usize;
        let n = values.len();
        prop_assume!(n > 3 * t);
        let id = 3u64;
        let accepted: BTreeSet<OriginalId> = [OriginalId::new(id)].into();
        let mine = rank_vector(&[id], &values[..1]);
        let votes: Vec<RankVector> =
            values.iter().map(|&v| rank_vector(&[id], &[v])).collect();
        let mut shuffled = votes.clone();
        shuffled.swap(swap_a % n, swap_b % n);
        let (a, _) = approximate(&mine, &accepted, &votes, n, t);
        let (b, _) = approximate(&mine, &accepted, &shuffled, n, t);
        prop_assert_eq!(a, b);
    }

    /// Unanimous votes are a fixed point — the foundation of the
    /// early-output rule.
    #[test]
    fn approximate_fixed_point_on_unanimous_votes(
        raw_ids in proptest::collection::btree_set(1u64..1000, 2..8),
        t in 1usize..3,
    ) {
        let ids: Vec<u64> = raw_ids.into_iter().collect();
        let n = 3 * t + ids.len();
        let accepted: BTreeSet<OriginalId> =
            ids.iter().map(|&i| OriginalId::new(i)).collect();
        let delta = 1.0 + 1.0 / (3.0 * n as f64);
        let mine = RankVector::from_accepted(&accepted, delta);
        let votes: Vec<RankVector> = (0..n - t).map(|_| mine.clone()).collect();
        let (new_ranks, new_accepted) = approximate(&mine, &accepted, &votes, n, t);
        prop_assert_eq!(new_accepted, accepted);
        for (id, rank) in new_ranks.iter() {
            prop_assert!(rank.distance(mine.get(id).unwrap()) < 1e-12);
        }
    }

    /// The full protocol under a *randomly chosen* adversary and fault
    /// count must uphold the containment structure of Lemmas IV.1/IV.2,
    /// not just the outcome properties.
    #[test]
    fn containment_invariants_hold_under_random_adversaries(
        spec_idx in 0usize..9,
        faulty in 1usize..3,
        seed in 0u64..500,
    ) {
        let cfg = SystemConfig::new(10, 3).unwrap();
        let spec = AdversarySpec::ALG1[spec_idx % AdversarySpec::ALG1.len()];
        let ids = IdDistribution::SparseRandom.generate(10 - faulty, seed);
        let result = run_alg1(
            cfg,
            Regime::LogTime,
            &ids,
            faulty,
            |env| spec.build_alg1(env),
            Alg1Options { seed, ..Alg1Options::default() },
        ).unwrap();
        prop_assert_eq!(result.probe.containment_violations(), 0, "{}", spec);
        // Every correct id is timely everywhere.
        for p in &result.probe.processes {
            let first = p.snapshots.first().unwrap();
            for id in &ids {
                prop_assert!(first.timely.contains(id));
            }
            // And the accepted bound holds at every snapshot.
            for snap in &p.snapshots {
                prop_assert!(snap.accepted.len() <= cfg.accepted_bound());
            }
        }
    }

    /// In the constant-time (strong) regime the accepted sets never exceed
    /// N (Lemma V.1's capacity argument), under any suite adversary.
    #[test]
    fn strong_regime_accepted_sets_never_exceed_n(
        spec_idx in 0usize..9,
        seed in 0u64..200,
    ) {
        let cfg = SystemConfig::new(16, 3).unwrap();
        let spec = AdversarySpec::ALG1[spec_idx % AdversarySpec::ALG1.len()];
        let ids = IdDistribution::EvenSpaced.generate(13, seed);
        let result = run_alg1(
            cfg,
            Regime::ConstantTime,
            &ids,
            3,
            |env| spec.build_alg1(env),
            Alg1Options { seed, ..Alg1Options::default() },
        ).unwrap();
        for size in result.probe.accepted_sizes() {
            prop_assert!(size <= 16, "{}: accepted {} > N", spec, size);
        }
        prop_assert!(result.outcome.verify(16).is_empty());
    }
}
