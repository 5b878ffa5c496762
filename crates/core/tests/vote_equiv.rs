//! Differential properties of the vote path: the sorted-slice
//! implementation of Algorithms 2–3 (`RankVector::{from_wire, check_valid}`,
//! `VoteScratch::approximate`, `ranks::approximate`) against the `BTreeMap`
//! model it replaced, on hostile-shaped inputs — same verdict and same
//! `ValidityViolation`, same per-id observation sequence, same new ranks bit
//! for bit, same surviving accepted set — with every vote its own entry,
//! and folded into distinct votes by the receiver's own grouping (through
//! the public wrapper). A receiver's fold ([`Ballot`]) is checked on its own
//! too: every order of one inbox's links gives the same verdict per link,
//! the same copies and the same ranks and fates, bit for bit. (Tile
//! boundaries are crossed by the unit test in `src/ranks.rs`, against the
//! same model.)

mod vote_model;

use opr_core::ranks::{approximate, Ballot, VoteScratch};
use opr_core::RankVector;
use opr_obs::ValidityViolation;
use opr_types::{OriginalId, Rank};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Arc;

type Wire = Vec<(OriginalId, Rank)>;

/// The ids of `set`, ascending — the slice `VoteScratch::approximate`
/// walks.
fn ascending(set: &BTreeSet<OriginalId>) -> Vec<OriginalId> {
    set.iter().copied().collect()
}

/// One receiver's view of one voting step.
struct Step {
    n: usize,
    t: usize,
    delta: f64,
    timely: BTreeSet<OriginalId>,
    accepted: BTreeSet<OriginalId>,
    wires: Vec<Wire>,
}

/// `timely ⊆ accepted ⊂` a small id universe, and between `N − t − 1` and
/// `N + 3` vote vectors (one per link, in link order) in one of three
/// inboxes:
/// * independent wires — half of them what a correct process would send
///   (δ-spaced ranks for `accepted` plus a few foreign ids, ascending), the
///   rest damaged in one to three of the ways a Byzantine sender can — of
///   which a fifth repeat the previous link's wire bit for bit, damaged or
///   not;
/// * the fault-free inbox: one correct wire on most links, in runs broken
///   by the odd independent wire;
/// * signed zeros: one correct wire on every link, whose rank for one
///   accepted id is `-0.0` — except on the first link, where it is `0.0`.
///   Equal under `==`, so a receiver that folded by `==` would average
///   `0.0`s where the model averages `-0.0`s.
fn step(seed: u64, n: usize, t: usize) -> Step {
    let mut rng = StdRng::seed_from_u64(seed);
    let delta = 1.0 + 1.0 / (3.0 * (n + t) as f64);
    let universe: Vec<OriginalId> = (0..2 * n as u64 + 4)
        .map(|x| OriginalId::new(7 * x))
        .collect();
    let injected = rng.gen_range(0..=t);
    let accepted: BTreeSet<OriginalId> = universe
        .choose_multiple(&mut rng, n + injected)
        .into_iter()
        .copied()
        .collect();
    let timely = accepted
        .iter()
        .copied()
        .filter(|_| rng.gen_bool(0.7))
        .collect();
    let votes = rng.gen_range((n - t).saturating_sub(1)..=n + 3);
    let correct = |rng: &mut StdRng| -> Wire {
        let jitter = rng.gen_range(-0.2..0.2);
        universe
            .iter()
            .filter(|id| accepted.contains(id) || rng.gen_bool(0.2))
            .enumerate()
            .map(|(i, &id)| (id, Rank::new((i + 1) as f64 * delta + jitter)))
            .collect()
    };
    let independent = |rng: &mut StdRng| -> Wire {
        let mut wire = correct(rng);
        let damages = if rng.gen_bool(0.5) {
            0
        } else {
            rng.gen_range(1..=3)
        };
        for _ in 0..damages {
            damage(&mut wire, delta, rng);
        }
        wire
    };
    let mut wires: Vec<Wire> = Vec::with_capacity(votes);
    match rng.gen_range(0..4) {
        0 => {
            let common = correct(&mut rng);
            for _ in 0..votes {
                wires.push(if rng.gen_bool(0.8) {
                    common.clone()
                } else {
                    independent(&mut rng)
                });
            }
        }
        1 if votes > 0 => {
            let mut common = correct(&mut rng);
            let zero = common
                .iter()
                .position(|(id, _)| accepted.contains(id))
                .expect("a correct wire ranks every accepted id");
            common[zero].1 = Rank::new(0.0);
            wires.push(common.clone());
            common[zero].1 = Rank::new(-0.0);
            wires.extend(std::iter::repeat_n(common, votes - 1));
        }
        _ => {
            for _ in 0..votes {
                let wire = match wires.last() {
                    Some(previous) if rng.gen_bool(0.2) => previous.clone(),
                    _ => independent(&mut rng),
                };
                wires.push(wire);
            }
        }
    }
    Step {
        n,
        t,
        delta,
        timely,
        accepted,
        wires,
    }
}

fn damage(wire: &mut Wire, delta: f64, rng: &mut StdRng) {
    if wire.len() < 2 {
        return;
    }
    let at = rng.gen_range(0..wire.len() - 1);
    match rng.gen_range(0..7) {
        0 => wire.reverse(),
        1 => wire.shuffle(rng),
        // A duplicated id, adjacent or far from its twin.
        2 => wire.insert(rng.gen_range(0..=wire.len()), wire[at]),
        // Ids go missing: timely ones fail `isValid`, the others starve an
        // id of its `N − t` votes.
        3 => wire.retain(|_| rng.gen_bool(0.8)),
        4 => wire.truncate(at + 1),
        // Sub-δ and inverted spacing.
        5 => wire[at + 1].1 = Rank::new(wire[at].1.value() + delta / 2.0),
        _ => {
            let (a, b) = (wire[at].1, wire[at + 1].1);
            wire[at].1 = b;
            wire[at + 1].1 = a;
        }
    }
}

fn bits(ranks: impl IntoIterator<Item = (OriginalId, Rank)>) -> Vec<(OriginalId, u64)> {
    ranks
        .into_iter()
        .map(|(id, rank)| (id, rank.value().to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sorted_slices_agree_with_the_btreemap_model(
        seed in 0u64..u64::MAX,
        t in 0usize..4,
        slack in 1usize..8,
    ) {
        let Step { n, t, delta, timely, accepted, wires } = step(seed, 3 * t + slack, t);

        // Algorithm 2: which vectors are read at all, as what, and what
        // `isValid` says about them.
        let mut votes: Vec<RankVector> = Vec::new();
        let mut model_votes: Vec<vote_model::Model> = Vec::new();
        for wire in &wires {
            let (vote, model) = (RankVector::from_wire(wire), vote_model::from_wire(wire));
            prop_assert_eq!(vote.is_some(), model.is_some(), "seed {}: {:?}", seed, wire);
            let (Some(vote), Some(model)) = (vote, model) else { continue };
            prop_assert_eq!(bits(vote.iter()), bits(model.clone()), "seed {}", seed);
            let verdict: Result<(), ValidityViolation> = vote.check_valid(&timely, delta);
            prop_assert_eq!(
                &verdict,
                &vote_model::check_valid(&model, &timely, delta),
                "seed {}: {:?} against {:?}", seed, wire, timely
            );
            prop_assert_eq!(vote.is_valid(&timely, delta), verdict.is_ok());
            // Every well-formed vector goes on to Algorithm 3, valid or not
            // (the `disable_validation` ablation does exactly that), so
            // foreign ids and starved ids reach it.
            votes.push(vote);
            model_votes.push(model);
        }

        // Algorithm 3, every vote its own entry of one copy.
        let mine = RankVector::from_accepted(&accepted, delta);
        let (expected_ranks, expected_fates) =
            vote_model::approximate(&mine.iter().collect(), &accepted, &model_votes, n, t);
        let mut fates = Vec::new();
        let single: Vec<(&RankVector, usize)> = votes.iter().map(|vote| (vote, 1)).collect();
        let new_ranks = VoteScratch::default()
            .approximate(&mine, &ascending(&accepted), &single, n, t, |id, votes, rank| {
                fates.push((id, votes, rank.map(|r| r.value().to_bits())));
            });
        let expected_fates: Vec<_> = expected_fates
            .into_iter()
            .map(|(id, votes, rank)| (id, votes, rank.map(|r| r.value().to_bits())))
            .collect();
        prop_assert_eq!(fates, expected_fates, "seed {}", seed);
        prop_assert_eq!(bits(new_ranks.iter()), bits(expected_ranks.clone()), "seed {}", seed);
        // The public wrapper folds consecutive bit-identical votes as a
        // receiver does: same ranks bit for bit, and the survivors as a set.
        let (wrapped, survivors) = approximate(&mine, &accepted, &votes, n, t);
        prop_assert_eq!(bits(wrapped.iter()), bits(expected_ranks.clone()), "seed {}", seed);
        prop_assert_eq!(survivors, expected_ranks.keys().copied().collect::<BTreeSet<_>>());
    }
}

/// One receiver's inbox in which every shape a fold could get wrong recurs
/// on links scattered at random: the step's own hostile-shaped wires, a
/// correct wire and its twin that differs only in one rank's sign of zero
/// (`0.0` against `-0.0`), a malformed copy with a duplicated id, a
/// descending copy and an invalid copy with two ranks swapped. Each occurs
/// at least once, then the inbox is topped up with random repeats.
fn mixed_inbox(step: &Step, rng: &mut StdRng) -> Vec<Wire> {
    let correct = RankVector::from_accepted(&step.accepted, step.delta)
        .to_wire()
        .to_vec();
    let mut pool: Vec<Wire> = step.wires.iter().take(4).cloned().collect();
    if let Some(&(id, _)) = correct.first() {
        let mut zero = correct.clone();
        zero[0] = (id, Rank::new(0.0));
        let mut signed = zero.clone();
        signed[0] = (id, Rank::new(-0.0));
        let mut malformed = correct.clone();
        malformed.push(correct[0]);
        let descending: Wire = zero.iter().rev().copied().collect();
        let mut inverted = correct.clone();
        if inverted.len() >= 2 {
            let (a, b) = (inverted[0].1, inverted[1].1);
            (inverted[0].1, inverted[1].1) = (b, a);
        }
        pool.extend([correct, zero, signed, malformed, descending, inverted]);
    }
    let links = rng.gen_range(pool.len()..=pool.len() + step.n + 3);
    let mut inbox = pool.clone();
    inbox.extend((pool.len()..links).map(|_| pool.choose(rng).expect("never empty").clone()));
    inbox.shuffle(rng);
    inbox
}

/// What a receiver makes of `inbox` read in `order`: each link's verdict
/// (indexed by link, not by reading position), the accepted copies, and the
/// per-id fates and new ranks of Algorithm 3, bit for bit.
type Read = (
    Vec<Result<(), ValidityViolation>>,
    usize,
    Vec<(OriginalId, usize, Option<u64>)>,
    Vec<(OriginalId, u64)>,
);

fn read_in_order(step: &Step, inbox: &[Wire], order: &[usize]) -> Read {
    let mut verdicts = vec![Ok(()); inbox.len()];
    let wires: Vec<Arc<[(OriginalId, Rank)]>> = inbox.iter().map(|w| w.as_slice().into()).collect();
    let mut ballot = Ballot::with_capacity(inbox.len());
    for &link in order {
        verdicts[link] = ballot.cast(&wires[link], |vote| {
            RankVector::from_wire(vote)
                .expect("a vote reaches the judge in canonical form")
                .check_valid(&step.timely, step.delta)
        });
    }
    let mine = RankVector::from_accepted(&step.accepted, step.delta);
    let mut fates = Vec::new();
    let new_ranks = VoteScratch::default().approximate(
        &mine,
        &ascending(&step.accepted),
        ballot.votes(),
        step.n,
        step.t,
        |id, votes, rank| fates.push((id, votes, rank.map(|r| r.value().to_bits()))),
    );
    (verdicts, ballot.copies(), fates, bits(new_ranks.iter()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Link order does not matter: the fold reads a step's multiset of
    /// wires, and so does the `BTreeMap` model it is checked against.
    #[test]
    fn every_link_order_folds_to_the_model(
        seed in 0u64..u64::MAX,
        t in 0usize..4,
        slack in 1usize..8,
    ) {
        let step = step(seed, 3 * t + slack, t);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let inbox = mixed_inbox(&step, &mut rng);

        // The model: every link judged on its own, every valid link one vote.
        let mut expected_verdicts = Vec::new();
        let mut valid: Vec<vote_model::Model> = Vec::new();
        for wire in &inbox {
            let verdict = match vote_model::from_wire(wire) {
                None => Err(ValidityViolation::MalformedVector),
                Some(model) => vote_model::check_valid(&model, &step.timely, step.delta)
                    .map(|()| valid.push(model)),
            };
            expected_verdicts.push(verdict);
        }
        let mine = RankVector::from_accepted(&step.accepted, step.delta);
        let (expected_ranks, expected_fates) =
            vote_model::approximate(&mine.iter().collect(), &step.accepted, &valid, step.n, step.t);
        let expected: Read = (
            expected_verdicts,
            valid.len(),
            expected_fates
                .into_iter()
                .map(|(id, votes, rank)| (id, votes, rank.map(|r| r.value().to_bits())))
                .collect(),
            bits(expected_ranks),
        );

        let mut order: Vec<usize> = (0..inbox.len()).collect();
        for shuffle in 0..8 {
            match shuffle {
                0 => {}
                1 => order.reverse(),
                _ => order.shuffle(&mut rng),
            }
            let read = read_in_order(&step, &inbox, &order);
            prop_assert_eq!(&read, &expected, "seed {}, order {:?}", seed, order);
        }
    }
}

/// The generator reaches every shape the property is about; a generator
/// that quietly stopped producing one of them would leave the property
/// vacuous there.
#[test]
fn the_generator_covers_the_hostile_shapes() {
    const SHAPES: [&str; 15] = [
        "t = 0",
        "more than N votes",
        "duplicate id",
        "descending",
        "shuffled",
        "id outside accepted",
        "missing timely id",
        "inverted spacing",
        "sub-δ spacing",
        "id below N − t votes",
        "id kept",
        "run of bit-identical wires",
        "run broken by one different wire",
        "repeated malformed or invalid wire",
        "0.0 and -0.0 pair",
    ];
    let mut seen = [false; SHAPES.len()];
    for seed in 0..400u64 {
        let t = (seed % 4) as usize;
        let step = step(seed, 3 * t + 1 + (seed % 7) as usize, t);
        seen[0] |= t == 0;
        seen[1] |= step.wires.len() > step.n;
        let mut well_formed = Vec::new();
        for wire in &step.wires {
            let ascending = wire.windows(2).all(|w| w[0].0 < w[1].0);
            let Some(vote) = vote_model::from_wire(wire) else {
                seen[2] = true;
                continue;
            };
            seen[3] |= !ascending && wire.windows(2).all(|w| w[0].0 > w[1].0);
            seen[4] |= !ascending && wire.windows(2).any(|w| w[0].0 < w[1].0);
            seen[5] |= vote.keys().any(|id| !step.accepted.contains(id));
            match vote_model::check_valid(&vote, &step.timely, step.delta) {
                Err(ValidityViolation::MissingTimelyId { .. }) => seen[6] = true,
                Err(ValidityViolation::InsufficientSpacing {
                    prev_rank, rank, ..
                }) => seen[if rank < prev_rank { 7 } else { 8 }] = true,
                _ => {}
            }
            well_formed.push(vote);
        }
        let same = |a: &Wire, b: &Wire| bits(a.iter().copied()) == bits(b.iter().copied());
        for w in step.wires.windows(3) {
            seen[11] |= same(&w[0], &w[1]) && same(&w[1], &w[2]);
            seen[12] |= same(&w[0], &w[2]) && !same(&w[0], &w[1]);
        }
        for w in step.wires.windows(2) {
            let rejected = vote_model::from_wire(&w[0]).is_none_or(|vote| {
                vote_model::check_valid(&vote, &step.timely, step.delta).is_err()
            });
            seen[13] |= same(&w[0], &w[1]) && rejected;
            seen[14] |= w[0] == w[1] && !same(&w[0], &w[1]);
        }
        let mine = RankVector::from_accepted(&step.accepted, step.delta);
        let (_, fates) = vote_model::approximate(
            &mine.iter().collect(),
            &step.accepted,
            &well_formed,
            step.n,
            step.t,
        );
        seen[9] |= fates.iter().any(|fate| fate.2.is_none());
        seen[10] |= fates.iter().any(|fate| fate.2.is_some());
    }
    let missing: Vec<&str> = SHAPES
        .iter()
        .zip(seen)
        .filter_map(|(shape, seen)| (!seen).then_some(*shape))
        .collect();
    assert!(missing.is_empty(), "never generated: {missing:?}");
}
