//! The `BTreeMap` model of Algorithms 2–3: the bodies of `RankVector::
//! {from_wire, check_valid}` and `approximate_observed` as they stood before
//! votes became sorted slices, kept as the differential oracle of
//! `vote_equiv.rs` and of the tile test in `src/ranks.rs` — not library code.

use opr_aa::{reduce, OrderedMultiset};
use opr_obs::ValidityViolation;
use opr_types::{OriginalId, Rank};
use std::collections::{BTreeMap, BTreeSet};

pub(crate) type Model = BTreeMap<OriginalId, Rank>;
/// One `observe` callback: the id, its valid votes, its new rank if kept.
pub(crate) type Fate = (OriginalId, usize, Option<Rank>);

pub(crate) fn from_wire(entries: &[(OriginalId, Rank)]) -> Option<Model> {
    let map: Model = entries.iter().copied().collect();
    (map.len() == entries.len()).then_some(map)
}

pub(crate) fn check_valid(
    vote: &Model,
    timely: &BTreeSet<OriginalId>,
    spacing: f64,
) -> Result<(), ValidityViolation> {
    let mut prev: Option<(OriginalId, Rank)> = None;
    for &id in timely {
        let rank = *vote
            .get(&id)
            .ok_or(ValidityViolation::MissingTimelyId { id })?;
        if let Some((prev_id, prev_rank)) = prev {
            if !prev_rank.spaced_at_least(rank, spacing) {
                return Err(ValidityViolation::InsufficientSpacing {
                    prev: prev_id,
                    prev_rank,
                    id,
                    rank,
                    spacing,
                });
            }
        }
        prev = Some((id, rank));
    }
    Ok(())
}

pub(crate) fn approximate(
    my_ranks: &Model,
    accepted: &BTreeSet<OriginalId>,
    valid_votes: &[Model],
    n: usize,
    t: usize,
) -> (Model, Vec<Fate>) {
    let (mut new_ranks, mut fates) = (Model::new(), Vec::new());
    for &id in accepted {
        let bucket: Vec<Rank> = valid_votes
            .iter()
            .filter_map(|v| v.get(&id))
            .copied()
            .collect();
        let raw_votes = bucket.len();
        if raw_votes < n - t {
            fates.push((id, raw_votes, None));
            continue; // discard this id (Algorithm 3, line 08)
        }
        let own = my_ranks[&id];
        let mut votes = OrderedMultiset::from_vec(bucket);
        votes.fill_to(n, own);
        let rank = reduce(&votes, t);
        fates.push((id, raw_votes, Some(rank)));
        new_ranks.insert(id, rank);
    }
    (new_ranks, fates)
}
