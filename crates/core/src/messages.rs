//! Message vocabularies of the paper's two protocols.

use opr_rbcast::{FloodMsg, IdSlotSet};
use opr_sim::{WireSize, COUNT_BITS, ID_BITS, RANK_BITS, TAG_BITS};
use opr_types::{OriginalId, Rank};
use std::sync::Arc;

/// Messages of Algorithm 1.
#[derive(Clone, Debug, PartialEq)]
pub enum Alg1Msg {
    /// Steps 1–4: the id-selection flood (`Id` / `Echo` / `Ready`).
    Flood(FloodMsg<OriginalId>),
    /// Steps 5 and later: an `⟨AA, ranks⟩` vote — the sender's current rank
    /// for every id it still tracks, in ascending id order. Shared, so a
    /// broadcast, a multicast of one vector to many links and a receiver's
    /// ballot all hold the sender's one slice.
    Votes(Arc<[(OriginalId, Rank)]>),
}

impl WireSize for Alg1Msg {
    fn wire_bits(&self) -> u64 {
        match self {
            Alg1Msg::Flood(f) => TAG_BITS + f.wire_bits(),
            Alg1Msg::Votes(entries) => {
                TAG_BITS + COUNT_BITS + entries.len() as u64 * (ID_BITS + RANK_BITS)
            }
        }
    }
}

/// Messages of Algorithm 4 (2-step renaming).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TwoStepMsg {
    /// Step 1: announce one id.
    Id(OriginalId),
    /// Step 2: echo every id received in step 1, as an interned-slot bitset
    /// (value-rendered and value-sized, indistinguishable from the
    /// `BTreeSet` encoding it replaced).
    MultiEcho(IdSlotSet<OriginalId>),
}

impl WireSize for TwoStepMsg {
    fn wire_bits(&self) -> u64 {
        match self {
            TwoStepMsg::Id(_) => TAG_BITS + ID_BITS,
            TwoStepMsg::MultiEcho(ids) => TAG_BITS + COUNT_BITS + ids.len() as u64 * ID_BITS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alg1_vote_size_matches_paper_bound() {
        // Message size is O((N+t−1)(log Nmax + log N)) bits: linear in the
        // number of entries.
        let entries: Vec<(OriginalId, Rank)> = (0..12)
            .map(|i| (OriginalId::new(i), Rank::new(i as f64)))
            .collect();
        let msg = Alg1Msg::Votes(entries.into());
        assert_eq!(
            msg.wire_bits(),
            TAG_BITS + COUNT_BITS + 12 * (ID_BITS + RANK_BITS)
        );
    }

    #[test]
    fn two_step_multiecho_size_is_linear_in_ids() {
        // O(N log Nmax) bits (Section VI-B).
        let interner = opr_rbcast::IdInterner::new();
        let small = TwoStepMsg::MultiEcho(IdSlotSet::from_values(
            &interner,
            (0..2).map(OriginalId::new),
        ));
        let large = TwoStepMsg::MultiEcho(IdSlotSet::from_values(
            &interner,
            (0..10).map(OriginalId::new),
        ));
        assert_eq!(large.wire_bits() - small.wire_bits(), 8 * ID_BITS);
    }

    #[test]
    fn flood_wrapper_adds_only_tag_overhead() {
        let inner = FloodMsg::Init(OriginalId::new(7));
        let outer = Alg1Msg::Flood(inner.clone());
        assert_eq!(outer.wire_bits(), TAG_BITS + inner.wire_bits());
    }
}
