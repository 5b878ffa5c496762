//! Model-level wire-size accounting.
//!
//! The paper states message sizes in bits as functions of `log N_max` and
//! `log N` (Sections IV-D and VI-B). To report comparable numbers without
//! tying results to a particular serializer, every message type implements
//! [`WireSize`] and computes its size from the same model quantities.

/// Bits to encode one original id: `⌈log₂ N_max⌉` for the default namespace
/// `N_max = 2⁴⁸`.
pub const ID_BITS: u64 = 48;

/// Bits to encode one rank value (an IEEE-754 double).
pub const RANK_BITS: u64 = 64;

/// Bits for a message-type tag.
pub const TAG_BITS: u64 = 4;

/// Bits for a length prefix of a collection.
pub const COUNT_BITS: u64 = 16;

/// Types that know their size on the wire, in bits.
///
/// Implementations should be *model-accurate*: charge [`ID_BITS`] per id,
/// [`RANK_BITS`] per rank, [`TAG_BITS`] per tag and [`COUNT_BITS`] per
/// collection, rather than `size_of` (which reflects Rust layout, not the
/// protocol).
pub trait WireSize {
    /// Size of this message on the wire, in bits.
    fn wire_bits(&self) -> u64;
}

impl WireSize for () {
    fn wire_bits(&self) -> u64 {
        TAG_BITS
    }
}

impl WireSize for opr_types::OriginalId {
    fn wire_bits(&self) -> u64 {
        ID_BITS
    }
}

impl WireSize for opr_types::Rank {
    fn wire_bits(&self) -> u64 {
        RANK_BITS
    }
}

impl WireSize for opr_types::NewName {
    fn wire_bits(&self) -> u64 {
        RANK_BITS
    }
}

impl<A: WireSize, B: WireSize> WireSize for (A, B) {
    fn wire_bits(&self) -> u64 {
        self.0.wire_bits() + self.1.wire_bits()
    }
}

impl<T: WireSize> WireSize for Option<T> {
    fn wire_bits(&self) -> u64 {
        1 + self.as_ref().map_or(0, WireSize::wire_bits)
    }
}

impl<T: WireSize> WireSize for Vec<T> {
    fn wire_bits(&self) -> u64 {
        COUNT_BITS + self.iter().map(WireSize::wire_bits).sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_and_vec_impls() {
        assert_eq!(().wire_bits(), TAG_BITS);
        assert_eq!(Some(()).wire_bits(), 1 + TAG_BITS);
        assert_eq!(None::<()>.wire_bits(), 1);
        let v = vec![(), (), ()];
        assert_eq!(v.wire_bits(), COUNT_BITS + 3 * TAG_BITS);
    }
}
