//! Strongly-typed identifiers for the synchronous Byzantine model.
//!
//! The paper's model distinguishes several kinds of "names" that are easy to
//! confuse when they are all bare integers:
//!
//! * the *original id* a process starts with (drawn from a huge namespace
//!   `[1 ⋯ N_max]`, only known to the process itself),
//! * the *new name* it outputs (drawn from the small target namespace
//!   `[1 ⋯ M]`),
//! * the *link label* a message arrives on (local to each process, `1 ⋯ N`,
//!   with link `N` being the self-loop), and
//! * the *process index*, a simulator-only handle that no protocol logic is
//!   allowed to see (processes in the model do **not** know global indices).
//!
//! Each gets its own newtype so that the compiler enforces the model.

use std::fmt;

/// The identifier a process starts with, drawn from `[1 ⋯ N_max]`.
///
/// Only the owning process knows its original id before the protocol runs;
/// Byzantine processes may claim arbitrary ids, including ids belonging to
/// correct processes or ids that belong to nobody.
///
/// # Example
///
/// ```
/// use opr_types::OriginalId;
/// let a = OriginalId::new(42);
/// let b = OriginalId::new(7);
/// assert!(b < a, "original ids order by their numeric value");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct OriginalId(u64);

impl OriginalId {
    /// Wraps a raw id value.
    pub const fn new(raw: u64) -> Self {
        OriginalId(raw)
    }

    /// Returns the raw numeric value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for OriginalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "id:{}", self.0)
    }
}

impl fmt::Display for OriginalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for OriginalId {
    fn from(raw: u64) -> Self {
        OriginalId(raw)
    }
}

/// A new name output by a renaming algorithm, an integer in `[1 ⋯ M]`.
///
/// `M` is `N + t − 1` for Algorithm 1, `N` for its constant-time variant and
/// `N²` for the 2-step algorithm; see
/// [`SystemConfig::namespace_bound`](crate::SystemConfig::namespace_bound).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NewName(i64);

impl NewName {
    /// Wraps a raw name. Names produced by correct processes are ≥ 1; the
    /// raw value is signed so that off-by-one bugs surface as negative names
    /// in tests instead of wrapping around.
    pub const fn new(raw: i64) -> Self {
        NewName(raw)
    }

    /// Returns the raw numeric value.
    pub const fn raw(self) -> i64 {
        self.0
    }

    /// Whether the name lies in the target namespace `[1 ⋯ bound]`.
    pub(crate) fn in_namespace(self, bound: u64) -> bool {
        self.0 >= 1 && (self.0 as u128) <= (bound as u128)
    }
}

impl fmt::Debug for NewName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "name:{}", self.0)
    }
}

impl fmt::Display for NewName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<i64> for NewName {
    fn from(raw: i64) -> Self {
        NewName(raw)
    }
}

/// A per-process link label in `1 ⋯ N`; link `N` is the self-loop.
///
/// Link labels are *local*: the label process `p` uses for the channel to
/// `q` is unrelated to the label `q` uses for `p`. Protocol code may count
/// distinct links a message type arrived on, but must never treat a label as
/// a global identity.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(usize);

impl LinkId {
    /// Wraps a 1-based link label.
    ///
    /// # Panics
    ///
    /// Panics if `label` is zero; labels are 1-based as in the paper.
    pub fn new(label: usize) -> Self {
        assert!(label >= 1, "link labels are 1-based");
        LinkId(label)
    }

    /// The 1-based label.
    pub const fn label(self) -> usize {
        self.0
    }

    /// Zero-based index, convenient for vector indexing.
    pub const fn index(self) -> usize {
        self.0 - 1
    }
}

impl fmt::Debug for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lnk:{}", self.0)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Simulator-side process handle (zero-based).
///
/// This exists only so that the network engine, adversary construction and
/// metrics can talk about processes. Honest protocol logic never sees it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcessIndex(usize);

impl ProcessIndex {
    /// Wraps a zero-based index.
    pub const fn new(index: usize) -> Self {
        ProcessIndex(index)
    }

    /// The zero-based index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for ProcessIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for ProcessIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<usize> for ProcessIndex {
    fn from(index: usize) -> Self {
        ProcessIndex(index)
    }
}

/// A synchronous round (communication step), 1-based as in the paper.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Round(u32);

impl Round {
    /// The first round.
    pub const FIRST: Round = Round(1);

    /// Wraps a 1-based round number.
    ///
    /// # Panics
    ///
    /// Panics if `number` is zero.
    pub fn new(number: u32) -> Self {
        assert!(number >= 1, "rounds are 1-based");
        Round(number)
    }

    /// The 1-based round number.
    pub const fn number(self) -> u32 {
        self.0
    }

    /// The next round.
    pub const fn next(self) -> Round {
        Round(self.0 + 1)
    }
}

impl fmt::Debug for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn original_ids_order_by_value() {
        let mut set = BTreeSet::new();
        set.insert(OriginalId::new(30));
        set.insert(OriginalId::new(10));
        set.insert(OriginalId::new(20));
        let sorted: Vec<u64> = set.iter().map(|id| id.raw()).collect();
        assert_eq!(sorted, vec![10, 20, 30]);
    }

    #[test]
    fn new_name_namespace_membership() {
        assert!(NewName::new(1).in_namespace(1));
        assert!(NewName::new(7).in_namespace(7));
        assert!(!NewName::new(8).in_namespace(7));
        assert!(!NewName::new(0).in_namespace(7));
        assert!(!NewName::new(-3).in_namespace(7));
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn link_id_rejects_zero() {
        let _ = LinkId::new(0);
    }

    #[test]
    fn round_progression() {
        let r = Round::FIRST;
        assert_eq!(r.number(), 1);
        assert_eq!(r.next().number(), 2);
        assert!(Round::new(3) > Round::new(2));
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn round_rejects_zero() {
        let _ = Round::new(0);
    }

    #[test]
    fn debug_representations_are_nonempty_and_tagged() {
        assert_eq!(format!("{:?}", OriginalId::new(9)), "id:9");
        assert_eq!(format!("{:?}", NewName::new(-1)), "name:-1");
        assert_eq!(format!("{:?}", LinkId::new(2)), "lnk:2");
        assert_eq!(format!("{:?}", ProcessIndex::new(0)), "p0");
        assert_eq!(format!("{:?}", Round::new(4)), "r4");
    }

    #[test]
    fn conversions() {
        let id: OriginalId = 5u64.into();
        assert_eq!(id.raw(), 5);
        let name: NewName = 9i64.into();
        assert_eq!(name.raw(), 9);
        let p: ProcessIndex = 3usize.into();
        assert_eq!(p.index(), 3);
    }
}
