//! Per-instance id interning and dense slot bitsets.
//!
//! The flood's hot path is dominated by set *representation*: `BTreeSet<V>`
//! payloads force every receiver to walk every sender's id set through
//! O(log k) tree inserts. Thresholds only count *distinct links per value*,
//! so the representation is semantics-free (the same argument DESIGN.md
//! makes for batched delivery) — any encoding that preserves the value
//! *sets* preserves the protocol.
//!
//! [`IdInterner`] assigns each value a small dense slot on first sight
//! (adversary-introduced values included — interning is not an admission
//! decision, just a name for a wire position). [`IdSlotSet`] is a bitset
//! over those slots in one shared `Arc<[u64]>` word slice; senders build it
//! once, and a receiver sharing the same interner accumulates it with
//! word-parallel `trailing_zeros` walks instead of per-value tree
//! operations.
//!
//! # Shared words
//!
//! Cloning a set, and so sending it, clones a handle on its words. A set
//! writes its words in place only while it is their one holder and they are
//! long enough, and copies them into a new slice otherwise ([`words_mut`],
//! [`words_cleared`]): a sender keeps the handle of what it sent and rewrites
//! that slice for its next message once the network has dropped the last
//! one, while a message someone still holds never changes. A slice may be
//! longer than its highest set slot needs; the extra words are zero, and
//! every observable below ignores them.
//!
//! # Determinism
//!
//! Slot numbers are *not* deterministic: when actors are stepped on worker
//! threads (`Network::step_on`), they intern concurrently, so first-sight
//! order (and hence slot order) varies between runs. Every observable therefore goes through values, never
//! slots: `Debug` renders the decoded values in `Ord` order (byte-identical
//! to the `BTreeSet` rendering traces were blessed against), equality and
//! wire size are value-based, and the flood decodes to value-ordered
//! `BTreeSet`s before anything escapes. Slots are a run-local register
//! allocation, invisible outside.
//!
//! # Foreign interners
//!
//! Sharing one interner per run is the fast path, not a correctness
//! requirement: a set built against a different interner (tests driving
//! actors by hand, replayed messages, adversaries constructed standalone)
//! is decoded value-by-value and re-interned on arrival. Everything keeps
//! working unshared — just at the old speed.

use opr_sim::WireSize;
use std::borrow::Cow;
use std::fmt;
use std::sync::{Arc, RwLock};

/// Number of slots per bitset word.
pub const WORD_BITS: usize = 64;

#[derive(Debug, Default)]
struct InternerState<V> {
    /// Slot → value.
    slots: Vec<V>,
    /// Value → slot, sorted by value: a binary search finds a slot, and a
    /// [`clear`](IdInterner::clear) keeps the storage for the next run.
    index: Vec<(V, u32)>,
}

impl<V: Ord> InternerState<V> {
    /// Where `value` is in `index`, or where it would go.
    fn position(&self, value: &V) -> Result<usize, usize> {
        self.index.binary_search_by(|(entry, _)| entry.cmp(value))
    }
}

/// A shared value ⇄ dense-slot registry; cloning shares the registry.
///
/// One interner per protocol instance: the runner creates it and every
/// actor (correct and adversarial) registers values through it, so all
/// messages of a run agree on slot numbering and receivers can count
/// word-parallel without decoding.
#[derive(Debug, Default)]
pub struct IdInterner<V> {
    state: Arc<RwLock<InternerState<V>>>,
}

impl<V> Clone for IdInterner<V> {
    fn clone(&self) -> Self {
        IdInterner {
            state: Arc::clone(&self.state),
        }
    }
}

impl<V: Ord + Clone> IdInterner<V> {
    /// Creates an empty interner.
    pub fn new() -> Self {
        IdInterner {
            state: Arc::new(RwLock::new(InternerState {
                slots: Vec::new(),
                index: Vec::new(),
            })),
        }
    }

    /// The slot of `value`, assigning the next free slot on first sight.
    pub fn intern(&self, value: &V) -> u32 {
        if let Some(slot) = self.lookup(value) {
            return slot;
        }
        let mut state = write_lock(&self.state);
        // Double-check: another thread may have interned between our read
        // probe and this write lock.
        match state.position(value) {
            Ok(at) => state.index[at].1,
            Err(at) => {
                let slot = u32::try_from(state.slots.len()).expect("slot space exhausted");
                state.slots.push(value.clone());
                state.index.insert(at, (value.clone(), slot));
                slot
            }
        }
    }

    /// The slot of `value`, if it has ever been interned.
    pub fn lookup(&self, value: &V) -> Option<u32> {
        let state = read_lock(&self.state);
        state.position(value).ok().map(|at| state.index[at].1)
    }

    /// The value behind `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` was never assigned.
    pub fn value_of(&self, slot: u32) -> V {
        read_lock(&self.state).slots[slot as usize].clone()
    }

    /// How many distinct values have been interned.
    pub fn len(&self) -> usize {
        read_lock(&self.state).slots.len()
    }

    /// Whether no value has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forgets every value, keeping the tables' capacity: the next
    /// value interned gets slot 0 again, so a run on a cleared interner
    /// numbers its slots as a run on a new one would. Every clone sees the
    /// cleared registry; a set built before the clear must not be read
    /// after it.
    pub fn clear(&self) {
        let mut state = write_lock(&self.state);
        state.slots.clear();
        state.index.clear();
    }

    /// Whether `self` and `other` are the *same* registry (not merely equal
    /// content) — the precondition for comparing raw words across sets.
    pub(crate) fn same_as(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.state, &other.state)
    }

    /// Calls `f` with the slot → value table, under one read lock.
    pub(crate) fn with_values<R>(&self, f: impl FnOnce(&[V]) -> R) -> R {
        f(&read_lock(&self.state).slots)
    }

    /// Decodes the set slots of `words` into values, sorted by `Ord`.
    fn decode_sorted(&self, words: &[u64]) -> Vec<V> {
        let state = read_lock(&self.state);
        let members = words.iter().map(|w| w.count_ones() as usize).sum();
        let mut values: Vec<V> = Vec::with_capacity(members);
        for (word_index, &word) in words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let slot = word_index * WORD_BITS + bits.trailing_zeros() as usize;
                values.push(state.slots[slot].clone());
                bits &= bits - 1;
            }
        }
        values.sort();
        values
    }
}

/// RwLock poisoning only happens when a panicking run is being contained
/// (chaos campaigns `catch_unwind` actor panics); the registry itself is
/// never left mid-update, so reading through poison is sound.
fn read_lock<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn write_lock<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// `words` writable and at least `len` words long, their bits kept: in
/// place while `words` is the slice's one handle and long enough, otherwise
/// copied into a new slice (the words it adds are zero).
pub(crate) fn words_mut(words: &mut Arc<[u64]>, len: usize) -> &mut [u64] {
    if len.max(words.len()) == 0 {
        // The empty slice is shared and has no word to write.
        return &mut [];
    }
    if words.len() < len || Arc::get_mut(words).is_none() {
        let extra = len.saturating_sub(words.len());
        *words = words
            .iter()
            .copied()
            .chain(std::iter::repeat_n(0, extra))
            .collect();
    }
    Arc::get_mut(words).expect("a new slice has one handle")
}

/// `words` emptied and at least `len` words long: zeroed in place while
/// `words` is the slice's one handle and long enough, otherwise a new
/// zeroed slice (the shared empty one, which allocates nothing, for
/// `len == 0`).
pub(crate) fn words_cleared(words: &mut Arc<[u64]>, len: usize) -> &mut [u64] {
    if Arc::get_mut(words).is_none_or(|words| words.len() < len) {
        *words = match len {
            0 => Arc::default(),
            _ => std::iter::repeat_n(0, len).collect(),
        };
    }
    match Arc::get_mut(words) {
        Some(words) => {
            words.fill(0);
            words
        }
        None => &mut [],
    }
}

/// A dense bitset of interned values, carrying its interner handle.
///
/// Renders (`Debug`), compares (`PartialEq`) and sizes ([`WireSize`])
/// exactly like the `BTreeSet<V>` it replaces, so traces, metrics and
/// payload caps cannot tell the difference. A clone shares the words (see
/// the module's "Shared words").
#[derive(Clone)]
pub struct IdSlotSet<V> {
    words: Arc<[u64]>,
    interner: IdInterner<V>,
}

impl<V: Ord + Clone> IdSlotSet<V> {
    /// An empty set over `interner`'s slot space.
    pub(crate) fn new(interner: &IdInterner<V>) -> Self {
        IdSlotSet {
            words: Arc::default(),
            interner: interner.clone(),
        }
    }

    /// Builds a set by interning every value of `values`.
    pub fn from_values<I>(interner: &IdInterner<V>, values: I) -> Self
    where
        I: IntoIterator<Item = V>,
    {
        let mut set = IdSlotSet::new(interner);
        for v in values {
            set.insert(&v);
        }
        set
    }

    /// A set over `words`, slot words already relative to `interner`,
    /// sharing them — the flood's zero-copy path from its accumulated state
    /// to an outgoing message.
    pub(crate) fn shared(interner: &IdInterner<V>, words: &Arc<[u64]>) -> Self {
        IdSlotSet {
            words: Arc::clone(words),
            interner: interner.clone(),
        }
    }

    /// Inserts `value`, interning it on first sight. Words that must grow
    /// grow to cover every slot interned so far, so building a set of
    /// interned values copies its words at most once.
    pub fn insert(&mut self, value: &V) {
        let slot = self.interner.intern(value) as usize;
        let word = slot / WORD_BITS;
        let len = if word < self.words.len() {
            0
        } else {
            self.interner.len().div_ceil(WORD_BITS)
        };
        words_mut(&mut self.words, len)[word] |= 1u64 << (slot % WORD_BITS);
    }

    /// Removes every value, keeping the words while this set is their one
    /// holder.
    pub fn clear(&mut self) {
        words_cleared(&mut self.words, 0);
    }

    /// Number of values in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The raw bitset words (trailing zero words included as stored).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The interner this set's slots are relative to.
    pub fn interner(&self) -> &IdInterner<V> {
        &self.interner
    }

    /// The set's values in `Ord` order — the canonical decoded form that
    /// `Debug`, equality and wire accounting are defined over.
    pub fn values_sorted(&self) -> Vec<V> {
        self.interner.decode_sorted(&self.words)
    }

    /// The set's words rebased onto `target`'s slot space: borrowed when
    /// the interners are the same registry (the fast path, zero-copy), a
    /// decoded and re-interned copy otherwise.
    pub fn words_in<'a>(&'a self, target: &IdInterner<V>) -> Cow<'a, [u64]> {
        if self.interner.same_as(target) {
            Cow::Borrowed(&self.words)
        } else {
            let mut words: Vec<u64> = Vec::new();
            for v in self.values_sorted() {
                let slot = target.intern(&v) as usize;
                let word = slot / WORD_BITS;
                if word >= words.len() {
                    words.resize(word + 1, 0);
                }
                words[word] |= 1u64 << (slot % WORD_BITS);
            }
            Cow::Owned(words)
        }
    }
}

/// Union: ORs `other`'s slots into `self` word by word — rebased first if
/// `other` was built against a different interner.
impl<V: Ord + Clone> std::ops::BitOrAssign<&IdSlotSet<V>> for IdSlotSet<V> {
    fn bitor_assign(&mut self, other: &IdSlotSet<V>) {
        let words = other.words_in(&self.interner);
        let mine = words_mut(&mut self.words, words.len());
        for (mine, theirs) in mine.iter_mut().zip(words.iter()) {
            *mine |= theirs;
        }
    }
}

impl<V: Ord + Clone + fmt::Debug> fmt::Debug for IdSlotSet<V> {
    /// Renders as a value set in `Ord` order — byte-identical to the
    /// `BTreeSet<V>` rendering the golden traces were recorded against.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.values_sorted()).finish()
    }
}

impl<V: Ord + Clone> PartialEq for IdSlotSet<V> {
    fn eq(&self, other: &Self) -> bool {
        if self.interner.same_as(&other.interner) {
            let longest = self.words.len().max(other.words.len());
            (0..longest).all(|i| {
                self.words.get(i).copied().unwrap_or(0) == other.words.get(i).copied().unwrap_or(0)
            })
        } else {
            self.values_sorted() == other.values_sorted()
        }
    }
}

impl<V: Ord + Clone> Eq for IdSlotSet<V> {}

impl<V: Ord + Clone + WireSize> WireSize for IdSlotSet<V> {
    /// The sum of the member values' wire sizes — the same per-id accounting
    /// the `BTreeSet` payload reported, so caps and metrics stay bit-stable.
    /// A sum needs no order: the set bits are walked under one interner
    /// lock, nothing is decoded into a list or sorted.
    fn wire_bits(&self) -> u64 {
        self.interner.with_values(|values| {
            let mut bits = 0;
            for_each_slot(&self.words, |slot| bits += values[slot].wire_bits());
            bits
        })
    }
}

/// Walks the set bits of `words`, invoking `visit(slot)` for each in
/// ascending slot order — the word-parallel inner loop shared by the flood
/// and every slot-counting aggregation.
#[inline]
pub fn for_each_slot(words: &[u64], mut visit: impl FnMut(usize)) {
    for (word_index, &word) in words.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            visit(word_index * WORD_BITS + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn interning_is_first_sight_dense_and_stable() {
        let interner: IdInterner<u64> = IdInterner::new();
        assert_eq!(interner.intern(&30), 0);
        assert_eq!(interner.intern(&10), 1);
        assert_eq!(interner.intern(&30), 0, "re-interning is stable");
        assert_eq!(interner.value_of(1), 10);
        assert_eq!(interner.len(), 2);
        // A cleared interner numbers from slot 0 again, in every clone.
        let clone = interner.clone();
        interner.clear();
        assert!(clone.is_empty());
        assert_eq!(clone.lookup(&30), None);
        assert_eq!(interner.intern(&10), 0);
        assert_eq!(clone.value_of(0), 10);
    }

    #[test]
    fn debug_matches_btreeset_rendering() {
        let interner = IdInterner::new();
        // Intern out of order so slots and Ord order disagree.
        let set = IdSlotSet::from_values(&interner, [9u64, 1, 70, 4]);
        let tree: BTreeSet<u64> = [9, 1, 70, 4].into();
        assert_eq!(format!("{set:?}"), format!("{tree:?}"));
    }

    #[test]
    fn equality_is_value_based_across_interners() {
        let a = IdSlotSet::from_values(&IdInterner::new(), [3u64, 1, 2]);
        let other = IdInterner::new();
        other.intern(&99); // shift the slot numbering
        let b = IdSlotSet::from_values(&other, [2u64, 3, 1]);
        assert_eq!(a, b);
        let c = IdSlotSet::from_values(&other, [2u64, 3]);
        assert_ne!(a, c);
    }

    #[test]
    fn same_interner_equality_ignores_trailing_zero_words() {
        let interner = IdInterner::new();
        let a = IdSlotSet::from_values(&interner, [0u64]);
        let mut b = IdSlotSet::from_values(&interner, [0u64, 65]);
        // Clearing the high value leaves b with an extra all-zero word.
        let slot = interner.lookup(&65).unwrap() as usize;
        words_mut(&mut b.words, 0)[slot / WORD_BITS] &= !(1u64 << (slot % WORD_BITS));
        assert_eq!(a, b);
    }

    #[test]
    fn words_in_borrows_on_shared_and_rebases_on_foreign() {
        let shared = IdInterner::new();
        let set = IdSlotSet::from_values(&shared, [5u64, 6]);
        assert!(matches!(set.words_in(&shared), Cow::Borrowed(_)));

        let foreign = IdInterner::new();
        foreign.intern(&6); // different slot order
        let rebased = set.words_in(&foreign);
        assert!(matches!(rebased, Cow::Owned(_)));
        let mut slots = Vec::new();
        for_each_slot(&rebased, |s| slots.push(s));
        assert_eq!(slots, vec![0, 1], "6 then 5 in foreign slot order");
        assert_eq!(foreign.value_of(1), 5);
    }

    #[test]
    fn union_is_the_value_union_on_shared_and_foreign_interners() {
        let shared = IdInterner::new();
        let mut set = IdSlotSet::from_values(&shared, [1u64, 2]);
        set |= &IdSlotSet::from_values(&shared, (2..100).chain([1000]));
        let expected: Vec<u64> = (1..100).chain([1000]).collect();
        assert_eq!(set.values_sorted(), expected);

        let foreign = IdInterner::new();
        foreign.intern(&7); // different slot order
        set |= &IdSlotSet::from_values(&foreign, [7u64, 5000]);
        let expected: Vec<u64> = (1..100).chain([1000, 5000]).collect();
        assert_eq!(set.values_sorted(), expected);
    }

    /// A clone shares the words; a write to a set that shares them copies
    /// them first, and one to a set that holds them alone writes in place.
    #[test]
    fn shared_words_are_copied_on_write_and_unshared_ones_written_in_place() {
        let interner = IdInterner::new();
        let mut set = IdSlotSet::from_values(&interner, [1u64, 2]);
        let sent = set.clone();
        assert!(Arc::ptr_eq(&set.words, &sent.words));
        set.insert(&3);
        assert!(!Arc::ptr_eq(&set.words, &sent.words));
        assert_eq!(sent.values_sorted(), [1, 2]);
        let before = Arc::as_ptr(&set.words);
        set.insert(&4);
        set.clear();
        assert_eq!(Arc::as_ptr(&set.words), before, "one holder: in place");
        assert!(set.is_empty());
        let held = set.clone();
        set.clear();
        assert!(set.words.is_empty(), "a held slice is left to its holder");
        assert_eq!(Arc::as_ptr(&held.words), before);
    }

    #[test]
    fn for_each_slot_walks_in_ascending_order_across_words() {
        let interner = IdInterner::new();
        let mut set = IdSlotSet::new(&interner);
        for v in 0..130u64 {
            interner.intern(&v);
        }
        for v in [0u64, 63, 64, 129] {
            set.insert(&v);
        }
        let mut slots = Vec::new();
        for_each_slot(set.words(), |s| slots.push(s));
        assert_eq!(slots, vec![0, 63, 64, 129]);
        assert_eq!(set.len(), 4);
    }
}
