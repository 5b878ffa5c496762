//! A sorted multiset of votes with the fill operation of Algorithm 3.

use std::fmt::Debug;

/// An always-sorted multiset (duplicates allowed).
///
/// Backed by a sorted `Vec`, which is optimal at the sizes AA works with
/// (`|votes| ≤ N`).
///
/// # Example
///
/// ```
/// use opr_aa::OrderedMultiset;
/// let mut ms = OrderedMultiset::from_vec(vec![5, 1, 5, 3]);
/// ms.fill_to(6, 4); // two missing votes, filled with one's own (4)
/// assert_eq!(ms, [1, 3, 4, 4, 5, 5].into_iter().collect());
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct OrderedMultiset<T> {
    items: Vec<T>,
}

impl<T: Ord + Copy> OrderedMultiset<T> {
    /// Builds from an owned vector, sorting in place — the zero-copy
    /// hand-off for callers that already bucketed their votes (e.g. the
    /// per-id aggregation over flooded sets in `opr-core`).
    pub fn from_vec(mut items: Vec<T>) -> Self {
        items.sort_unstable();
        OrderedMultiset { items }
    }

    /// The sorted contents.
    pub(crate) fn as_slice(&self) -> &[T] {
        &self.items
    }

    /// Appends copies of `value` until the multiset has `n` elements
    /// (Algorithm 3, lines 10–11: fill missing votes with one's own vote).
    /// Does nothing if the multiset already has `≥ n` elements.
    ///
    /// The `k` missing copies form one contiguous run in sort order, so they
    /// are spliced in with a single insertion-point search and one shift of
    /// the tail — O(n + k) instead of the O(k·n) of repeated `insert`.
    pub fn fill_to(&mut self, n: usize, value: T) {
        if self.items.len() >= n {
            return;
        }
        let missing = n - self.items.len();
        let pos = self.items.partition_point(|x| *x <= value);
        self.items
            .splice(pos..pos, std::iter::repeat_n(value, missing));
    }
}

impl<T: Ord + Copy> FromIterator<T> for OrderedMultiset<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut items: Vec<T> = iter.into_iter().collect();
        items.sort_unstable();
        OrderedMultiset { items }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Test-only operations: the reduction tests in `select` build their
    /// reference trim and their contraction inputs from these.
    impl<T: Ord + Copy> OrderedMultiset<T> {
        /// Inserts a value, keeping the multiset sorted.
        pub(crate) fn insert(&mut self, value: T) {
            let pos = self.items.partition_point(|x| *x <= value);
            self.items.insert(pos, value);
        }

        /// Smallest element, if any.
        pub(crate) fn min(&self) -> Option<T> {
            self.items.first().copied()
        }

        /// Largest element, if any.
        pub(crate) fn max(&self) -> Option<T> {
            self.items.last().copied()
        }

        /// Removes the `t` smallest and `t` largest elements (Algorithm 3,
        /// lines 12–14). Clears the multiset if it has `≤ 2t` elements.
        pub(crate) fn trim(&mut self, t: usize) {
            if self.items.len() <= 2 * t {
                self.items.clear();
            } else {
                self.items.truncate(self.items.len() - t);
                self.items.drain(..t);
            }
        }
    }

    #[test]
    fn fill_to_pads_with_value() {
        let mut ms: OrderedMultiset<i32> = [5, 1].into_iter().collect();
        ms.fill_to(5, 3);
        assert_eq!(ms.as_slice(), &[1, 3, 3, 3, 5]);
        // Already long enough: no-op.
        ms.fill_to(2, 9);
        assert_eq!(ms.as_slice().len(), 5);
    }

    proptest! {
        #[test]
        fn from_iterator_is_sorted(values in proptest::collection::vec(-1000i32..1000, 0..100)) {
            let ms: OrderedMultiset<i32> = values.iter().copied().collect();
            prop_assert!(ms.as_slice().windows(2).all(|w| w[0] <= w[1]));
            prop_assert_eq!(ms.as_slice().len(), values.len());
        }

        #[test]
        fn fill_to_splice_matches_repeated_insert(
            values in proptest::collection::vec(-50i32..50, 0..40),
            n in 0usize..60,
            value in -60i32..60,
        ) {
            let mut spliced: OrderedMultiset<i32> = values.iter().copied().collect();
            spliced.fill_to(n, value);
            // The previous implementation, kept as the semantic reference.
            let mut looped: OrderedMultiset<i32> = values.iter().copied().collect();
            while looped.as_slice().len() < n {
                looped.insert(value);
            }
            prop_assert_eq!(spliced, looped);
        }
    }
}
