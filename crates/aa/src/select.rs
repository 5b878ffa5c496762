//! The DLPSW reduction: `avg(select_t(trim_t(votes)))`.

use crate::multiset::OrderedMultiset;
use opr_types::Rank;

/// Applies the full reduction to a vote multiset: discard the `t` smallest
/// and `t` largest, select the smallest remaining value and every `t`-th
/// after it, and average the selection (Algorithm 3, lines 12–16).
///
/// # Panics
///
/// Panics if fewer than `2t + 1` votes are supplied — the protocol
/// guarantees `≥ N − t ≥ 2t + 1` votes for any id it reduces, so fewer
/// indicates a harness bug.
pub fn reduce(votes: &OrderedMultiset<Rank>, t: usize) -> Rank {
    reduce_runs(votes.as_slice().iter().map(|&rank| (rank, 1)), t)
}

/// [`reduce`] on votes already in ascending order, given as runs
/// `(value, copies)` — a multiset needs each distinct value once with its
/// multiplicity. Trimming `t` per side and `select_t` (Section IV-B: the
/// smallest survivor and every `t`-th after it; every survivor when
/// `t = 0`) come to positions `t, 2t, … < len − t` of the expanded
/// sequence (`len` = total copies), found by walking cumulative copies and
/// summed one by one in ascending order — so the result is bit for bit the
/// reduction of the expanded votes. [`reduce`] is this with every count 1.
///
/// # Panics
///
/// As [`reduce`]; ascending order is the caller's contract (debug-asserted).
pub fn reduce_runs<I>(runs: I, t: usize) -> Rank
where
    I: IntoIterator<Item = (Rank, usize)>,
    I::IntoIter: Clone,
{
    let mut runs = runs.into_iter();
    let len: usize = runs.clone().map(|(_, copies)| copies).sum();
    assert!(
        len > 2 * t,
        "reduce needs more than 2t votes (got {len} with t={t})"
    );
    debug_assert!(runs.clone().map(|(rank, _)| rank).is_sorted());
    // The run under the cursor and the position just past it.
    let (mut value, mut end) = (Rank::default(), 0);
    let selected = (t..len - t).step_by(t.max(1)).map(|at| {
        while end <= at {
            let (rank, copies) = runs.next().expect("a position below len is in a run");
            (value, end) = (rank, end + copies);
        }
        value.value()
    });
    let count = selected.len();
    let sum: f64 = selected.sum();
    Rank::new(sum / count as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `select_t` as the paper defines it, on an already-trimmed multiset of
    /// `len` elements: indices `0, t, 2t, …` (every index when `t = 0`) —
    /// the reference [`reduce_runs`]'s position walk is checked against.
    fn select_indices(len: usize, t: usize) -> Vec<usize> {
        if t == 0 {
            return (0..len).collect();
        }
        (0..len).step_by(t).collect()
    }

    /// The reduction spelled out operation by operation (what `reduce` did
    /// before it read positions in place): trim a copy, select, collect,
    /// average.
    fn reduce_by_definition(votes: &OrderedMultiset<Rank>, t: usize) -> Rank {
        let mut trimmed = votes.clone();
        trimmed.trim(t);
        let slice = trimmed.as_slice();
        let selected: Vec<Rank> = select_indices(slice.len(), t)
            .into_iter()
            .map(|i| slice[i])
            .collect();
        Rank::mean(&selected)
    }

    #[test]
    fn select_indices_pattern() {
        assert_eq!(select_indices(7, 2), vec![0, 2, 4, 6]);
        assert_eq!(select_indices(8, 3), vec![0, 3, 6]);
        assert_eq!(select_indices(1, 5), vec![0]);
        assert_eq!(select_indices(0, 2), Vec::<usize>::new());
        assert_eq!(select_indices(4, 0), vec![0, 1, 2, 3]);
    }

    #[test]
    fn select_count_matches_sigma_on_trimmed_multiset() {
        // After trimming, |set| = N − 2t; the number selected is
        // ⌊(N−2t−1)/t⌋ + 1, which equals σ_t = ⌊(N−2t)/t⌋ + 1 except when t
        // divides N−2t exactly (then it is σ_t − 1 — the convergence proof
        // holds for either, and we follow the select definition).
        for (n, t) in [(4usize, 1usize), (7, 2), (10, 3), (13, 4), (16, 3)] {
            let count = select_indices(n - 2 * t, t).len();
            let sig = opr_types::SystemConfig::new(n, t).unwrap().sigma();
            assert!(
                count == sig || count + 1 == sig,
                "N={n} t={t}: {count} vs σ={sig}"
            );
        }
    }

    #[test]
    fn reduce_ignores_t_outliers_per_side() {
        // N=7, t=1: one arbitrarily-low and the average must stay within
        // the correct values' range.
        let votes: OrderedMultiset<Rank> = [-1e9, 10.0, 10.5, 11.0, 11.5, 12.0, 12.5]
            .map(Rank::new)
            .into_iter()
            .collect();
        let out = reduce(&votes, 1);
        assert!(out >= Rank::new(10.0) && out <= Rank::new(12.5));
    }

    #[test]
    #[should_panic(expected = "more than 2t")]
    fn reduce_rejects_too_few_votes() {
        let votes: OrderedMultiset<Rank> = [1.0, 2.0].map(Rank::new).into_iter().collect();
        let _ = reduce(&votes, 1);
    }

    #[test]
    fn reduce_with_t_zero_is_plain_mean() {
        let votes: OrderedMultiset<Rank> = [1.0, 2.0, 3.0].map(Rank::new).into_iter().collect();
        assert_eq!(reduce(&votes, 0), Rank::new(2.0));
    }

    proptest! {
        /// Walking runs to positions `t, 2t, … < len − t` is the
        /// trim/select/mean definition of the expanded multiset bit for
        /// bit, `t = 0` and the `len = 2t + 1` single-survivor edge
        /// included — whether equal values come as one run, several
        /// adjacent runs or runs of one, and across empty runs.
        #[test]
        fn reduce_runs_is_the_definition_bit_for_bit(
            mut runs in proptest::collection::vec((-1e6f64..1e6, 0usize..5), 1..40),
            repeats in 0usize..4,
            t in 0usize..24,
        ) {
            // Some values recur, so equal values meet in adjacent runs.
            for at in 0..repeats.min(runs.len() - 1) {
                runs[at + 1].0 = runs[at].0;
            }
            let mut runs: Vec<(Rank, usize)> =
                runs.into_iter().map(|(v, copies)| (Rank::new(v), copies)).collect();
            runs.sort_by_key(|&(rank, _)| rank);
            let expanded: OrderedMultiset<Rank> = runs
                .iter()
                .flat_map(|&(rank, copies)| std::iter::repeat_n(rank, copies))
                .collect();
            prop_assume!(expanded.as_slice().len() > 2 * t);
            let expected = reduce_by_definition(&expanded, t).value().to_bits();
            prop_assert_eq!(reduce_runs(runs.iter().copied(), t).value().to_bits(), expected);
            prop_assert_eq!(reduce(&expanded, t).value().to_bits(), expected);
        }

        /// The reduction must always land inside the range of the values
        /// that survive trimming — hence inside the correct values' range
        /// whenever at most t votes per side are faulty.
        #[test]
        fn reduce_stays_in_trimmed_range(
            values in proptest::collection::vec(-1e6f64..1e6, 4..40),
            t in 0usize..5,
        ) {
            prop_assume!(values.len() > 2 * t);
            let votes: OrderedMultiset<Rank> = values.iter().map(|&v| Rank::new(v)).collect();
            let mut trimmed = votes.clone();
            trimmed.trim(t);
            let out = reduce(&votes, t);
            prop_assert!(out >= trimmed.min().unwrap());
            prop_assert!(out <= trimmed.max().unwrap());
        }

        /// Pairwise contraction (the heart of Lemma IV.8): two vote
        /// multisets that share all but t arbitrary elements reduce to
        /// values within spread/σ of each other — one DLPSW step contracts
        /// the correct values' spread whatever the ≤ t Byzantine votes are.
        #[test]
        fn reduce_contracts_pairwise(
            common in proptest::collection::vec(-1e3f64..1e3, 5..30),
            byz_a in proptest::collection::vec(-1e6f64..1e6, 3..4),
            byz_b in proptest::collection::vec(-1e6f64..1e6, 3..4),
            t in 1usize..4,
        ) {
            let n = common.len() + t;
            prop_assume!(n > 3 * t);
            let correct: OrderedMultiset<Rank> = common.iter().map(|&v| Rank::new(v)).collect();
            let (mut a, mut b) = (correct.clone(), correct.clone());
            for (&va, &vb) in byz_a.iter().zip(&byz_b).take(t) {
                a.insert(Rank::new(va));
                b.insert(Rank::new(vb));
            }
            let (ra, rb) = (reduce(&a, t), reduce(&b, t));
            let correct_spread = correct.max().unwrap().value() - correct.min().unwrap().value();
            // The divisor in the proof of Lemma IV.8 is the number of
            // selected elements c = |select_t(trimmed)|.
            let c = select_indices(n - 2 * t, t).len() as f64;
            prop_assert!(
                ra.distance(rb) <= correct_spread / c + 1e-9,
                "|{} - {}| > {}/{}", ra, rb, correct_spread, c
            );
        }
    }
}
