//! Original-id workload generators.
//!
//! The renaming problem is motivated by ids drawn from a huge namespace
//! (`N_max ≫ N`), and the algorithms' behaviour depends on the id *layout*
//! only through ordering — but adversaries interact with layout (fake ids
//! interleave between correct ones), so experiments sweep several shapes.

use opr_types::OriginalId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::fmt;

/// A named distribution of original ids.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum IdDistribution {
    /// `1, 2, …, k` — the degenerate case where renaming is a no-op.
    Dense,
    /// Uniform over the full 48-bit namespace — the motivating case.
    SparseRandom,
    /// A few tight clusters far apart — stresses interleaving fakes.
    Clustered,
    /// Consecutive even numbers — every gap admits exactly one fake
    /// (adversarial interleaving is maximally effective).
    EvenSpaced,
}

impl IdDistribution {
    /// All distributions.
    pub const ALL: [IdDistribution; 4] = [
        IdDistribution::Dense,
        IdDistribution::SparseRandom,
        IdDistribution::Clustered,
        IdDistribution::EvenSpaced,
    ];

    /// A short stable label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            IdDistribution::Dense => "dense",
            IdDistribution::SparseRandom => "sparse-random",
            IdDistribution::Clustered => "clustered",
            IdDistribution::EvenSpaced => "even-spaced",
        }
    }

    /// Parses an [`IdDistribution::label`].
    pub fn parse(label: &str) -> Option<IdDistribution> {
        IdDistribution::ALL
            .into_iter()
            .find(|dist| dist.label() == label)
    }

    /// Generates `count` distinct ids.
    pub fn generate(&self, count: usize, seed: u64) -> Vec<OriginalId> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6964_6469_7374);
        let mut set = BTreeSet::new();
        match self {
            IdDistribution::Dense => {
                for i in 1..=count as u64 {
                    set.insert(i);
                }
            }
            IdDistribution::SparseRandom => {
                while set.len() < count {
                    set.insert(rng.gen_range(1..(1u64 << 48)));
                }
            }
            IdDistribution::Clustered => {
                let clusters = (count / 4).max(1);
                'outer: loop {
                    for _ in 0..clusters {
                        let base = rng.gen_range(1..(1u64 << 40));
                        for off in 0..4u64 {
                            set.insert(base + off);
                            if set.len() >= count {
                                break 'outer;
                            }
                        }
                    }
                }
            }
            IdDistribution::EvenSpaced => {
                let base = rng.gen_range(1..1u64 << 20) * 2;
                for i in 0..count as u64 {
                    set.insert(base + 2 * i);
                }
            }
        }
        set.into_iter().take(count).map(OriginalId::new).collect()
    }
}

impl fmt::Display for IdDistribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_distributions_generate_distinct_sorted_ids() {
        for dist in IdDistribution::ALL {
            for count in [1usize, 5, 16, 33] {
                let ids = dist.generate(count, 7);
                assert_eq!(ids.len(), count, "{dist} count {count}");
                assert!(
                    ids.windows(2).all(|w| w[0] < w[1]),
                    "{dist}: ids must be distinct and sorted"
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        for dist in IdDistribution::ALL {
            assert_eq!(dist.generate(10, 3), dist.generate(10, 3));
        }
        assert_ne!(
            IdDistribution::SparseRandom.generate(10, 3),
            IdDistribution::SparseRandom.generate(10, 4)
        );
    }

    #[test]
    fn dense_is_one_to_count() {
        let ids = IdDistribution::Dense.generate(5, 99);
        let raws: Vec<u64> = ids.iter().map(|i| i.raw()).collect();
        assert_eq!(raws, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn even_spaced_has_unit_gaps_for_fakes() {
        let ids = IdDistribution::EvenSpaced.generate(8, 1);
        for w in ids.windows(2) {
            assert_eq!(w[1].raw() - w[0].raw(), 2);
        }
    }
}
