//! Power-of-two log-bucketed histogram support.
//!
//! Bucket `k` holds values `v` with `v <= 2^k` (and `v > 2^(k-1)` for `k > 0`),
//! so upper bounds run 1, 2, 4, 8, ... 2^63, with one final overflow bucket for
//! values above `2^63`. Index computation is a single `leading_zeros`, cheap
//! enough for the hot path.

/// Number of buckets: upper bounds `2^0 ..= 2^63` plus one overflow bucket.
pub(crate) const BUCKETS: usize = 65;

/// Index of the overflow bucket (`le = +Inf`).
pub const OVERFLOW_BUCKET: usize = BUCKETS - 1;

/// Return the bucket index for a recorded value.
///
/// `0` and `1` land in bucket 0 (`le = 1`); otherwise the value lands in the
/// smallest bucket whose upper bound `2^k` is `>= v`. Values above `2^63` land
/// in the overflow bucket.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value <= 1 {
        0
    } else {
        64 - (value - 1).leading_zeros() as usize
    }
}

/// Upper bound of bucket `k` as a label string (`"+Inf"` for the overflow bucket).
pub(crate) fn bucket_bound_label(k: usize) -> String {
    if k >= OVERFLOW_BUCKET {
        "+Inf".to_string()
    } else {
        (1u128 << k).to_string()
    }
}

/// An immutable, mergeable histogram: per-bucket counts plus total count and sum.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; BUCKETS],
    pub count: u64,
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Record one observation (used to build deterministic snapshots directly).
    pub(crate) fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
    }

    /// Approximate quantile: upper bound of the bucket holding rank `q * count`.
    pub(crate) fn quantile_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (k, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if k >= OVERFLOW_BUCKET {
                    u64::MAX
                } else {
                    1u64 << k
                };
            }
        }
        u64::MAX
    }

    /// Index of the highest non-empty bucket, if any observation was recorded.
    pub(crate) fn max_bucket(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&c| c > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(8), 3);
        assert_eq!(bucket_index(9), 4);
        assert_eq!(bucket_index(1 << 20), 20);
        assert_eq!(bucket_index((1 << 20) + 1), 21);
        assert_eq!(bucket_index(1u64 << 63), 63);
        assert_eq!(bucket_index((1u64 << 63) + 1), OVERFLOW_BUCKET);
        assert_eq!(bucket_index(u64::MAX), OVERFLOW_BUCKET);
    }

    #[test]
    fn record_agrees_with_direct_counts() {
        let mut a = HistogramSnapshot::new();
        for v in [0, 1, 2, 3, 100, 5000, 7, 7, 7] {
            a.record(v);
        }
        assert_eq!(a.count, 9);
        assert_eq!(a.sum, 1 + 2 + 3 + 100 + 5000 + 21);
        assert_eq!(a.buckets[3], 3); // (4, 8] holds 7, 7, 7
        assert_eq!(a.buckets[0], 2); // 0 and 1
    }

    #[test]
    fn quantiles_are_bucket_bounds() {
        let mut h = HistogramSnapshot::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.quantile_bound(0.5), 64); // rank 50 falls in (32, 64]
        assert_eq!(h.quantile_bound(1.0), 128);
        assert_eq!(h.max_bucket(), Some(7));
    }
}
