//! The [`Rank`] value type iterated by the approximate-agreement voting
//! phase.
//!
//! # Numerics
//!
//! Ranks are reals in the paper. We represent them as finite `f64` wrapped in
//! a totally-ordered newtype. This is sound for the protocol because all
//! guarantees in the paper carry explicit margins that dwarf `f64` rounding
//! error: the spacing invariant is `δ − 1 = 1/(3(N+t))` (≥ `~10⁻⁴` for any
//! practical `N`), while the error accumulated by the voting phase —
//! `O(rounds · N)` additions/averages of values bounded by `N + t` — is below
//! `10⁻¹⁰` for `N ≤ 10⁶`. Comparisons that implement protocol *validation*
//! (the `isValid` spacing check) use the tolerance [`Rank::EPS`] so that a
//! mathematically-guaranteed `≥ δ` spacing is never rejected due to the last
//! bit of a double; see [`Rank::spaced_at_least`].

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

use crate::ids::NewName;

/// A totally-ordered finite rank value.
///
/// # Example
///
/// ```
/// use opr_types::Rank;
/// let delta = 1.0 + 1.0 / 39.0;
/// let first = Rank::from_position(1, delta);
/// let second = Rank::from_position(2, delta);
/// assert!(first < second);
/// assert!(first.spaced_at_least(second, delta));
/// assert_eq!(second.round_to_name().raw(), 2);
/// ```
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Rank(f64);

impl Rank {
    /// Absolute comparison tolerance used by protocol validation. Far above
    /// accumulated `f64` noise, far below every protocol margin.
    pub(crate) const EPS: f64 = 1e-9;

    /// Wraps a raw value.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN or infinite; ranks are always finite.
    pub fn new(value: f64) -> Self {
        assert!(value.is_finite(), "ranks must be finite, got {value}");
        Rank(value)
    }

    /// The initial rank of the id at 1-based `position` in the sorted
    /// `accepted` set, stretched by `delta` (Algorithm 1, line 28).
    pub fn from_position(position: usize, delta: f64) -> Self {
        Rank::new(position as f64 * delta)
    }

    /// The raw value.
    pub const fn value(self) -> f64 {
        self.0
    }

    /// `Round(rank)`: the integral value nearest this rank, as a new name
    /// (Algorithm 1, line 37).
    pub fn round_to_name(self) -> NewName {
        NewName::new(self.0.round() as i64)
    }

    /// Whether `later − self ≥ spacing` holds, with `Rank::EPS` tolerance.
    ///
    /// This is the comparison Algorithm 2 (`isValid`) performs between the
    /// ranks of consecutive timely ids. The tolerance ensures Lemma IV.4
    /// (correct votes are always valid) survives floating-point rounding.
    pub fn spaced_at_least(self, later: Rank, spacing: f64) -> bool {
        later.0 - self.0 >= spacing - Rank::EPS
    }

    /// Absolute distance to another rank.
    pub fn distance(self, other: Rank) -> f64 {
        (self.0 - other.0).abs()
    }

    /// Midpoint of two ranks (used by the crash-fault baseline's approximate
    /// agreement).
    pub fn midpoint(self, other: Rank) -> Rank {
        Rank::new((self.0 + other.0) / 2.0)
    }

    /// The arithmetic mean of a non-empty slice of ranks.
    ///
    /// # Panics
    ///
    /// Panics if `ranks` is empty.
    pub fn mean(ranks: &[Rank]) -> Rank {
        assert!(!ranks.is_empty(), "mean of empty rank set");
        let sum: f64 = ranks.iter().map(|r| r.0).sum();
        Rank::new(sum / ranks.len() as f64)
    }
}

impl Eq for Rank {}

impl PartialOrd for Rank {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rank {
    fn cmp(&self, other: &Self) -> Ordering {
        // Finite-by-construction, so total_cmp agrees with numeric order.
        self.0.total_cmp(&other.0)
    }
}

impl fmt::Debug for Rank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rank:{:.6}", self.0)
    }
}

impl fmt::Display for Rank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.0)
    }
}

impl Add for Rank {
    type Output = Rank;
    fn add(self, rhs: Rank) -> Rank {
        Rank::new(self.0 + rhs.0)
    }
}

impl Sub for Rank {
    type Output = Rank;
    fn sub(self, rhs: Rank) -> Rank {
        Rank::new(self.0 - rhs.0)
    }
}

impl Mul<f64> for Rank {
    type Output = Rank;
    fn mul(self, rhs: f64) -> Rank {
        Rank::new(self.0 * rhs)
    }
}

impl Div<f64> for Rank {
    type Output = Rank;
    fn div(self, rhs: f64) -> Rank {
        Rank::new(self.0 / rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn position_ranks_are_delta_spaced() {
        let delta = 1.0 + 1.0 / 39.0;
        for p in 1..100usize {
            let a = Rank::from_position(p, delta);
            let b = Rank::from_position(p + 1, delta);
            assert!(a.spaced_at_least(b, delta), "position {p}");
            assert!(!b.spaced_at_least(a, delta));
        }
    }

    #[test]
    fn rounding_matches_paper_validity_argument() {
        // round((N+t−1)·δ) = N+t−1 for N>3t: δ−1 ≤ 1/(3(N+t)) keeps the
        // stretch below half a unit at the largest rank.
        for (n, t) in [(4usize, 1usize), (10, 3), (31, 10), (100, 33)] {
            let delta = 1.0 + 1.0 / (3.0 * (n + t) as f64);
            let top = Rank::from_position(n + t - 1, delta);
            assert_eq!(top.round_to_name().raw(), (n + t - 1) as i64, "N={n} t={t}");
        }
    }

    #[test]
    fn spacing_tolerates_float_noise() {
        let delta = 1.003;
        let a = Rank::new(5.0);
        // Exactly delta apart minus sub-EPS noise must still pass.
        let b = Rank::new(5.0 + delta - 1e-12);
        assert!(a.spaced_at_least(b, delta));
        // Clearly closer than delta must fail.
        let c = Rank::new(5.0 + delta - 1e-3);
        assert!(!a.spaced_at_least(c, delta));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan() {
        let _ = Rank::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn mean_of_empty_panics() {
        let _ = Rank::mean(&[]);
    }

    #[test]
    fn arithmetic() {
        let a = Rank::new(2.0);
        let b = Rank::new(3.0);
        assert_eq!((a + b).value(), 5.0);
        assert_eq!((b - a).value(), 1.0);
        assert_eq!((a * 2.0).value(), 4.0);
        assert_eq!((b / 2.0).value(), 1.5);
        assert_eq!(a.midpoint(b).value(), 2.5);
        assert_eq!(a.distance(b), 1.0);
    }

    proptest! {
        #[test]
        fn ordering_is_total_and_consistent(x in -1e9f64..1e9, y in -1e9f64..1e9) {
            let (a, b) = (Rank::new(x), Rank::new(y));
            prop_assert_eq!(a.cmp(&b), x.partial_cmp(&y).unwrap());
        }

        #[test]
        fn mean_is_within_bounds(values in proptest::collection::vec(-1e6f64..1e6, 1..50)) {
            let ranks: Vec<Rank> = values.iter().map(|&v| Rank::new(v)).collect();
            let m = Rank::mean(&ranks);
            let lo = ranks.iter().min().unwrap();
            let hi = ranks.iter().max().unwrap();
            prop_assert!(m >= *lo - Rank::new(1e-9) && m <= *hi + Rank::new(1e-9));
        }
    }
}
