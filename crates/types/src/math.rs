//! Small integer helpers used throughout the workspace.

/// `⌈log₂ x⌉` with the paper's convention that the value is `0` for
/// `x ∈ {0, 1}` (the round formulas use `⌈log t⌉` and remain meaningful for
/// `t ≤ 1`).
///
/// # Example
///
/// ```
/// use opr_types::math::ceil_log2;
/// assert_eq!(ceil_log2(0), 0);
/// assert_eq!(ceil_log2(1), 0);
/// assert_eq!(ceil_log2(2), 1);
/// assert_eq!(ceil_log2(3), 2);
/// assert_eq!(ceil_log2(8), 3);
/// assert_eq!(ceil_log2(9), 4);
/// ```
pub fn ceil_log2(x: usize) -> u32 {
    if x <= 1 {
        0
    } else {
        (x - 1).ilog2() + 1
    }
}

/// The splitmix64 finalizer — the workspace's one bit mixer. Every seed
/// derivation (fault placement, per-run and per-epoch seeds, client
/// hashing) applies its own pre-mix and then this, so
/// derived values are stable across rand versions.
///
/// # Example
///
/// ```
/// use opr_types::math::mix64;
/// assert_eq!(mix64(0), 0);
/// assert_eq!(mix64(0x9e37_79b9_7f4a_7c15), 0xe220_a839_7b1d_cdaf);
/// ```
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_matches_float_math() {
        for x in 2usize..=4096 {
            let expected = (x as f64).log2().ceil() as u32;
            assert_eq!(ceil_log2(x), expected, "x={x}");
        }
    }

    #[test]
    fn ceil_log2_small_values() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
    }
}
