//! Deterministic fake-id generation shared by all strategies.

use opr_core::AdversaryEnv;
use opr_types::OriginalId;
use std::collections::BTreeSet;

/// Generates `count` fake original ids that *interleave* the correct ids
/// (midpoints of consecutive gaps first, then values beyond both ends).
///
/// Interleaved fakes are the worst case for order preservation: a fake
/// landing between two adjacent correct ids forces their ranks apart and
/// maximizes rank discrepancies between processes that accept the fake and
/// processes that do not.
///
/// The result is deterministic in the environment (not the slot), so all
/// colluding actors compute the same fake set.
pub(crate) fn fake_ids(env: &AdversaryEnv<'_>, count: usize) -> Vec<OriginalId> {
    let correct: Vec<u64> = env.correct_ids.iter().map(|id| id.raw()).collect();
    let mut fakes = Vec::with_capacity(count);
    let mut used: BTreeSet<u64> = correct.iter().copied().collect();

    // Midpoints of gaps between consecutive correct ids, widest gaps first.
    let mut gaps: Vec<(u64, u64)> = correct.windows(2).map(|w| (w[0], w[1])).collect();
    gaps.sort_by_key(|&(a, b)| std::cmp::Reverse(b - a));
    for (a, b) in gaps {
        if fakes.len() >= count {
            break;
        }
        let mid = a + (b - a) / 2;
        if mid > a && mid < b && used.insert(mid) {
            fakes.push(OriginalId::new(mid));
        }
    }
    // Values below the minimum, then above the maximum.
    let lo = correct.first().copied().unwrap_or(1_000);
    let hi = correct.last().copied().unwrap_or(1_000);
    let mut below = lo.saturating_sub(1);
    let mut above = hi + 1;
    while fakes.len() < count {
        if below > 0 && used.insert(below) {
            fakes.push(OriginalId::new(below));
            below = below.saturating_sub(1);
        } else if used.insert(above) {
            fakes.push(OriginalId::new(above));
            above += 1;
        } else {
            above += 1;
        }
    }
    fakes.sort_unstable();
    fakes
}

#[cfg(test)]
mod tests {
    use super::*;
    use opr_sim::Topology;
    use opr_types::SystemConfig;

    fn with_env<R>(raw_ids: &[u64], f: impl FnOnce(&AdversaryEnv<'_>) -> R) -> R {
        let cfg = SystemConfig::new(raw_ids.len() + 2, 2).unwrap();
        let topo = Topology::seeded(cfg.n(), 1);
        let ids: Vec<OriginalId> = raw_ids.iter().map(|&x| OriginalId::new(x)).collect();
        let assignments: Vec<(usize, OriginalId)> =
            ids.iter().enumerate().map(|(i, &id)| (i + 2, id)).collect();
        let env = AdversaryEnv {
            cfg,
            slot: 0,
            faulty_count: 2,
            index: 0,
            correct_ids: &ids,
            correct_assignments: &assignments,
            topology: &topo,
            seed: 7,
            interner: opr_rbcast::IdInterner::new(),
        };
        f(&env)
    }

    #[test]
    fn fakes_are_distinct_and_disjoint_from_correct() {
        with_env(&[10, 20, 50, 100], |env| {
            let fakes = fake_ids(env, 6);
            assert_eq!(fakes.len(), 6);
            let set: BTreeSet<OriginalId> = fakes.iter().copied().collect();
            assert_eq!(set.len(), 6, "distinct");
            for f in &fakes {
                assert!(!env.correct_ids.contains(f), "fake {f:?} collides");
            }
        });
    }

    #[test]
    fn fakes_prefer_interleaving() {
        with_env(&[10, 1000], |env| {
            let fakes = fake_ids(env, 1);
            // The single fake lands strictly between the two correct ids.
            assert!(fakes[0].raw() > 10 && fakes[0].raw() < 1000);
        });
    }

    #[test]
    fn fakes_overflow_beyond_ends_when_gaps_run_out() {
        with_env(&[5, 6, 7], |env| {
            let fakes = fake_ids(env, 4);
            assert_eq!(fakes.len(), 4);
            let raws: BTreeSet<u64> = fakes.iter().map(|f| f.raw()).collect();
            assert!(raws.iter().all(|&r| r != 5 && r != 6 && r != 7));
        });
    }

    #[test]
    fn deterministic_across_calls() {
        let a = with_env(&[3, 30, 300], |env| fake_ids(env, 5));
        let b = with_env(&[3, 30, 300], |env| fake_ids(env, 5));
        assert_eq!(a, b);
    }
}
