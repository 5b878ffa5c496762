//! F4 — two-step discrepancy: measured `Δ` (largest cross-process
//! disagreement about a correct id's new name) vs the `2t²` bound of
//! Lemma VI.1, at the minimal `N = 2t² + t + 1` per `t`.

use crate::id_dist::IdDistribution;
use crate::table::ExperimentTable;
use opr_adversary::AdversarySpec;
use opr_core::{run_two_step, TwoStepOptions};
use opr_types::{OriginalId, SystemConfig};
use std::collections::BTreeSet;

/// Runs the experiment for `t ∈ 1..=3`.
pub fn run() -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "F4",
        "two-step discrepancy: measured Δ over the suite vs the 2t² bound, at minimal N",
        [
            "t",
            "N",
            "max-delta",
            "bound-2t2",
            "min-gap",
            "gap-bound-N-t",
        ]
        .map(String::from)
        .to_vec(),
    );
    for t in 1..=3usize {
        let n = 2 * t * t + t + 1;
        let cfg = SystemConfig::new(n, t).expect("valid");
        let mut max_delta = 0i64;
        let mut min_gap = i64::MAX;
        for spec in AdversarySpec::TWO_STEP {
            for seed in 0..4u64 {
                let ids = IdDistribution::EvenSpaced.generate(n - t, seed + 11);
                let correct: BTreeSet<OriginalId> = ids.iter().copied().collect();
                let result = run_two_step(
                    cfg,
                    &ids,
                    t,
                    |env| spec.build_two_step(env),
                    TwoStepOptions {
                        seed,
                        ..TwoStepOptions::default()
                    },
                )
                .expect("legal regime");
                assert!(
                    result.outcome.verify((n * n) as u64).is_empty(),
                    "{spec} t={t} seed={seed}"
                );
                max_delta = max_delta.max(result.probe.max_discrepancy(&correct));
                min_gap = min_gap.min(result.probe.min_correct_gap(&correct));
            }
        }
        table.push_row(vec![
            t.to_string(),
            n.to_string(),
            max_delta.to_string(),
            (2 * t * t).to_string(),
            min_gap.to_string(),
            cfg.quorum().to_string(),
        ]);
    }
    table.add_note(
        "order preservation needs Δ < (N−t) − … which N > 2t²+t guarantees: \
         the measured Δ column must stay below both 2t² and the min-gap column",
    );
    table
}

#[cfg(test)]
mod tests {
    #[test]
    fn discrepancy_within_bound_and_below_gap() {
        let table = super::run();
        for row in &table.rows {
            let delta: i64 = row[2].parse().unwrap();
            let bound: i64 = row[3].parse().unwrap();
            let gap: i64 = row[4].parse().unwrap();
            let gap_bound: i64 = row[5].parse().unwrap();
            assert!(delta <= bound, "t={}: Δ={delta} > {bound}", row[0]);
            assert!(gap >= gap_bound, "t={}: gap {gap} < {gap_bound}", row[0]);
            // The order-preservation mechanism: discrepancy strictly below
            // the guaranteed gap.
            assert!(delta < gap, "t={}: Δ={delta} ≥ gap={gap}", row[0]);
        }
    }
}
