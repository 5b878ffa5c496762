//! A2 — clamp ablation: remove the `min(counter, N − t)` offset clamp from
//! Algorithm 4 and the half-echo adversary breaks order preservation; with
//! the clamp, the same adversary is a no-op.
//!
//! This validates the paper's Section VI remark that the clamp "prevents
//! Byzantine processes from introducing an additional error linear in the
//! number of correct processes by choosing to echo correct ids for some
//! processes but not others".

use crate::id_dist::IdDistribution;
use crate::table::ExperimentTable;
use opr_adversary::AdversarySpec;
use opr_core::{run_two_step, TwoStepOptions};
use opr_core::{TwoStepProbe, TwoStepTweaks};
use opr_types::{OriginalId, SystemConfig};
use std::collections::BTreeSet;

fn measure(n: usize, t: usize, clamp: bool, seeds: u64) -> (u32, u32, i64) {
    let cfg = SystemConfig::new(n, t).expect("valid");
    let mut runs = 0;
    let mut violating = 0;
    let mut max_delta = 0i64;
    for seed in 0..seeds {
        let ids = IdDistribution::EvenSpaced.generate(n - t, seed + 1);
        let correct: BTreeSet<OriginalId> = ids.iter().copied().collect();
        runs += 1;
        let result = run_two_step(
            cfg,
            &ids,
            t,
            |env| AdversarySpec::HalfEcho.build_two_step(env),
            TwoStepOptions {
                seed,
                tweaks: TwoStepTweaks {
                    disable_clamp: !clamp,
                },
                ..TwoStepOptions::default()
            },
        )
        .expect("legal regime");
        if !result.outcome.verify((n * n) as u64).is_empty() {
            violating += 1;
        }
        let probe: &TwoStepProbe = &result.probe;
        max_delta = max_delta.max(probe.max_discrepancy(&correct));
    }
    (runs, violating, max_delta)
}

/// Runs the ablation for `t ∈ {2, 3}` at minimal `N`.
pub fn run() -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "A2",
        "ablation: offset clamp min(counter, N−t) on/off under the half-echo adversary",
        [
            "N",
            "t",
            "clamp",
            "runs",
            "violating-runs",
            "max-delta",
            "bound-2t2",
        ]
        .map(String::from)
        .to_vec(),
    );
    for t in [2usize, 3] {
        let n = 2 * t * t + t + 1;
        for clamp in [true, false] {
            let (runs, violating, max_delta) = measure(n, t, clamp, 6);
            table.push_row(vec![
                n.to_string(),
                t.to_string(),
                clamp.to_string(),
                runs.to_string(),
                violating.to_string(),
                max_delta.to_string(),
                (2 * t * t).to_string(),
            ]);
        }
    }
    table.add_note(
        "half-echo delivers its echo only to half the correct processes: \
         with the clamp both halves floor every correct id's offset at N−t \
         (Δ stays ≤ 2t²); without it the per-id counter gap accumulates \
         along the sorted id sequence and crosses the N−t name gap",
    );
    table
}

#[cfg(test)]
mod tests {
    #[test]
    fn clamp_is_load_bearing() {
        let table = super::run();
        for row in &table.rows {
            let clamp: bool = row[2].parse().unwrap();
            let violating: u32 = row[4].parse().unwrap();
            let max_delta: i64 = row[5].parse().unwrap();
            let bound: i64 = row[6].parse().unwrap();
            if clamp {
                assert_eq!(violating, 0, "clamped runs must be clean: {row:?}");
                assert!(max_delta <= bound, "clamped Δ within 2t²: {row:?}");
            } else {
                assert!(violating > 0, "unclamped runs must break: {row:?}");
                assert!(max_delta > bound, "unclamped Δ exceeds 2t²: {row:?}");
            }
        }
    }
}
