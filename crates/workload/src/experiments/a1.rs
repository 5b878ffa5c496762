//! A1 — validation ablation: remove the `isValid` filter (Algorithm 2) and
//! the pair-squeeze adversary destroys order preservation; with the filter,
//! the same adversary is harmless.
//!
//! This is the empirical demonstration of the paper's central design point
//! (Section I): Byzantine-tolerant approximate agreement alone is *not*
//! order-preserving, because adversaries can make per-id value hulls
//! overlap and then steer different ids to a common value.

use crate::id_dist::IdDistribution;
use crate::table::ExperimentTable;
use opr_adversary::AdversarySpec;
use opr_core::Alg1Tweaks;
use opr_core::{run_alg1, Alg1Options};
use opr_types::{Regime, SystemConfig};

fn violating_runs(n: usize, t: usize, validation: bool, seeds: u64) -> (u32, u32) {
    let cfg = SystemConfig::new(n, t).expect("valid");
    let mut runs = 0;
    let mut violating = 0;
    for seed in 0..seeds {
        let ids = IdDistribution::EvenSpaced.generate(n - t, seed + 1);
        runs += 1;
        let result = run_alg1(
            cfg,
            Regime::LogTime,
            &ids,
            t,
            |env| AdversarySpec::PairSqueeze.build_alg1(env),
            Alg1Options {
                seed,
                tweaks: Alg1Tweaks {
                    disable_validation: !validation,
                    ..Alg1Tweaks::default()
                },
                ..Alg1Options::default()
            },
        );
        match result {
            Ok(res) => {
                if !res
                    .outcome
                    .verify(cfg.namespace_bound(Regime::LogTime))
                    .is_empty()
                {
                    violating += 1;
                }
            }
            Err(_) => violating += 1,
        }
    }
    (runs, violating)
}

/// Runs the ablation for `(N, t) ∈ {(7,2), (10,3), (13,4)}`.
pub fn run() -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "A1",
        "ablation: isValid vote filter on/off under the pair-squeeze adversary",
        ["N", "t", "isValid", "runs", "violating-runs"]
            .map(String::from)
            .to_vec(),
    );
    for (n, t) in [(7usize, 2usize), (10, 3), (13, 4)] {
        for validation in [true, false] {
            let (runs, violating) = violating_runs(n, t, validation, 6);
            table.push_row(vec![
                n.to_string(),
                t.to_string(),
                validation.to_string(),
                runs.to_string(),
                violating.to_string(),
            ]);
        }
    }
    table.add_note(
        "the pair-squeeze votes rank two adjacent correct ids at the same \
         value; isValid rejects them (spacing 0 < δ); without the filter \
         they pass the per-id trim (they lie inside the overlapping hulls \
         created by the divergence gadget) and merge the two ids' names",
    );
    table
}

#[cfg(test)]
mod tests {
    #[test]
    fn validation_is_load_bearing() {
        let table = super::run();
        for row in &table.rows {
            let on: bool = row[2].parse().unwrap();
            let violating: u32 = row[4].parse().unwrap();
            if on {
                assert_eq!(violating, 0, "validated runs must be clean: {row:?}");
            } else {
                assert!(violating > 0, "ablated runs must break: {row:?}");
            }
        }
    }
}
