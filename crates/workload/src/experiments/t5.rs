//! T5 — resilience boundary: Algorithm 1 at `N = 3t + 1` (legal) vs
//! `N = 3t` (one process short of the optimal bound, cited from \[15\]).

use crate::id_dist::IdDistribution;
use crate::table::ExperimentTable;
use opr_adversary::AdversarySpec;
use opr_core::Alg1Tweaks;
use opr_core::{run_alg1, Alg1Options};
use opr_types::{Regime, RenamingError, SystemConfig};

/// Aggressive strategies for the boundary probe.
const ATTACKS: [AdversarySpec; 4] = [
    AdversarySpec::IdForge,
    AdversarySpec::EchoSplit,
    AdversarySpec::RankSkew,
    AdversarySpec::RandomNoise,
];

fn violation_runs(n: usize, t: usize, seeds: u64) -> (u32, u32) {
    let cfg = SystemConfig::new(n, t).expect("t < n");
    let mut runs = 0u32;
    let mut violating = 0u32;
    for spec in ATTACKS {
        for seed in 0..seeds {
            let ids = IdDistribution::EvenSpaced.generate(n - t, seed + 1);
            runs += 1;
            let outcome = run_alg1(
                cfg,
                Regime::LogTime,
                &ids,
                t,
                |env| spec.build_alg1(env),
                Alg1Options {
                    seed,
                    tweaks: Alg1Tweaks {
                        allow_regime_violation: true,
                        ..Alg1Tweaks::default()
                    },
                    ..Alg1Options::default()
                },
            );
            match outcome {
                Ok(result) => {
                    if !result
                        .outcome
                        .verify(cfg.namespace_bound(Regime::LogTime))
                        .is_empty()
                    {
                        violating += 1;
                    }
                }
                // A correct process failing to decide is a termination
                // violation.
                Err(RenamingError::MissedTermination { .. }) => violating += 1,
                Err(e) => panic!("unexpected setup error: {e}"),
            }
        }
    }
    (runs, violating)
}

/// Runs the experiment for `t ∈ {2, 3}`.
pub fn run() -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "T5",
        "resilience boundary: violation runs at N = 3t+1 (legal) vs N = 3t (illegal)",
        ["t", "N", "regime-legal", "runs", "violating-runs"]
            .map(String::from)
            .to_vec(),
    );
    for t in [2usize, 3] {
        for n in [3 * t + 1, 3 * t] {
            let (runs, violating) = violation_runs(n, t, 3);
            table.push_row(vec![
                t.to_string(),
                n.to_string(),
                (n > 3 * t).to_string(),
                runs.to_string(),
                violating.to_string(),
            ]);
        }
    }
    table.add_note(
        "at N = 3t the N−2t threshold no longer implies a correct backer per \
         Byzantine quorum; guarantees may fail, and measured violations are \
         reported as-is (zero violations at N = 3t does not make N = 3t safe — \
         the bound is worst-case)",
    );
    table
}

#[cfg(test)]
mod tests {
    #[test]
    fn legal_configurations_never_violate() {
        let table = super::run();
        for row in &table.rows {
            if row[2] == "true" {
                assert_eq!(row[4], "0", "legal config violated: {row:?}");
            }
        }
    }
}
