//! T1 — step complexity: every implementation's measured rounds vs the
//! paper's formulas (§IV-D, Theorem V.3, §VI-B, and the related-work costs).

use crate::id_dist::IdDistribution;
use crate::run::Algorithm;
use crate::table::ExperimentTable;
use opr_adversary::AdversarySpec;
use opr_types::SystemConfig;

/// The adversary each implementation is measured under (rounds are
/// schedule-determined, so any adversary gives the same count; we use an
/// aggressive one where available to prove the point).
fn adversary_for(alg: Algorithm) -> AdversarySpec {
    match alg {
        Algorithm::Alg1LogTime | Algorithm::Alg1ConstantTime => AdversarySpec::IdForge,
        Algorithm::TwoStep => AdversarySpec::FakeFlood,
        _ => AdversarySpec::Silent,
    }
}

/// Runs the experiment: `t ∈ 1..=4`, each implementation at its minimal `N`.
pub fn run() -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "T1",
        "step complexity: measured rounds vs paper formula, at minimal N per regime",
        ["t", "algorithm", "N", "rounds-measured", "rounds-formula"]
            .map(String::from)
            .to_vec(),
    );
    for t in 1..=4usize {
        for alg in Algorithm::ALL {
            let n = alg.minimal_n(t);
            let cfg = SystemConfig::new(n, t).expect("minimal N is valid");
            let ids = IdDistribution::SparseRandom.generate(n - t, 1000 + t as u64);
            let stats = alg
                .run(cfg, &ids, t, adversary_for(alg), 1)
                .unwrap_or_else(|e| panic!("{alg} t={t}: {e}"));
            assert_eq!(
                stats.violations, 0,
                "{alg} t={t}: properties must hold while measuring"
            );
            table.push_row(vec![
                t.to_string(),
                alg.label().to_owned(),
                n.to_string(),
                stats.rounds.to_string(),
                alg.rounds(cfg).to_string(),
            ]);
        }
    }
    table.add_note(
        "alg1-log: 3⌈log₂ t⌉+7; alg1-const: 8; alg4: 2; b1: ⌈log₂ t⌉+4; \
         b2: 2t+6; b3: ⌈log₂ N⌉+1; b4: 2(⌈log₂ 2N⌉+1)",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_equals_formula_everywhere() {
        let table = run();
        let measured = table.column("rounds-measured");
        let formula = table.column("rounds-formula");
        assert_eq!(measured, formula);
    }

    #[test]
    fn two_step_always_wins_and_consensus_grows_linearly() {
        let table = run();
        let algs = table.column("algorithm");
        let rounds: Vec<u32> = table
            .column("rounds-measured")
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        // Algorithm 4 is the global minimum.
        let min = rounds.iter().min().unwrap();
        for (a, r) in algs.iter().zip(&rounds) {
            if *a == "alg4-2step" {
                assert_eq!(r, min);
            }
        }
        // Consensus rounds at t=1 vs t=4 grow by 2·(4−1) = 6.
        let b2: Vec<u32> = algs
            .iter()
            .zip(&rounds)
            .filter(|(a, _)| **a == "b2-consensus")
            .map(|(_, r)| *r)
            .collect();
        assert_eq!(b2.last().unwrap() - b2.first().unwrap(), 6);
    }
}
